"""Surfaces woven from two rational families of circles, in exact arithmetic.

Three constructions share the toolkit here:

* translational surfaces ``alpha(u) + beta(v)`` of two circles in 3-space,
* products ``alpha(u) * beta(v)`` of two circles on the unit 3-sphere,
  pushed to 3-space by stereographic projection, and
* Darboux cyclides: stereographic images of the intersection of the unit
  3-sphere with another quadric, described implicitly by a quartic.

Circles carry a rational tan-half-angle parametrization

    p(t) = center + e1*(1 - t**2)/(1 + t**2) + e2*(2t)/(1 + t**2)

with an orthogonal pair e1, e2 of equal length, so every sampled point has
exact rational coordinates.  The projection pole is the quaternion 1, the
first coordinate axis; ``stereo`` maps (w, x, y, z) to (x, y, z)/(1 - w) and
``stereo_inv`` is its rational inverse.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import lcm

from .errors import (
    DegenerateFamily,
    InvalidInput,
    PolePoint,
    TooFewPoints,
    UnsupportedFamily,
)
from .quat import (
    _coerce,
    _hamilton,
    _json_array,
    _json_object,
    _quat_json,
    _ratio_of,
    _rationals_from_json,
    _Value,
    rational_to_str,
)

Point3 = tuple[Fraction, Fraction, Fraction]
Point4 = tuple[Fraction, Fraction, Fraction, Fraction]


def _vec(values, size: int) -> tuple[Fraction, ...]:
    """``values`` as ``size`` Fractions, each coerced once; a TypeError for a bad coordinate precedes InvalidInput for a bad length."""
    out = tuple(map(_coerce, values))
    if len(out) != size:
        raise InvalidInput(f"expected a {size}-vector")
    return out


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _homogeneous(point) -> tuple[int, ...]:
    """Rational coordinates as ``(n_1, ..., n_dim, d)``: numerators over their least common denominator."""
    d = lcm(*(c.denominator for c in point))
    return (*(c.numerator * (d // c.denominator) for c in point), d)


def _cell3(point) -> tuple[int, int, int, int]:
    """A rational 3-vector, validated by :func:`_vec`, as ``(n1, n2, n3, d)`` over its least common denominator; equal points give equal cells."""
    # Unpacked by hand rather than _homogeneous(_vec(point, 3)): this is the point intake of circle checks.
    a, b, c = _vec(point, 3)
    da, db, dc = a.denominator, b.denominator, c.denominator
    d = lcm(da, db, dc)
    return a.numerator * (d // da), b.numerator * (d // db), c.numerator * (d // dc), d


def _point(ints) -> tuple[Fraction, ...]:
    """The rational point ``(n_1/d, ..., n_dim/d)`` of an integer tuple ``(n_1, ..., n_dim, d)`` with ``d > 0``."""
    d = ints[-1]
    return tuple([Fraction(n, d) for n in ints[:-1]])


def _count(n, what: str) -> int:
    """``n`` if it is an int and not a bool, which Python counts as one; else a TypeError naming ``what``."""
    if isinstance(n, bool) or not isinstance(n, int):
        raise TypeError(f"{what} must be an int, got {type(n).__name__}")
    return n


# region circles


class _Circle(_Value):
    """A circle in ``dim``-space with a rational Weierstrass parametrization.

    The frame vectors must be orthogonal and of equal positive length; that
    length is the radius.  The parametrization covers the whole circle except
    the single point at t = infinity, reachable as ``point_at_infinity()``.
    The frame is also kept on integers, ``(C, E1, E2)`` per coordinate over
    one common denominator ``L``.  ``_ints`` gives a point from it as the
    unreduced tuple ``(n_1, ..., n_dim, d)``, ``d > 0``, a quaternion tuple
    in 4-space; ``point`` is its ``Fraction`` view.  A subclass sets ``dim``.
    """

    __slots__ = ("center", "e1", "e2", "_frame")

    def __init__(self, center, e1, e2):
        dim = self.dim
        center, e1, e2 = _vec(center, dim), _vec(e1, dim), _vec(e2, dim)
        if _dot(e1, e2):
            raise InvalidInput("frame vectors must be orthogonal")
        n1 = _dot(e1, e1)
        if n1 != _dot(e2, e2):
            raise InvalidInput("frame vectors must have equal length")
        if not n1:
            raise InvalidInput("frame vectors must be nonzero")
        *nums, den = _homogeneous(center + e1 + e2)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "e1", e1)
        object.__setattr__(self, "e2", e2)
        object.__setattr__(self, "_frame", (tuple(zip(nums[:dim], nums[dim:2 * dim], nums[2 * dim:])), den))

    @property
    def radius_sq(self) -> Fraction:
        return _dot(self.e1, self.e1)

    def _ints(self, t) -> tuple[int, ...]:
        # t = p/q: (C*(p**2 + q**2) + E1*(q**2 - p**2) + E2*2pq) / (L*(p**2 + q**2)).
        t = _coerce(t)
        p, q = t.numerator, t.denominator
        s = p * p + q * q
        c, sn = q * q - p * p, 2 * p * q
        rows, den = self._frame
        return (*[x * s + a * c + b * sn for x, a, b in rows], den * s)

    def point(self, t) -> tuple[Fraction, ...]:
        return _point(self._ints(t))

    def point_at_infinity(self) -> tuple[Fraction, ...]:
        return tuple(c - e for c, e in zip(self.center, self.e1))

    def to_json(self) -> dict:
        return {name: [rational_to_str(c) for c in getattr(self, name)] for name in ("center", "e1", "e2")}

    @classmethod
    def from_json(cls, obj) -> "_Circle":
        _json_object(obj, {"center", "e1", "e2"}, "a circle needs 'center', 'e1' and 'e2' vectors")
        return cls(*(
            _rationals_from_json(
                obj[name], cls.dim, f"circle vector {name!r} must be a {cls.dim}-element array of rational strings"
            )
            for name in ("center", "e1", "e2")
        ))


class Circle3(_Circle):
    """A circle in 3-space with a rational Weierstrass parametrization."""

    __slots__ = ()
    dim = 3


class CircleS3(_Circle):
    """A circle lying on the unit 3-sphere in 4-space.

    Beyond the orthogonal equal-length frame, the center must be orthogonal
    to both frame vectors and satisfy |center|**2 + radius**2 = 1, which is
    exactly the condition for every parametrized point to have norm 1.
    """

    __slots__ = ()
    dim = 4

    def __init__(self, center, e1, e2):
        super().__init__(center, e1, e2)
        if _dot(self.center, self.e1) or _dot(self.center, self.e2):
            raise InvalidInput("circle center must be orthogonal to the frame vectors")
        if _dot(self.center, self.center) + self.radius_sq != 1:
            raise InvalidInput("circle does not lie on the unit sphere")


# endregion

# region quadrics and cyclides

#: Matrix of the form x0**2 + x1**2 + x2**2 + x3**2 - h**2 cutting out the
#: unit sphere in homogeneous coordinates (x0, x1, x2, x3, h); x0 is the
#: projection-pole axis and h the homogenizer.
_S3_FORM: tuple[tuple[int, ...], ...] = (
    (1, 0, 0, 0, 0),
    (0, 1, 0, 0, 0),
    (0, 0, 1, 0, 0),
    (0, 0, 0, 1, 0),
    (0, 0, 0, 0, -1),
)


class Quadric4(_Value):
    """A symmetric quadratic form on homogeneous 4-space coordinates.

    Rows and columns follow (x0, x1, x2, x3, h) with x0 the pole axis.  A
    multiple of the unit-sphere form is rejected: it would cut out the whole
    sphere rather than a surface.
    """

    __slots__ = ("q",)

    def __init__(self, q):
        rows = tuple(_vec(row, 5) for row in q)
        if len(rows) != 5:
            raise InvalidInput("a quadric needs a 5x5 coefficient matrix")
        object.__setattr__(self, "q", rows)
        for i in range(5):
            for j in range(i):
                if rows[i][j] != rows[j][i]:
                    raise InvalidInput("the quadric matrix must be symmetric")
        if self._is_sphere_multiple():
            raise DegenerateFamily("quadric is a multiple of the unit-sphere form")

    def _is_sphere_multiple(self) -> bool:
        scale = self.q[0][0]
        return all(
            self.q[i][j] == scale * _S3_FORM[i][j] for i in range(5) for j in range(5)
        )

    def value(self, point4, h=1) -> Fraction:
        """Evaluate the form at an affine sphere point (h defaults to 1)."""
        vec = _vec(point4, 4) + (_coerce(h),)
        return sum(
            (self.q[i][j] * vec[i] * vec[j] for i in range(5) for j in range(5)),
            Fraction(0),
        )

    def to_json(self) -> dict:
        return {"q": [[rational_to_str(c) for c in row] for row in self.q]}

    @classmethod
    def from_json(cls, obj) -> "Quadric4":
        message = "a quadric needs a 'q' matrix of 5 rows of 5 rational strings"
        rows = _json_array(_json_object(obj, {"q"}, message)["q"], 5, message)
        return cls(tuple(_rationals_from_json(row, 5, message) for row in rows))


# Quartic polynomials in (x, y, z, w) as exponent-tuple -> coefficient maps.
Quartic = dict[tuple[int, int, int, int], Fraction]

# Homogeneous lift of 3-space into sphere coordinates: substituting it into a
# quadric turns the quadric-sphere intersection into a quartic in (x, y, z, w).
# Components follow the (x0, x1, x2, x3, h) order of Quadric4.
_LIFT: tuple[dict, ...] = (
    {(2, 0, 0, 0): 1, (0, 2, 0, 0): 1, (0, 0, 2, 0): 1, (0, 0, 0, 2): -1},
    {(1, 0, 0, 1): 2},
    {(0, 1, 0, 1): 2},
    {(0, 0, 1, 1): 2},
    {(2, 0, 0, 0): 1, (0, 2, 0, 0): 1, (0, 0, 2, 0): 1, (0, 0, 0, 2): 1},
)


def cyclide_implicit(quadric: Quadric4) -> Quartic:
    """The homogeneous quartic cutting out the projected quadric-sphere curve locus.

    Substitutes the lift (x**2+y**2+z**2-w**2, 2xw, 2yw, 2zw), homogenized by
    x**2+y**2+z**2+w**2, into the quadratic form.  In the affine chart w = 1
    the vanishing locus is exactly the stereographic image of the
    intersection of the quadric with the unit sphere.  The form is summed
    as ``sum_i L_i * (sum_j q_ij L_j)``: five quadric products.  Only
    sphere multiples pull back to zero, and :class:`Quadric4` rejects those.
    """
    acc: dict = {}
    for lift, row in zip(_LIFT, quadric.q):
        combo: dict = {}
        for c, other in zip(row, _LIFT):
            for key, value in other.items():
                combo[key] = combo.get(key, 0) + c * value
        for k1, c1 in lift.items():
            for k2, c2 in combo.items():
                key = tuple(a + b for a, b in zip(k1, k2))
                acc[key] = acc.get(key, 0) + c1 * c2
    return {key: c for key, c in acc.items() if c}


def quartic_value(quartic: Quartic, point3, w=1) -> Fraction:
    """Evaluate a quartic at an affine point (w defaults to 1)."""
    x, y, z = _vec(point3, 3)
    w = _coerce(w)
    total = Fraction(0)
    for (ex, ey, ez, ew), c in quartic.items():
        total += c * x**ex * y**ey * z**ez * w**ew
    return total


def quartic_to_json(quartic: Quartic) -> list[dict]:
    return [
        {"x": ex, "y": ey, "z": ez, "w": ew, "c": rational_to_str(c)}
        for (ex, ey, ez, ew), c in sorted(quartic.items())
    ]


# endregion

# region surface families


class SurfaceSpec(_Value):
    """A surface description: family tag plus the data that family needs.

    Families: ``"e"`` sums two circles in 3-space, ``"c"`` multiplies two
    circles on the unit sphere and projects, ``"d"`` is implicit, given by a
    quadric.  A field the family does not use must be None.
    """

    __slots__ = ("family", "alpha", "beta", "quadric")

    def __init__(
        self, family: str, alpha: _Circle | None = None, beta: _Circle | None = None, quadric: Quadric4 | None = None
    ):
        if family == "e":
            if not isinstance(alpha, Circle3) or not isinstance(beta, Circle3) or quadric is not None:
                raise InvalidInput("family e needs two circles in 3-space and no quadric")
        elif family == "c":
            if not isinstance(alpha, CircleS3) or not isinstance(beta, CircleS3) or quadric is not None:
                raise InvalidInput("family c needs two circles on the unit sphere and no quadric")
        elif family == "d":
            if not isinstance(quadric, Quadric4) or alpha is not None or beta is not None:
                raise InvalidInput("family d needs a quadric and no circles")
        else:
            raise InvalidInput(f"unknown family {family!r}")
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "quadric", quadric)

    @classmethod
    def family_e(cls, alpha: Circle3, beta: Circle3) -> "SurfaceSpec":
        return cls("e", alpha=alpha, beta=beta)

    @classmethod
    def family_c(cls, alpha: CircleS3, beta: CircleS3) -> "SurfaceSpec":
        return cls("c", alpha=alpha, beta=beta)

    @classmethod
    def family_d(cls, quadric: Quadric4) -> "SurfaceSpec":
        return cls("d", quadric=quadric)

    def to_json(self) -> dict:
        if self.family == "d":
            return {"family": "d", "quadric": self.quadric.to_json()}
        return {
            "family": self.family,
            "alpha": self.alpha.to_json(),
            "beta": self.beta.to_json(),
        }

    @classmethod
    def from_json(cls, obj) -> "SurfaceSpec":
        family = _json_object(obj, {"family"}, "a surface needs a 'family' tag")["family"]
        if family == "e":
            return cls.family_e(Circle3.from_json(obj.get("alpha")), Circle3.from_json(obj.get("beta")))
        if family == "c":
            return cls.family_c(CircleS3.from_json(obj.get("alpha")), CircleS3.from_json(obj.get("beta")))
        if family == "d":
            return cls.family_d(Quadric4.from_json(obj.get("quadric")))
        raise InvalidInput(f"unknown family {family!r}")


def eval_e(alpha: Circle3, beta: Circle3, u, v) -> Point3:
    """Translational surface point ``alpha(u) + beta(v)``; InvalidInput unless both circles are in 3-space."""
    SurfaceSpec.family_e(alpha, beta)
    return _point(_cell("e", alpha._ints(u), beta._ints(v)))


def eval_c(alpha: CircleS3, beta: CircleS3, u, v) -> Point4:
    """Sphere-product surface point ``alpha(u) * beta(v)`` (quaternion product).

    Both factors have norm 1 exactly, hence so does the product.  Raises
    InvalidInput unless both circles lie on the unit sphere.
    """
    SurfaceSpec.family_c(alpha, beta)
    return _point(_hamilton(alpha._ints(u), beta._ints(v)))


def stereo(x) -> Point3:
    """Stereographic projection (w, x, y, z) -> (x, y, z)/(1 - w) from the pole 1.

    Raises:
        PolePoint: at the pole, where the first coordinate equals 1.
        InvalidInput: if ``x`` is not a 4-vector.
    """
    w, p1, p2, p3 = _vec(x, 4)
    if w == 1:
        raise PolePoint("stereographic projection is undefined at the pole")
    d = 1 - w
    return (p1 / d, p2 / d, p3 / d)


def stereo_inv(p) -> Point4:
    """Inverse stereographic projection onto the unit sphere (never the pole)."""
    x, y, z = _vec(p, 3)
    n = x * x + y * y + z * z
    d = n + 1
    return ((n - 1) / d, 2 * x / d, 2 * y / d, 2 * z / d)


def grid_params(n: int) -> list[Fraction]:
    """n tan-half-angle samples in steps of 1, centered on 0, for an int ``n`` of at least 1."""
    if _count(n, "the number of samples") < 1:
        raise InvalidInput("need at least one sample")
    return [Fraction(2 * k - (n - 1), 2) for k in range(n)]


def _cell(family: str, a, b) -> tuple[int, int, int, int] | None:
    """The surface point made of circle points ``a`` (on alpha) and ``b`` (on beta), as a cell.

    Both come as integer tuples ``(n_1, ..., n_dim, d)``, as ``_Circle._ints``
    gives them.  A cell is the unreduced tuple ``(n_1, n_2, n_3, d)``,
    ``d > 0``, of a point in 3-space, or None at the projection pole.
    Family e adds the circle points; family c multiplies them as
    quaternions, (W, X, Y, Z)/D with D = da*db, and projects to
    (X, Y, Z)/(D - W).  The product has norm 1, so W <= D, with equality
    only at the pole.
    """
    if family == "e":
        a0, a1, a2, da = a
        b0, b1, b2, db = b
        return (a0 * db + b0 * da, a1 * db + b1 * da, a2 * db + b2 * da, da * db)
    w, x, y, z, d = _hamilton(a, b)
    gap = d - w
    return (x, y, z, gap) if gap else None


def coordinate_curve(spec: SurfaceSpec, which: str, fixed, samples, *, mask_poles: bool = False):
    """Sample the curve with one parameter held constant.

    ``which`` names the frozen parameter: ``"u"`` freezes u at ``fixed`` and
    lets v run over ``samples``, and symmetrically for ``"v"``.  For family c
    the points are projected to 3-space; a sample hitting the projection pole
    raises :class:`PolePoint` unless ``mask_poles`` is set, in which case it
    is dropped.  Implicit surfaces carry no parametrization, so family d is
    rejected.  The frozen circle is evaluated once, so n samples cost n + 1
    circle points.

    Returns:
        A list of points in 3-space.
    """
    if which not in ("u", "v"):
        raise InvalidInput("'which' must be 'u' or 'v'")
    if spec.family == "d":
        raise UnsupportedFamily("implicit surfaces have no parametric coordinate curves")
    frozen, moving = (spec.alpha, spec.beta) if which == "u" else (spec.beta, spec.alpha)
    held = frozen._ints(fixed)
    out = []
    for t in samples:
        free = moving._ints(t)
        cell = _cell(spec.family, held, free) if which == "u" else _cell(spec.family, free, held)
        if cell is not None:
            # Inline rather than through _point: this loop is the hot path of circle checks.
            x, y, z, d = cell
            out.append((Fraction(x, d), Fraction(y, d), Fraction(z, d)))
        elif not mask_poles:
            raise PolePoint("stereographic projection is undefined at the pole")
    return out


def sample_grid(spec: SurfaceSpec, n: int):
    """Evaluate the surface on an n-by-n rational parameter grid.

    Returns a row-major nested list indexed by (u-sample, v-sample); for
    family c a cell is ``None`` when the product hits the projection pole.
    Family d has no parametrization and is rejected.  Each circle is
    evaluated once per parameter, so the grid costs 2n circle points.
    """
    return [[None if cell is None else _point(cell) for cell in row] for row in _cell_grid(spec, n)]


def _cell_grid(spec: SurfaceSpec, n: int) -> list:
    """:func:`sample_grid` as cells (see :func:`_cell`), which the exports render without building a ``Fraction``."""
    if spec.family == "d":
        raise UnsupportedFamily(
            "implicit surfaces cannot be sampled on a parameter grid; "
            "export the quartic instead"
        )
    if _count(n, "the grid size") < 2:
        raise InvalidInput("need at least a 2x2 grid")
    ts = grid_params(n)
    alphas = [spec.alpha._ints(t) for t in ts]
    betas = [spec.beta._ints(t) for t in ts]
    return [[_cell(spec.family, a, b) for b in betas] for a in alphas]


# endregion

# region circle recognition


def _cross(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def is_circle_or_line(points) -> bool:
    """Whether all points lie on one circle or one straight line.

    Exact and linear in the number of points, on integers: each point is
    read once, in one step that validates it and puts it over its least
    common denominator (:func:`_cell3`), and no ``Fraction`` is built after
    that.  The first two points and the first point not collinear with them
    span a plane with normal ``n`` and have a circumcenter ``c``.  With
    ``p - p0 = r/s`` and ``c - p0 = W/M``, a point passes when
    ``r . n == 0`` and ``M |r|**2 == 2 s (r . W)``, which is
    ``|p - c|**2 == |p0 - c|**2``; the answer is True only when every point
    passes.  When no such third point exists the points are collinear and
    the answer is True.

    Raises:
        TooFewPoints: unless there are at least five points, no two equal.
        InvalidInput: if a point is not a 3-vector.
        TypeError: for a coordinate that is not an int or Fraction, raised
            before a wrong length is reported, or for a point that is not
            iterable.
    """
    pts = list(map(_cell3, points))
    if len(pts) < 5 or len(set(pts)) != len(pts):
        raise TooFewPoints("need at least five points, no two equal")
    x0, y0, z0, d0 = pts[0]
    rel = [((x * d0 - x0 * d, y * d0 - y0 * d, z * d0 - z0 * d), d0 * d) for x, y, z, d in pts]
    a, sa = rel[1]
    for b, sb in rel[2:]:
        n = _cross(a, b)
        if any(n):
            break
    else:
        return True
    # Circumcenter of p0, p0 + a/sa, p0 + b/sb, relative to p0:
    # c - p0 = (|a|**2 sb (b x n) + |b|**2 sa (n x a)) / (2 |n|**2 sa sb).
    ka, kb = _dot(a, a) * sb, _dot(b, b) * sa
    wx, wy, wz = (ka * u + kb * v for u, v in zip(_cross(b, n), _cross(n, a)))
    m = 2 * _dot(n, n) * sa * sb
    nx, ny, nz = n
    for (rx, ry, rz), s in rel:
        if rx * nx + ry * ny + rz * nz or (
            m * (rx * rx + ry * ry + rz * rz) != 2 * s * (rx * wx + ry * wy + rz * wz)
        ):
            return False
    return True


# endregion

# region exports


def _decimal(digits: int):
    """The renderer of ``n/d``, ``d > 0``, as a fixed-point decimal of ``digits`` digits.

    Rounds half to even, exact in the integers.  ``divmod(n * 10**digits, d)``
    gives the same digits whether or not ``n/d`` is in lowest terms, so a
    cell renders unreduced.  ``digits`` is checked once per renderer.

    Raises:
        InvalidInput: if ``digits`` is negative or more than the interpreter
            prints, and from the renderer, for a result that it cannot print.
        TypeError: if ``digits`` is not an int or is a bool.
    """
    if _count(digits, "the number of decimal digits") < 0:
        raise InvalidInput("the number of decimal digits must be nonnegative")
    limit = sys.get_int_max_str_digits()
    if limit and digits > limit:
        raise InvalidInput("a decimal has too many digits to print")
    scale = 10**digits

    def render(n: int, d: int) -> str:
        scaled, rest = divmod(n * scale, d)
        if 2 * rest > d or (2 * rest == d and scaled % 2):
            scaled += 1
        sign = "-" if scaled < 0 else ""
        ip, fp = divmod(abs(scaled), scale)
        try:
            return f"{sign}{ip}.{str(fp).zfill(digits)}" if digits else f"{sign}{ip}"
        except ValueError:
            raise InvalidInput("a decimal has too many digits to print") from None

    return render


def render_decimal(value: Fraction, digits: int = 12) -> str:
    """Fixed-point decimal rendering, round half to even, exact in the integers.

    Raises:
        InvalidInput: if ``digits`` is negative, or if the result has more
            digits than the interpreter prints.
        TypeError: if ``digits`` is not an int or is a bool, or ``value`` not an int or Fraction.
    """
    return _decimal(digits)(*_ratio_of(value))


def _cells(grid):
    """The rows of a grid of rational 3-vectors, or None, as cells (see :func:`_cell3`), each row converted when it is read."""
    return ([None if p is None else _cell3(p) for p in row] for row in grid)


def _grid_csv(cells, digits: int) -> str:
    """One decimal point per row as ``x,y,z``; masked cells are omitted."""
    render = _decimal(digits)
    lines = []
    for row in cells:
        for cell in row:
            if cell is not None:
                *nums, d = cell
                lines.append(",".join([render(n, d) for n in nums]))
    return "\n".join(lines) + "\n"


def _grid_obj(cells, digits: int) -> str:
    """Wavefront OBJ mesh: grid vertices plus quad faces between valid neighbors."""
    render = _decimal(digits)
    lines = []
    index: dict[tuple[int, int], int] = {}
    for i, row in enumerate(cells):
        for j, cell in enumerate(row):
            if cell is not None:
                index[i, j] = len(index) + 1
                *nums, d = cell
                lines.append("v " + " ".join([render(n, d) for n in nums]))
    # Row-major, as the vertices: a face at each vertex with its three lower-right neighbors.
    get = index.get
    for (i, j), k in index.items():
        corners = (get((i + 1, j)), get((i + 1, j + 1)), get((i, j + 1)))
        if None not in corners:
            lines.append(f"f {k} {corners[0]} {corners[1]} {corners[2]}")
    return "\n".join(lines) + "\n"


def _grid_json(cells) -> list:
    """The cells as JSON: each coordinate a ``"p/q"`` string in lowest terms, None at a pole."""
    return [[None if cell is None else _quat_json(cell) for cell in row] for row in cells]


def export_csv(grid, digits: int = 12) -> str:
    """One decimal point per row as ``x,y,z``; masked cells are omitted.

    Raises:
        InvalidInput: if ``digits`` is out of range, checked before any
            cell, or if a cell is not a 3-vector.
        TypeError: if ``digits`` is not an int or is a bool, or for a coordinate that is not an int or Fraction.
    """
    return _grid_csv(_cells(grid), digits)


def export_obj(grid, digits: int = 12) -> str:
    """Wavefront OBJ mesh: grid vertices plus quad faces between valid neighbors.

    Raises:
        InvalidInput: if ``digits`` is out of range, checked before any
            cell, or if a cell is not a 3-vector.
        TypeError: if ``digits`` is not an int or is a bool, or for a coordinate that is not an int or Fraction.
    """
    return _grid_obj(_cells(grid), digits)


# endregion

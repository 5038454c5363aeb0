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
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import ClassVar

from .errors import (
    DegenerateFamily,
    InvalidInput,
    PolePoint,
    TooFewPoints,
    UnsupportedFamily,
)
from .quat import _coerce, _json_array, _json_object, _product, _rationals_from_json, rational_to_str

Point3 = tuple[Fraction, Fraction, Fraction]
Point4 = tuple[Fraction, Fraction, Fraction, Fraction]


def _vec(values, size: int) -> tuple[Fraction, ...]:
    out = tuple(_coerce(c) for c in values)
    if len(out) != size:
        raise InvalidInput(f"expected a {size}-vector")
    return out


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _homogeneous(point) -> tuple[int, ...]:
    """Rational coordinates as ``(n_1, ..., n_dim, d)``: numerators over their least common denominator."""
    d = lcm(*(c.denominator for c in point))
    return (*(c.numerator * (d // c.denominator) for c in point), d)


# region circles


@dataclass(frozen=True)
class _Circle:
    """A circle in ``dim``-space with a rational Weierstrass parametrization.

    The frame vectors must be orthogonal and of equal positive length; that
    length is the radius.  The parametrization covers the whole circle except
    the single point at t = infinity, reachable as ``point_at_infinity()``.
    The frame is also kept on integers, ``(C, E1, E2)`` per coordinate over
    one common denominator ``L``.  ``_ints`` gives a point from it as the
    unreduced tuple ``(n_1, ..., n_dim, d)``, ``d > 0``, a quaternion tuple
    in 4-space; ``point`` is its ``Fraction`` view.
    """

    center: tuple[Fraction, ...]
    e1: tuple[Fraction, ...]
    e2: tuple[Fraction, ...]
    _frame: tuple = field(init=False, repr=False, compare=False)

    dim: ClassVar[int]

    def __post_init__(self):
        for name in ("center", "e1", "e2"):
            object.__setattr__(self, name, _vec(getattr(self, name), self.dim))
        if _dot(self.e1, self.e2):
            raise InvalidInput("frame vectors must be orthogonal")
        n1 = _dot(self.e1, self.e1)
        if n1 != _dot(self.e2, self.e2):
            raise InvalidInput("frame vectors must have equal length")
        if not n1:
            raise InvalidInput("frame vectors must be nonzero")
        *nums, den = _homogeneous(self.center + self.e1 + self.e2)
        dim = self.dim
        rows = tuple(zip(nums[:dim], nums[dim:2 * dim], nums[2 * dim:]))
        object.__setattr__(self, "_frame", (rows, den))

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
        return (*(x * s + a * c + b * sn for x, a, b in rows), den * s)

    def point(self, t) -> tuple[Fraction, ...]:
        *nums, d = self._ints(t)
        return tuple(Fraction(n, d) for n in nums)

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

    dim = 3


class CircleS3(_Circle):
    """A circle lying on the unit 3-sphere in 4-space.

    Beyond the orthogonal equal-length frame, the center must be orthogonal
    to both frame vectors and satisfy |center|**2 + radius**2 = 1, which is
    exactly the condition for every parametrized point to have norm 1.
    """

    dim = 4

    def __post_init__(self):
        super().__post_init__()
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


@dataclass(frozen=True)
class Quadric4:
    """A symmetric quadratic form on homogeneous 4-space coordinates.

    Rows and columns follow (x0, x1, x2, x3, h) with x0 the pole axis.  A
    multiple of the unit-sphere form is rejected: it would cut out the whole
    sphere rather than a surface.
    """

    q: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        rows = tuple(_vec(row, 5) for row in self.q)
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
    as ``sum_i L_i * (sum_j q_ij L_j)``: five quadric products.

    Raises:
        DegenerateFamily: if the quartic collapses to zero.
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
    quartic = {key: c for key, c in acc.items() if c}
    if not quartic:
        raise DegenerateFamily("the quadric pulls back to the zero quartic")
    return quartic


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


@dataclass(frozen=True)
class SurfaceSpec:
    """A surface description: family tag plus the data that family needs.

    Families: ``"e"`` sums two circles in 3-space, ``"c"`` multiplies two
    circles on the unit sphere and projects, ``"d"`` is implicit, given by a
    quadric.
    """

    family: str
    alpha: Circle3 | CircleS3 | None = None
    beta: Circle3 | CircleS3 | None = None
    quadric: Quadric4 | None = None

    def __post_init__(self):
        if self.family == "e":
            if not isinstance(self.alpha, Circle3) or not isinstance(self.beta, Circle3):
                raise InvalidInput("family e needs two circles in 3-space")
        elif self.family == "c":
            if not isinstance(self.alpha, CircleS3) or not isinstance(self.beta, CircleS3):
                raise InvalidInput("family c needs two circles on the unit sphere")
        elif self.family == "d":
            if not isinstance(self.quadric, Quadric4):
                raise InvalidInput("family d needs a quadric")
        else:
            raise InvalidInput(f"unknown family {self.family!r}")

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
    return _combine("e", alpha._ints(u), beta._ints(v))


def eval_c(alpha: CircleS3, beta: CircleS3, u, v) -> Point4:
    """Sphere-product surface point ``alpha(u) * beta(v)`` (quaternion product).

    Both factors have norm 1 exactly, hence so does the product.  Raises
    InvalidInput unless both circles lie on the unit sphere.
    """
    SurfaceSpec.family_c(alpha, beta)
    *nums, d = _product(alpha._ints(u), beta._ints(v))
    return tuple(Fraction(n, d) for n in nums)


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
    """n tan-half-angle samples in steps of 1, centered on 0."""
    if n < 1:
        raise InvalidInput("need at least one sample")
    return [Fraction(2 * k - (n - 1), 2) for k in range(n)]


def _combine(family: str, a, b) -> Point3 | None:
    """The surface point made of circle points ``a`` (on alpha) and ``b`` (on beta).

    Both come as integer tuples ``(n_1, ..., n_dim, d)``, as ``_Circle._ints``
    gives them.  Family e adds them; family c multiplies them as quaternions,
    (W, X, Y, Z)/D with D = da*db, and projects to (X, Y, Z)/(D - W), which
    is None at the pole W == D.
    """
    if family == "e":
        a0, a1, a2, da = a
        b0, b1, b2, db = b
        d = da * db
        return (
            Fraction(a0 * db + b0 * da, d),
            Fraction(a1 * db + b1 * da, d),
            Fraction(a2 * db + b2 * da, d),
        )
    a0, a1, a2, a3, da = a
    b0, b1, b2, b3, db = b
    gap = da * db - (a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3)
    if not gap:
        return None
    return (
        Fraction(a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2, gap),
        Fraction(a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1, gap),
        Fraction(a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0, gap),
    )


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
        cell = _combine(spec.family, held, free) if which == "u" else _combine(spec.family, free, held)
        if cell is not None:
            out.append(cell)
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
    if spec.family == "d":
        raise UnsupportedFamily(
            "implicit surfaces cannot be sampled on a parameter grid; "
            "export the quartic instead"
        )
    if n < 2:
        raise InvalidInput("need at least a 2x2 grid")
    ts = grid_params(n)
    alphas = [spec.alpha._ints(t) for t in ts]
    betas = [spec.beta._ints(t) for t in ts]
    return [[_combine(spec.family, a, b) for b in betas] for a in alphas]


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
    validated once and put over its least common denominator, and no
    ``Fraction`` is built after that.  The first two points and the first
    point not collinear with them span a plane with normal ``n`` and have a
    circumcenter ``c``.  With ``p - p0 = r/s`` and ``c - p0 = W/M``, a point
    passes when ``r . n == 0`` and ``M |r|**2 == 2 s (r . W)``, which is
    ``|p - c|**2 == |p0 - c|**2``; the answer is True only when every point
    passes.  When no such third point exists the points are collinear and
    the answer is True.

    Raises:
        TooFewPoints: with fewer than five pairwise distinct points.
        InvalidInput: if a point is not a 3-vector.
    """
    pts = [_homogeneous(_vec(p, 3)) for p in points]
    if len(pts) < 5 or len(set(pts)) != len(pts):
        raise TooFewPoints("need at least five pairwise distinct points")
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


def render_decimal(value: Fraction, digits: int = 12) -> str:
    """Fixed-point decimal rendering, round half to even, exact in the integers.

    Raises:
        InvalidInput: if ``digits`` is negative, or if the result has more
            digits than the interpreter prints.
        TypeError: if ``value`` is not an int or Fraction.
    """
    if digits < 0:
        raise InvalidInput("the number of decimal digits must be nonnegative")
    limit = sys.get_int_max_str_digits()
    if limit and digits > limit:
        raise InvalidInput("a decimal has too many digits to print")
    value = _coerce(value)
    scale = 10**digits
    scaled, rest = divmod(value.numerator * scale, value.denominator)
    if 2 * rest > value.denominator or (2 * rest == value.denominator and scaled % 2):
        scaled += 1
    sign = "-" if scaled < 0 else ""
    ip, fp = divmod(abs(scaled), scale)
    try:
        return f"{sign}{ip}.{str(fp).zfill(digits)}" if digits else f"{sign}{ip}"
    except ValueError:
        raise InvalidInput("a decimal has too many digits to print") from None


def export_csv(grid, digits: int = 12) -> str:
    """One decimal point per row as ``x,y,z``; masked cells are omitted."""
    lines = []
    for row in grid:
        for cell in row:
            if cell is None:
                continue
            lines.append(",".join(render_decimal(c, digits) for c in cell))
    return "\n".join(lines) + "\n"


def export_obj(grid, digits: int = 12) -> str:
    """Wavefront OBJ mesh: grid vertices plus quad faces between valid neighbors."""
    lines = []
    index: dict[tuple[int, int], int] = {}
    count = 0
    for i, row in enumerate(grid):
        for j, cell in enumerate(row):
            if cell is None:
                continue
            count += 1
            index[(i, j)] = count
            lines.append("v " + " ".join(render_decimal(c, digits) for c in cell))
    for i in range(len(grid) - 1):
        for j in range(len(grid[i]) - 1):
            corners = [(i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1)]
            if all(c in index for c in corners):
                lines.append("f " + " ".join(str(index[c]) for c in corners))
    return "\n".join(lines) + "\n"


# endregion

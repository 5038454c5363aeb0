"""Seeded generators and small exact-arithmetic utilities shared by the tests.

Everything here is deterministic given a ``random.Random`` instance, so test
runs are reproducible without hypothesis involvement.  The rotation helpers
produce exact rational isometries (quaternion conjugation in 3-space, two-
sided unit multiplication in 4-space), which is what lets the circle
generators emit frames that satisfy their orthogonality invariants on the
nose.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

from quatsurf import (
    Circle3,
    CircleS3,
    InvalidInput,
    Mat2,
    NoProgress,
    NotDegenerate,
    PolePoint,
    PreconditionDegree,
    QPolyU,
    QPolyUV,
    Quaternion,
    RPolyUV,
    SplitCertificate,
    TooFewPoints,
    UnsupportedFamily,
    Vec2,
    col_op,
    conj_transpose,
    grid_params,
    is_degenerate,
    kron,
    left_div_rem,
    rational_to_str,
    stereo_inv,
    swap_cols,
    swap_rows,
    v_slices,
)
from quatsurf.quat import _coerce
from quatsurf.surfaces import _LIFT

# region random exact values


def rand_fraction(rng: random.Random, max_num: int = 10, max_den: int = 6) -> Fraction:
    return Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den))


def rand_quat(rng: random.Random, max_num: int = 10, max_den: int = 6) -> Quaternion:
    return Quaternion(*(rand_fraction(rng, max_num, max_den) for _ in range(4)))


def rand_nonzero_quat(rng: random.Random, **kw) -> Quaternion:
    while True:
        q = rand_quat(rng, **kw)
        if not q.is_zero:
            return q


def rand_qpolyu(rng: random.Random, max_deg: int = 3, **kw) -> QPolyU:
    return QPolyU([rand_quat(rng, **kw) for _ in range(rng.randint(0, max_deg) + 1)])


def rand_nonzero_qpolyu(rng: random.Random, max_deg: int = 3, **kw) -> QPolyU:
    while True:
        p = rand_qpolyu(rng, max_deg, **kw)
        if not p.is_zero:
            return p


def rand_qpolyuv(
    rng: random.Random, max_du: int = 2, max_dv: int = 1, density: float = 0.6, **kw
) -> QPolyUV:
    acc = QPolyUV.zero()
    for du in range(max_du + 1):
        for dv in range(max_dv + 1):
            if rng.random() < density:
                acc = acc + QPolyUV.monomial(rand_quat(rng, **kw), du, dv)
    return acc


def rand_nonzero_qpolyuv(rng: random.Random, max_du: int = 2, max_dv: int = 1, **kw) -> QPolyUV:
    while True:
        p = rand_qpolyuv(rng, max_du, max_dv, **kw)
        if not p.is_zero:
            return p


def rand_rpolyuv(
    rng: random.Random, max_du: int = 2, max_dv: int = 2, density: float = 0.6, **kw
) -> RPolyUV:
    acc = RPolyUV.zero()
    for du in range(max_du + 1):
        for dv in range(max_dv + 1):
            if rng.random() < density:
                acc = acc + RPolyUV.monomial(rand_fraction(rng, **kw), du, dv)
    return acc


def rand_vec2(rng: random.Random, max_du: int = 2, max_dv: int = 1, **kw) -> Vec2:
    return Vec2(rand_qpolyuv(rng, max_du, max_dv, **kw), rand_qpolyuv(rng, max_du, max_dv, **kw))


# endregion

# region exact isometries and circles


def rand_unit_quat(rng: random.Random) -> Quaternion:
    """A unit quaternion with rational components, never the pole 1 itself."""
    return Quaternion(*stereo_inv(tuple(rand_fraction(rng, 5, 4) for _ in range(3))))


def rotate3(q: Quaternion, v) -> tuple[Fraction, Fraction, Fraction]:
    """Rotate a 3-vector by conjugation with a unit quaternion, exactly."""
    image = q * Quaternion(0, *v) * q.conj()
    return image.components()[1:]


def rotate4(p: Quaternion, q: Quaternion, x) -> tuple[Fraction, ...]:
    """Rotate a 4-vector by two-sided unit multiplication, exactly."""
    return (p * Quaternion(*x) * q).components()


def rand_circle3(rng: random.Random) -> Circle3:
    q = rand_unit_quat(rng)
    radius = abs(rand_fraction(rng, 4, 3)) + 1
    center = tuple(rand_fraction(rng) for _ in range(3))
    return Circle3(center, rotate3(q, (radius, 0, 0)), rotate3(q, (0, radius, 0)))


def rand_circle_s3(rng: random.Random) -> CircleS3:
    while True:
        s = rand_fraction(rng, 5, 4)
        if s:
            break
    c = (1 - s * s) / (1 + s * s)
    r = 2 * s / (1 + s * s)
    p, q = rand_unit_quat(rng), rand_unit_quat(rng)
    return CircleS3(
        rotate4(p, q, (c, 0, 0, 0)),
        rotate4(p, q, (0, r, 0, 0)),
        rotate4(p, q, (0, 0, r, 0)),
    )


# endregion

# region the field Q(sqrt 3), for circles with irrational frames


class Q3:
    """Exact numbers a + b*sqrt(3) under +, -, *."""

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        self.a = Fraction(a)
        self.b = Fraction(b)

    def __add__(self, other):
        other = _as_q3(other)
        return Q3(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __neg__(self):
        return Q3(-self.a, -self.b)

    def __sub__(self, other):
        return self.__add__(-_as_q3(other))

    def __mul__(self, other):
        other = _as_q3(other)
        return Q3(self.a * other.a + 3 * self.b * other.b, self.a * other.b + self.b * other.a)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        other = _as_q3(other)
        return self.a == other.a and self.b == other.b

    def __bool__(self) -> bool:
        return bool(self.a) or bool(self.b)

    def __hash__(self) -> int:
        return hash((self.a, self.b))

    def __repr__(self) -> str:
        return f"Q3({self.a}, {self.b})"


def _as_q3(value) -> Q3:
    return value if isinstance(value, Q3) else Q3(value)


def q3poly(*coeffs) -> dict[int, Q3]:
    """Polynomial in one variable over Q3, coefficients low degree first."""
    out = {}
    for power, c in enumerate(coeffs):
        c = _as_q3(c)
        if c:
            out[power] = c
    return out


def q3poly_add(p: dict[int, Q3], q: dict[int, Q3]) -> dict[int, Q3]:
    out = dict(p)
    for power, c in q.items():
        s = out.get(power, Q3()) + c
        if s:
            out[power] = s
        else:
            out.pop(power, None)
    return out


def q3poly_mul(p: dict[int, Q3], q: dict[int, Q3]) -> dict[int, Q3]:
    out: dict[int, Q3] = {}
    for i, a in p.items():
        for j, b in q.items():
            s = out.get(i + j, Q3()) + a * b
            if s:
                out[i + j] = s
            else:
                out.pop(i + j, None)
    return out


def q3poly_pow(p: dict[int, Q3], n: int) -> dict[int, Q3]:
    out = q3poly(1)
    for _ in range(n):
        out = q3poly_mul(out, p)
    return out


# endregion


# region reference circle test by exhaustive determinants


def det(rows) -> Fraction:
    """Determinant by Gaussian elimination over the rationals."""
    a = [[Fraction(c) for c in row] for row in rows]
    n = len(a)
    sign = 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            for j in range(k, n):
                a[i][j] -= f * a[k][j]
    out = Fraction(sign)
    for k in range(n):
        out *= a[k][k]
    return out


def _plane_normal(quad):
    """Normal of the plane of some non-collinear triple of ``quad``, or None."""
    for p, q, r in combinations(quad, 3):
        a = [x - y for x, y in zip(q, p)]
        b = [x - y for x, y in zip(r, p)]
        n = (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])
        if any(n):
            return n
    return None


def reference_circle_or_line(points) -> bool:
    """Exhaustive determinant test for at most ten distinct 3-space points.

    Every 4-subset must be coplanar (4x4 affine determinant).  Each 4-subset
    with a non-collinear triple is then joined by one point off its plane,
    the first point plus the normal; the five points share a sphere, and so
    the four share a circle, exactly when the lifted 5x5 determinant
    vanishes.  Collinear sets pass.
    """
    pts = [tuple(Fraction(c) for c in p) for p in points]
    assert len(pts) <= 10 and len(set(pts)) == len(pts)
    for quad in combinations(pts, 4):
        if det([[*p, 1] for p in quad]):
            return False
    for quad in combinations(pts, 4):
        n = _plane_normal(quad)
        if n is None:
            continue
        off = tuple(x + y for x, y in zip(quad[0], n))
        if det([[sum(c * c for c in p), *p, 1] for p in (*quad, off)]):
            return False
    return True


# endregion

# region reference degeneracy test by the complex embedding

# Complex polynomials below are dicts from packed exponents du*base + dv to
# (re, im) integer pairs.  A 3x3 minor multiplies three entries, so its
# v-degrees stay below base = 3*max_dv + 1 and packed keys never carry into
# the u-part.


def _cleared_int_coeffs(
    poly: QPolyUV, scale: int, base: int
) -> list[tuple[int, int, int, int, int]]:
    out = []
    for (du, dv), q in poly.terms.items():
        key = du * base + dv
        w, x, y, z = q.components()
        out.append(
            (
                key,
                w.numerator * (scale // w.denominator),
                x.numerator * (scale // x.denominator),
                y.numerator * (scale // y.denominator),
                z.numerator * (scale // z.denominator),
            )
        )
    return out


def _embed(m: Mat2) -> list[list[dict[int, tuple[int, int]]]]:
    """4x4 complex-polynomial matrix of the embedding, with integer coefficients.

    Each quaternionic row is scaled by the lcm of its coefficient
    denominators; row scaling by a positive central integer cannot change
    whether minors vanish.
    """
    grid: list[list[dict[int, tuple[int, int]]]] = [[{} for _ in range(4)] for _ in range(4)]
    base = 3 * max((dv for poly in m.entries() for _, dv in poly.terms), default=0) + 1
    rows = ((m.m11, m.m12), (m.m21, m.m22))
    for i, row in enumerate(rows):
        scale = 1
        for poly in row:
            for q in poly.terms.values():
                scale = lcm(
                    scale,
                    q.w.denominator,
                    q.x.denominator,
                    q.y.denominator,
                    q.z.denominator,
                )
        for j, poly in enumerate(row):
            alpha: dict[int, tuple[int, int]] = {}
            beta: dict[int, tuple[int, int]] = {}
            alpha_c: dict[int, tuple[int, int]] = {}
            beta_nc: dict[int, tuple[int, int]] = {}
            for key, w, x, y, z in _cleared_int_coeffs(poly, scale, base):
                if w or x:
                    alpha[key] = (w, x)
                    alpha_c[key] = (w, -x)
                if y or z:
                    beta[key] = (y, z)
                    beta_nc[key] = (-y, z)
            grid[2 * i][2 * j] = alpha
            grid[2 * i][2 * j + 1] = beta
            grid[2 * i + 1][2 * j] = beta_nc
            grid[2 * i + 1][2 * j + 1] = alpha_c
    return grid


def _cp_mul(p: dict[int, tuple[int, int]], q: dict[int, tuple[int, int]]) -> dict:
    out: dict[int, tuple[int, int]] = {}
    get = out.get
    for k1, (r1, i1) in p.items():
        for k2, (r2, i2) in q.items():
            k = k1 + k2
            cur = get(k)
            if cur is None:
                out[k] = (r1 * r2 - i1 * i2, r1 * i2 + i1 * r2)
            else:
                out[k] = (cur[0] + r1 * r2 - i1 * i2, cur[1] + r1 * i2 + i1 * r2)
    return out


def _cp_sub(p: dict, q: dict) -> dict:
    out = dict(p)
    for k, (r, i) in q.items():
        cur = out.get(k)
        if cur is None:
            out[k] = (-r, -i)
        else:
            out[k] = (cur[0] - r, cur[1] - i)
    return out


def _cp_add(p: dict, q: dict) -> dict:
    out = dict(p)
    for k, (r, i) in q.items():
        cur = out.get(k)
        if cur is None:
            out[k] = (r, i)
        else:
            out[k] = (cur[0] + r, cur[1] + i)
    return out


def _cp_is_zero(p: dict) -> bool:
    return all(r == 0 and i == 0 for r, i in p.values())


_TRIPLES = ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))


def reference_is_degenerate(m: Mat2) -> bool:
    """Degeneracy by the classical complex embedding, as an independent oracle.

    Each quaternion a + b*i + c*j + d*k becomes the complex block
    [[a + b*i, c + d*i], [-c + d*i, a - b*i]], coefficientwise, so the 2x2
    quaternionic matrix becomes a 4x4 complex-polynomial matrix of twice its
    rank.  The matrix is degenerate iff all sixteen 3x3 minors vanish.
    """
    grid = _embed(m)
    det2: dict[tuple[int, int, int, int], dict] = {}

    def minor2(r: int, s: int, a: int, b: int) -> dict:
        key = (r, s, a, b)
        cached = det2.get(key)
        if cached is None:
            cached = det2[key] = _cp_sub(
                _cp_mul(grid[r][a], grid[s][b]), _cp_mul(grid[r][b], grid[s][a])
            )
        return cached

    for i, j, k in _TRIPLES:
        for a, b, c in _TRIPLES:
            acc = _cp_sub(
                _cp_mul(grid[i][a], minor2(j, k, b, c)),
                _cp_mul(grid[i][b], minor2(j, k, a, c)),
            )
            acc = _cp_add(acc, _cp_mul(grid[i][c], minor2(j, k, a, b)))
            if not _cp_is_zero(acc):
                return False
    return True


def reference_origin_full_rank(m: Mat2) -> bool:
    """Whether the constant terms of ``m`` form a full-rank matrix, by the complex embedding.

    The test ``split`` ran before the extreme-term check: a rank-one matrix
    stays degenerate at ``(u, v) = (0, 0)``, so this proves full rank.
    """
    entries = []
    for e in m.entries():
        c = e._ints.get((0, 0))
        entries.append(QPolyUV._raw({} if c is None else {(0, 0): c}))
    return not reference_is_degenerate(Mat2(*entries))


# endregion


# region reference arithmetic on coefficient values

# The Fraction-object arithmetic that quatsurf.qpoly ran before its integer
# core, kept as oracles.  Polynomials here are plain maps from exponent pairs
# to nonzero Quaternion or Fraction values, the shape of ``.terms``.


def assert_canonical(poly) -> None:
    """Every stored tuple has a positive denominator, gcd 1 and a nonzero numerator."""
    for c in poly._ints.values():
        assert c[-1] > 0 and gcd(*c) == 1 and any(c[:-1])


def reference_add(p: dict, q: dict) -> dict:
    """``p + q`` by adding coefficient values, dropping the sums that vanish."""
    out = dict(p)
    for key, c in q.items():
        prev = out.get(key)
        s = c if prev is None else prev + c
        if s:
            out[key] = s
        else:
            out.pop(key, None)
    return out


def reference_neg(p: dict) -> dict:
    return {key: -c for key, c in p.items()}


def reference_conj(p: dict) -> dict:
    return {key: c.conj() for key, c in p.items()}


def reference_mul(p: dict, q: dict) -> dict:
    """``p * q`` by a loop over coefficient value products, ``p`` on the left."""
    out: dict = {}
    for (a1, b1), x in p.items():
        for (a2, b2), y in q.items():
            key = (a1 + a2, b1 + b2)
            prev = out.get(key)
            s = x * y if prev is None else prev + x * y
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return out


def reference_qpolyuv_mul(p: QPolyUV, q: QPolyUV) -> QPolyUV:
    """``p * q`` by a loop over Quaternion coefficient products, as an oracle."""
    return QPolyUV(reference_mul(p.terms, q.terms))


def reference_div_rem(a: dict, b: dict, left: bool) -> tuple[dict, dict]:
    """Two-sided division of u-polynomials (keys ``(du, 0)``) on dense Quaternion lists.

    ``left`` gives ``a = b*q + r``, otherwise ``a = q*b + r``; ``deg r < deg b``.
    """
    bc = [b.get((i, 0), Quaternion.zero()) for i in range(max(b)[0] + 1)]
    rc = [a.get((i, 0), Quaternion.zero()) for i in range(max(a, default=(-1, 0))[0] + 1)]
    db = len(bc) - 1
    lead_inv = bc[-1].inverse()
    qc: dict = {}
    while len(rc) - 1 >= db:
        shift = len(rc) - 1 - db
        c = lead_inv * rc[-1] if left else rc[-1] * lead_inv
        qc[(shift, 0)] = c
        for i in range(db):
            rc[i + shift] = rc[i + shift] - (bc[i] * c if left else c * bc[i])
        rc.pop()
        while rc and rc[-1].is_zero:
            rc.pop()
    return qc, {(i, 0): c for i, c in enumerate(rc) if c}


def reference_full_rank_witness(m: Mat2) -> str | None:
    """The extreme-term check of ``quatsurf.qmat._full_rank_witness``, on coefficient values.

    A matrix with a zero entry is ``"identity"`` when the complex embedding
    finds full rank.  Otherwise the single-term maps of the entries' leading,
    then trailing, terms give both sides of the pivot identity,
    ``c*conj(a)*b`` and ``a*conj(a)*d``, by :func:`reference_mul`.
    """
    entries = [e.terms for e in m.entries()]
    if not all(entries):
        return None if reference_is_degenerate(m) else "identity"
    for witness, pick in (("leading term", max), ("trailing term", min)):
        a, b, c, d = ({(k := pick(e)): e[k]} for e in entries)
        left = reference_mul(reference_mul(c, reference_conj(a)), b)
        if left != reference_mul(reference_mul(a, reference_conj(a)), d):
            return witness
    return None


# endregion


# region reference quaternion with Fraction components


class ReferenceQuaternion:
    """The ``Quaternion`` class as it was before it stored one integer tuple, kept as an oracle.

    Four ``Fraction`` slots, with every operation on ``Fraction`` values; the
    product is written out on them directly, without the old class's
    common-denominator shortcut.  ``repr`` names ``Quaternion`` so that the
    two can be compared.
    """

    __slots__ = ("w", "x", "y", "z")

    def __init__(self, w=0, x=0, y=0, z=0):
        self.w = _coerce(w)
        self.x = _coerce(x)
        self.y = _coerce(y)
        self.z = _coerce(z)

    def components(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.w, self.x, self.y, self.z)

    @property
    def is_zero(self) -> bool:
        return not (self.w or self.x or self.y or self.z)

    @property
    def is_real(self) -> bool:
        return not (self.x or self.y or self.z)

    def __bool__(self) -> bool:
        return bool(self.w or self.x or self.y or self.z)

    def __eq__(self, other) -> bool:
        if isinstance(other, ReferenceQuaternion):
            return self.components() == other.components()
        if isinstance(other, (int, Fraction)):
            return self.is_real and self.w == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.w) if self.is_real else hash((self.w, self.x, self.y, self.z))

    def __repr__(self) -> str:
        parts = ", ".join(rational_to_str(c) for c in self.components())
        return f"Quaternion({parts})"

    def __add__(self, other):
        if isinstance(other, ReferenceQuaternion):
            return ReferenceQuaternion(self.w + other.w, self.x + other.x, self.y + other.y, self.z + other.z)
        if isinstance(other, (int, Fraction)):
            return ReferenceQuaternion(self.w + other, self.x, self.y, self.z)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return ReferenceQuaternion(-self.w, -self.x, -self.y, -self.z)

    def __sub__(self, other):
        if isinstance(other, ReferenceQuaternion):
            return ReferenceQuaternion(self.w - other.w, self.x - other.x, self.y - other.y, self.z - other.z)
        if isinstance(other, (int, Fraction)):
            return ReferenceQuaternion(self.w - other, self.x, self.y, self.z)
        return NotImplemented

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, ReferenceQuaternion):
            a0, a1, a2, a3 = self.components()
            b0, b1, b2, b3 = other.components()
            return ReferenceQuaternion(
                a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
                a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
                a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
                a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
            )
        if isinstance(other, (int, Fraction)):
            return ReferenceQuaternion(self.w * other, self.x * other, self.y * other, self.z * other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return ReferenceQuaternion(self.w * other, self.x * other, self.y * other, self.z * other)
        return NotImplemented

    def conj(self) -> "ReferenceQuaternion":
        return ReferenceQuaternion(self.w, -self.x, -self.y, -self.z)

    def norm_sq(self) -> Fraction:
        return self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z

    def inverse(self) -> "ReferenceQuaternion":
        n = self.norm_sq()
        if not n:
            raise ZeroDivisionError("the zero quaternion has no inverse")
        return ReferenceQuaternion(self.w / n, -self.x / n, -self.y / n, -self.z / n)

    def to_json(self) -> list[str]:
        return [rational_to_str(c) for c in self.components()]


# endregion


# region reference split by the two-case reduction

# The reduction quatsurf.split ran before its v-free phase became the slope
# search run on the entries: a v-free game that moves the least-degree entry
# to 22 by position, a v-bound game that searches the eight symmetries, and
# a zero case that swaps a zero to 22, with no monic columns.  Kept as an
# oracle for the normalized certificates; its eight symmetries also serve
# the test that those certificates do not depend on the path.

# Basic moves recorded while reducing; replayed backwards over the factors.
_SR = "sr"
_SC = "sc"
_CT = "ct"
_CO = "co"

# The eight symmetries generated by the three basic ones, as move sequences
# applied left to right.  Composing the conjugate transpose with the swaps
# reaches every entry configuration, in particular it turns a column of
# v-dependent entries into a row.
_SYMMETRIES: tuple[tuple[str, ...], ...] = (
    (),
    (_SR,),
    (_SC,),
    (_SR, _SC),
    (_CT,),
    (_CT, _SR),
    (_CT, _SC),
    (_CT, _SR, _SC),
)

# Move sequences that bring a chosen position to 22.
_TO_22 = {
    (1, 1): (_SR, _SC),
    (1, 2): (_SR,),
    (2, 1): (_SC,),
    (2, 2): (),
}

_POSITIONS = ((2, 2), (2, 1), (1, 2), (1, 1))


def _entry(m: Mat2, pos: tuple[int, int]) -> QPolyUV:
    return m.entries()[(pos[0] - 1) * 2 + (pos[1] - 1)]


def _apply_move(m: Mat2, move) -> Mat2:
    kind = move[0]
    if kind == _SR:
        return swap_rows(m)
    if kind == _SC:
        return swap_cols(m)
    if kind == _CT:
        return conj_transpose(m)
    return col_op(m, move[1])


def _undo_on_factors(x: tuple[QPolyUV, QPolyUV], y: tuple[QPolyUV, QPolyUV], move):
    kind = move[0]
    if kind == _SR:
        return (x[1], x[0]), y
    if kind == _SC:
        return x, (y[1], y[0])
    if kind == _CT:
        return (y[0].conj(), y[1].conj()), (x[0].conj(), x[1].conj())
    return x, (y[0] + y[1] * move[1], y[1])


def _slopes(m: Mat2) -> tuple[QPolyU, QPolyU, QPolyU, QPolyU]:
    return tuple(v_slices(e)[0] for e in m.entries())  # type: ignore[return-value]


def _measure(slopes) -> tuple[int, int]:
    degrees = [s.degree for s in slopes if s]
    if not degrees:
        return (0, -1)
    return (len(degrees), min(degrees))


def _factor_with_zero(m: Mat2) -> tuple[list, tuple[QPolyUV, QPolyUV], tuple[QPolyUV, QPolyUV]]:
    """Factor a matrix that has at least one zero entry.

    Swaps bring a zero to position 22; degeneracy forces m12*m21 = 0 there,
    and the coefficient ring has no zero divisors, so a whole row or column
    is zero and the matrix factors by inspection.
    """
    for pos in _POSITIONS:
        if _entry(m, pos).is_zero:
            moves = [(op,) for op in _TO_22[pos]]
            break
    cur = m
    for move in moves:
        cur = _apply_move(cur, move)
    one = QPolyUV.one()
    zero = QPolyUV.zero()
    if cur.m21.is_zero:
        return moves, (one, zero), (cur.m11, cur.m12)
    if cur.m12.is_zero:
        return moves, (cur.m11, cur.m21), (one, zero)
    raise NoProgress("a zero entry with both neighbors nonzero contradicts degeneracy")


def _case_v_free(cur: Mat2) -> list:
    """One division step on a v-free matrix with four nonzero entries.

    Moves the entry of minimal u-degree to 22, divides m21 by it from the
    left and clears the quotient out of the first column.  The remainder has
    strictly smaller degree than the pivot, so the minimal entry degree drops
    (or an entry dies and the zero-entry base case takes over).
    """
    entries = {pos: _entry(cur, pos).to_u_poly() for pos in _POSITIONS}
    pivot = min(_POSITIONS, key=lambda pos: (entries[pos].degree, _POSITIONS.index(pos)))
    moves = [(op,) for op in _TO_22[pivot]]
    t = cur
    for move in moves:
        t = _apply_move(t, move)
    q, _ = left_div_rem(t.m21.to_u_poly(), t.m22.to_u_poly())
    if not q:
        raise NoProgress("v-free division step produced a zero quotient")
    moves.append((_CO, q.to_uv()))
    return moves


def _move_slopes(slopes, op: str):
    """The v-slopes after a symmetry, read off the slopes before it.

    v is central and conjugation acts coefficientwise, so each slope follows
    its entry: swaps permute the four, and the conjugate transpose also
    conjugates them.
    """
    s11, s12, s21, s22 = slopes
    if op == _SR:
        return (s21, s22, s11, s12)
    if op == _SC:
        return (s12, s11, s22, s21)
    return (s11.conj(), s21.conj(), s12.conj(), s22.conj())


def _case_v_bound(cur: Mat2) -> list:
    """One division step on the v-linear slopes, chosen by the progress guard.

    Tries every symmetry that exposes nonzero slopes at 22 and 21, preferring
    a minimal-degree pivot slope, and accepts the first column operation that
    strictly shrinks (slope count, minimal slope degree).  Only the slopes go
    through the symmetries; the accepted one is applied to the matrix by the
    caller.  For degenerate input such a step always exists; the guard
    protects against silent loops.
    """
    # Every symmetry's proper prefix precedes it in _SYMMETRIES.
    derived = {(): _slopes(cur)}
    cur_measure = _measure(derived[()])
    candidates = []
    for idx, sym in enumerate(_SYMMETRIES):
        if sym:
            derived[sym] = _move_slopes(derived[sym[:-1]], sym[-1])
        slopes = derived[sym]
        if slopes[3] and slopes[2]:
            candidates.append((slopes[3].degree, idx, sym, slopes))
    candidates.sort(key=lambda c: (c[0], c[1]))
    for _, _, sym, slopes in candidates:
        q, r = left_div_rem(slopes[2], slopes[3])
        if not q:
            continue
        new_s11 = slopes[0] - slopes[1] * q
        next_measure = _measure((new_s11, slopes[1], r, slopes[3]))
        if next_measure < cur_measure:
            return [(op,) for op in sym] + [(_CO, q.to_uv())]
    raise NoProgress("no symmetry and division step shrinks the v-dependence measure")


def reference_split(m: Mat2) -> SplitCertificate:
    """Factor a degenerate matrix into ``kron(x, y)`` by the two-case reduction.

    Preconditions:
        every entry has v-degree at most 1, and the matrix is degenerate.

    The zero matrix factors as ``x = (0, 0)``, ``y = (1, 0)``.  The returned
    certificate is re-multiplied and compared with the input before being
    handed back.

    Raises:
        PreconditionDegree: if some entry has v-degree 2 or more.
        NotDegenerate: if the matrix has full rank.
        NoProgress: if the reduction stalls (not expected for valid input).
    """
    for e in m.entries():
        if e.deg_v >= 2:
            raise PreconditionDegree("matrix entries must have v-degree at most 1")
    if not is_degenerate(m):
        raise NotDegenerate("matrix rows are not left-linearly dependent")

    deg_bound = max((int(e.deg_u) for e in m.entries() if e), default=0)
    step_cap = (1 + deg_bound) * 16

    moves: list = []
    cur = m
    v_steps = 0
    u_steps = 0
    while True:
        if cur.is_zero:
            x = (QPolyUV.zero(), QPolyUV.zero())
            y = (QPolyUV.one(), QPolyUV.zero())
            break
        if any(e.is_zero for e in cur.entries()):
            extra, x, y = _factor_with_zero(cur)
            moves.extend(extra)
            break
        if all(e.deg_v <= 0 for e in cur.entries()):
            step = _case_v_free(cur)
            u_steps += 1
            if u_steps > step_cap:
                raise NoProgress("v-free reduction exceeded its step cap")
        else:
            step = _case_v_bound(cur)
            v_steps += 1
            if v_steps > step_cap:
                raise NoProgress("v-dependence reduction exceeded its step cap")
        for move in step:
            cur = _apply_move(cur, move)
        moves.extend(step)

    for move in reversed(moves):
        x, y = _undo_on_factors(x, y, move)

    cert = SplitCertificate(Vec2(*x), Vec2(*y))
    if kron(cert.x, cert.y) != m:
        raise NoProgress("internal error: certificate failed verification")
    return cert


# endregion


# region reference surface sampling in Fraction arithmetic

# The sampling quatsurf.surfaces ran before circle frames were kept on
# integers: every grid cell and curve sample evaluates both circles from the
# tan-half-angle weights, multiplies family c points as Quaternion values
# and projects them.  Kept verbatim, with each circle point taken from
# ``reference_circle_point``, as oracles for the integer path.


def _reference_weights(t: Fraction) -> tuple[Fraction, Fraction]:
    den = 1 + t * t
    return (1 - t * t) / den, 2 * t / den


def _reference_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _reference_scale(a, c: Fraction):
    return tuple(x * c for x in a)


def reference_circle_point(circle, t) -> tuple[Fraction, ...]:
    """``circle.point(t)``: center + e1*(1 - t**2)/(1 + t**2) + e2*2t/(1 + t**2)."""
    c, s = _reference_weights(_coerce(t))
    return _reference_add(circle.center, _reference_add(_reference_scale(circle.e1, c), _reference_scale(circle.e2, s)))


def _reference_eval_e(alpha, beta, u, v):
    return _reference_add(reference_circle_point(alpha, u), reference_circle_point(beta, v))


def _reference_eval_c(alpha, beta, u, v):
    a = Quaternion(*reference_circle_point(alpha, u))
    b = Quaternion(*reference_circle_point(beta, v))
    return (a * b).components()


def _reference_stereo(x):
    w, p1, p2, p3 = (_coerce(c) for c in x)
    if w == 1:
        raise PolePoint("stereographic projection is undefined at the pole")
    d = 1 - w
    return (p1 / d, p2 / d, p3 / d)


def reference_coordinate_curve(spec, which: str, fixed, samples, *, mask_poles: bool = False):
    """``coordinate_curve``: both circles evaluated afresh for every sample."""
    if which not in ("u", "v"):
        raise InvalidInput("'which' must be 'u' or 'v'")
    if spec.family == "d":
        raise UnsupportedFamily("implicit surfaces have no parametric coordinate curves")
    fixed = _coerce(fixed)
    out = []
    for t in samples:
        t = _coerce(t)
        u, v = (fixed, t) if which == "u" else (t, fixed)
        if spec.family == "e":
            out.append(_reference_eval_e(spec.alpha, spec.beta, u, v))
        else:
            try:
                out.append(_reference_stereo(_reference_eval_c(spec.alpha, spec.beta, u, v)))
            except PolePoint:
                if not mask_poles:
                    raise
    return out


def reference_sample_grid(spec, n: int):
    """``sample_grid``: both circles evaluated afresh for every cell."""
    if spec.family == "d":
        raise UnsupportedFamily(
            "implicit surfaces cannot be sampled on a parameter grid; "
            "export the quartic instead"
        )
    if n < 2:
        raise InvalidInput("need at least a 2x2 grid")
    ts = grid_params(n)
    grid = []
    for u in ts:
        row = []
        for v in ts:
            if spec.family == "e":
                row.append(_reference_eval_e(spec.alpha, spec.beta, u, v))
            else:
                try:
                    row.append(_reference_stereo(_reference_eval_c(spec.alpha, spec.beta, u, v)))
                except PolePoint:
                    row.append(None)
        grid.append(row)
    return grid


def reference_render_decimal(value: Fraction, digits: int = 12) -> str:
    """``render_decimal`` by rounding ``value * 10**digits`` as a Fraction, half to even."""
    if digits < 0:
        raise InvalidInput("the number of decimal digits must be nonnegative")
    scale = 10**digits
    scaled = round(value * scale)
    sign = "-" if scaled < 0 else ""
    ip, fp = divmod(abs(scaled), scale)
    try:
        return f"{sign}{ip}.{str(fp).zfill(digits)}" if digits else f"{sign}{ip}"
    except ValueError:
        raise InvalidInput("a decimal has too many digits to print") from None


# The exports quatsurf.surfaces ran before it rendered integer cells, with
# each coordinate taken through ``reference_render_decimal`` or
# ``rational_to_str``.  Kept verbatim as oracles for the text gen-surface writes.


def reference_export_csv(grid, digits: int = 12) -> str:
    """``export_csv``: one decimal point per row, masked cells omitted."""
    lines = []
    for row in grid:
        for cell in row:
            if cell is None:
                continue
            lines.append(",".join(reference_render_decimal(c, digits) for c in cell))
    return "\n".join(lines) + "\n"


def reference_export_obj(grid, digits: int = 12) -> str:
    """``export_obj``: vertices, then a quad face wherever all four corners are valid."""
    lines = []
    index: dict[tuple[int, int], int] = {}
    count = 0
    for i, row in enumerate(grid):
        for j, cell in enumerate(row):
            if cell is None:
                continue
            count += 1
            index[(i, j)] = count
            lines.append("v " + " ".join(reference_render_decimal(c, digits) for c in cell))
    for i in range(len(grid) - 1):
        for j in range(len(grid[i]) - 1):
            corners = [(i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1)]
            if all(c in index for c in corners):
                lines.append("f " + " ".join(str(index[c]) for c in corners))
    return "\n".join(lines) + "\n"


def reference_grid_json(grid) -> list:
    """The grid of ``gen-surface --format json``: "p/q" strings, None at a pole."""
    return [[None if cell is None else [rational_to_str(c) for c in cell] for cell in row] for row in grid]


# endregion


# region reference cyclide quartic

# The pullback quatsurf.surfaces ran before it summed the form row by row:
# 25 products of two lift components, each scaled by its matrix entry, with
# zeros dropped as they arise.  Kept verbatim as an oracle.


def _reference_poly4_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for k1, c1 in p.items():
        for k2, c2 in q.items():
            key = tuple(a + b for a, b in zip(k1, k2))
            s = out.get(key, Fraction(0)) + c1 * c2
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return out


def reference_cyclide_implicit(quadric) -> dict:
    """``cyclide_implicit``: the sum of ``q_ij * L_i * L_j`` over all 25 entries."""
    acc: dict = {}
    for i in range(5):
        for j in range(5):
            c = quadric.q[i][j]
            if not c:
                continue
            for key, value in _reference_poly4_mul(_LIFT[i], _LIFT[j]).items():
                s = acc.get(key, Fraction(0)) + c * value
                if s:
                    acc[key] = s
                else:
                    acc.pop(key, None)
    return acc


# endregion


# region reference circle recognition in Fraction arithmetic

# The O(n) circle test quatsurf.surfaces ran before it moved to integer
# numerators: plane normal and circumcenter as Fraction vectors, one plane
# test and one distance test per point.  Kept verbatim as an oracle.


def _reference_vec(values, size: int) -> tuple[Fraction, ...]:
    out = tuple(_coerce(c) for c in values)
    if len(out) != size:
        raise InvalidInput(f"expected a {size}-vector")
    return out


def _reference_dot(a, b) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def _reference_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _reference_cross(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def reference_plane_circumcenter(points) -> bool:
    """``is_circle_or_line``: plane test and circumcenter test in Fractions."""
    pts = [_reference_vec(p, 3) for p in points]
    if len(pts) < 5 or len(set(pts)) != len(pts):
        raise TooFewPoints("need at least five points, no two equal")
    p0 = pts[0]
    a = _reference_sub(pts[1], p0)
    for p in pts[2:]:
        b = _reference_sub(p, p0)
        n = _reference_cross(a, b)
        if any(n):
            break
    else:
        return True
    # Circumcenter of p0, p0 + a, p0 + b:
    # c = p0 + (|a|**2 (b x n) + |b|**2 (n x a)) / (2 |n|**2).
    w = _reference_add(
        _reference_scale(_reference_cross(b, n), _reference_dot(a, a)),
        _reference_scale(_reference_cross(n, a), _reference_dot(b, b)),
    )
    c = _reference_add(p0, _reference_scale(w, 1 / (2 * _reference_dot(n, n))))
    r = _reference_sub(p0, c)
    radius_sq = _reference_dot(r, r)
    for p in pts:
        d = _reference_sub(p, c)
        if _reference_dot(_reference_sub(p, p0), n) or _reference_dot(d, d) != radius_sq:
            return False
    return True


# endregion

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
from math import lcm

from quatsurf import (
    Circle3,
    CircleS3,
    Mat2,
    QPolyU,
    QPolyUV,
    Quaternion,
    RPolyUV,
    Vec2,
    stereo_inv,
)

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


# endregion


# region reference arithmetic on coefficient values

# The Fraction-object arithmetic that quatsurf.qpoly ran before its integer
# core, kept as oracles.  Polynomials here are plain maps from exponent pairs
# to nonzero Quaternion or Fraction values, the shape of ``.terms``.


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


# endregion

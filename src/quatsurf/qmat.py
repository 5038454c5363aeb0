"""2x2 matrices and 2-vectors over the quaternionic polynomial ring.

A matrix is *degenerate* when its two rows are left-linearly dependent over
the quotient ring, equivalently when its rank is at most 1.  Because left
scalars do not commute past entries, this is decided through the classical
complex embedding: each quaternion a + b*i + c*j + d*k becomes the 2x2
complex block

    [[ a + b*i,  c + d*i],
     [-c + d*i,  a - b*i]]

applied coefficientwise, turning the 2x2 quaternionic matrix into a 4x4
matrix over complex polynomials whose rank is exactly twice the quaternionic
rank.  Degeneracy therefore means every 3x3 minor of the embedded matrix
vanishes identically, a decision that needs nothing beyond exact polynomial
arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .qpoly import QPolyUV

# region types


@dataclass(frozen=True)
class Vec2:
    """A pair of quaternionic polynomials; the factor shape for rank-one products."""

    e1: QPolyUV
    e2: QPolyUV

    def conj(self) -> "Vec2":
        return Vec2(self.e1.conj(), self.e2.conj())

    def to_json(self) -> list:
        return [self.e1.to_json(), self.e2.to_json()]

    @classmethod
    def from_json(cls, obj) -> "Vec2":
        from .errors import InvalidInput

        if not isinstance(obj, list) or len(obj) != 2:
            raise InvalidInput("a vector must be a 2-element array of polynomials")
        return cls(QPolyUV.from_json(obj[0]), QPolyUV.from_json(obj[1]))


@dataclass(frozen=True)
class Mat2:
    """A 2x2 matrix of quaternionic polynomials in u and v."""

    m11: QPolyUV
    m12: QPolyUV
    m21: QPolyUV
    m22: QPolyUV

    def entries(self) -> tuple[QPolyUV, QPolyUV, QPolyUV, QPolyUV]:
        return (self.m11, self.m12, self.m21, self.m22)

    @property
    def is_zero(self) -> bool:
        return all(e.is_zero for e in self.entries())

    def to_json(self) -> list:
        return [
            [self.m11.to_json(), self.m12.to_json()],
            [self.m21.to_json(), self.m22.to_json()],
        ]

    @classmethod
    def from_json(cls, obj) -> "Mat2":
        from .errors import InvalidInput

        if (
            not isinstance(obj, list)
            or len(obj) != 2
            or any(not isinstance(row, list) or len(row) != 2 for row in obj)
        ):
            raise InvalidInput("a matrix must be a 2x2 nested array of polynomials")
        return cls(
            QPolyUV.from_json(obj[0][0]),
            QPolyUV.from_json(obj[0][1]),
            QPolyUV.from_json(obj[1][0]),
            QPolyUV.from_json(obj[1][1]),
        )


# endregion

# region constructions


def kron(x: Vec2, y: Vec2) -> Mat2:
    """Rank-one product with entries ``m_ij = x_i * y_j`` (factor order matters)."""
    return Mat2(x.e1 * y.e1, x.e1 * y.e2, x.e2 * y.e1, x.e2 * y.e2)


def col_op(m: Mat2, x: QPolyUV) -> Mat2:
    """Subtract the second column right-multiplied by ``x`` from the first.

    Preserves both degeneracy and the rank-one property: if
    ``col_op(m, x) == kron(a, b)`` then ``m == kron(a, (b1 + b2*x, b2))``.
    """
    return Mat2(m.m11 - m.m12 * x, m.m12, m.m21 - m.m22 * x, m.m22)


def swap_rows(m: Mat2) -> Mat2:
    return Mat2(m.m21, m.m22, m.m11, m.m12)


def swap_cols(m: Mat2) -> Mat2:
    return Mat2(m.m12, m.m11, m.m22, m.m21)


def conj_transpose(m: Mat2) -> Mat2:
    """Transpose with coefficientwise conjugation; maps kron(x, y) to kron(conj(y), conj(x))."""
    return Mat2(m.m11.conj(), m.m21.conj(), m.m12.conj(), m.m22.conj())


# endregion

# region degeneracy

# Complex polynomials below are dicts from packed exponents du*base + dv to
# (re, im) integer pairs.  Keeping raw integers here matters: this predicate
# dominates the runtime of the whole package.  A 3x3 minor multiplies three
# entries, so its v-degrees stay below base = 3*max_dv + 1 and packed keys
# never carry into the u-part.


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


def is_degenerate(m: Mat2) -> bool:
    """Whether the rows are left-linearly dependent (rank at most 1).

    Embeds the matrix into 4x4 complex polynomials and checks that all
    sixteen 3x3 minors vanish identically; returns on the first nonzero
    minor.  Exact, no floating point, no fraction-field arithmetic.
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

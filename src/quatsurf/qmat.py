"""2x2 matrices and 2-vectors over the quaternionic polynomial ring.

A matrix ``[[a, b], [c, d]]`` is *degenerate* when its two rows are
left-linearly dependent over the quotient ring, equivalently when its rank is
at most 1.  The quotient ring is a division ring and u, v are central, so with
``a != 0`` this is the pivot identity

    c * conj(a) * b == N(a) * d,    N(a) = a * conj(a) real and central,

read off from ``(c, d) = (c * a^-1) * (a, b)`` with ``a^-1 = conj(a) / N(a)``
(the Dieudonne/Study view of the quaternionic determinant).  With ``a = 0``
the matrix is degenerate iff ``b = 0`` or ``c = 0``.  Deciding it needs one
exact polynomial identity and nothing beyond integer arithmetic.
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

# Integer polynomials: dicts from exponent pairs (du, dv) to quaternion
# components (w, x, y, z).  Raw integers spare the Fraction normalization that
# every coefficient product of QPolyUV pays.
_IntPoly = dict[tuple[int, int], tuple[int, int, int, int]]


def _int_row(row: tuple[QPolyUV, QPolyUV]) -> list[_IntPoly]:
    """The row's entries as integer polynomials, scaled by the lcm of its denominators."""
    scale = 1
    for poly in row:
        for q in poly.terms.values():
            scale = lcm(scale, q.w.denominator, q.x.denominator, q.y.denominator, q.z.denominator)
    return [
        {
            key: tuple(c.numerator * (scale // c.denominator) for c in (q.w, q.x, q.y, q.z))
            for key, q in poly.terms.items()
        }
        for poly in row
    ]


def _int_mul(p: _IntPoly, q: _IntPoly) -> _IntPoly:
    """Product of two integer quaternion polynomials, with p on the left."""
    out: _IntPoly = {}
    get = out.get
    for (u1, v1), (a0, a1, a2, a3) in p.items():
        for (u2, v2), (b0, b1, b2, b3) in q.items():
            key = (u1 + u2, v1 + v2)
            w = a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3
            x = a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2
            y = a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1
            z = a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0
            cur = get(key)
            if cur is None:
                out[key] = (w, x, y, z)
            else:
                out[key] = (cur[0] + w, cur[1] + x, cur[2] + y, cur[3] + z)
    return out


def _int_conj(p: _IntPoly) -> _IntPoly:
    return {key: (w, -x, -y, -z) for key, (w, x, y, z) in p.items()}


def _int_equal(p: _IntPoly, q: _IntPoly) -> bool:
    zero = (0, 0, 0, 0)
    return all(p.get(key, zero) == q.get(key, zero) for key in p.keys() | q.keys())


def is_degenerate(m: Mat2) -> bool:
    """Whether the rows are left-linearly dependent (rank at most 1).

    With ``m11 = 0`` the rows ``(0, b)`` and ``(c, d)`` are dependent exactly
    when ``b = 0`` or ``c = 0``.  Otherwise the second row must be
    ``c * a^-1`` times the first, which leaves the single condition
    ``c * conj(a) * b == N(a) * d`` with the central norm ``N(a) = a * conj(a)``.
    Each row is first scaled by the lcm of its denominators, a positive
    central integer under which the identity is homogeneous, so the check
    runs on integer coefficients.  Exact, no floating point.
    """
    if m.m11.is_zero:
        return m.m12.is_zero or m.m21.is_zero
    a, b = _int_row((m.m11, m.m12))
    c, d = _int_row((m.m21, m.m22))
    a_conj = _int_conj(a)
    return _int_equal(_int_mul(_int_mul(c, a_conj), b), _int_mul(_int_mul(a, a_conj), d))


# endregion

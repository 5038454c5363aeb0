"""2x2 matrices and 2-vectors over the quaternionic polynomial ring.

A matrix ``[[a, b], [c, d]]`` is *degenerate* when its two rows are
left-linearly dependent over the quotient ring, equivalently when its rank is
at most 1.  The quotient ring is a division ring and u, v are central, so with
``a != 0`` this is the pivot identity

    c * conj(a) * b == N(a) * d,    N(a) = a * conj(a) real and central,

read off from ``(c, d) = (c * a^-1) * (a, b)`` with ``a^-1 = conj(a) / N(a)``
(the Dieudonne/Study view of the quaternionic determinant).  With ``a = 0``
the matrix is degenerate iff ``b = 0`` or ``c = 0``.  Deciding it needs one
exact polynomial identity, evaluated on the canonical integer coefficients
that :mod:`quatsurf.qpoly` stores; rows are not scaled, and this module does
no polynomial arithmetic of its own.
"""

from __future__ import annotations

from dataclasses import dataclass

from .qpoly import QPolyUV, _qmul
from .quat import _json_array

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
        e1, e2 = _json_array(obj, 2, "a vector must be a 2-element array of polynomials")
        return cls(QPolyUV.from_json(e1), QPolyUV.from_json(e2))


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
        message = "a matrix must be a 2x2 nested array of polynomials"
        (a, b), (c, d) = (_json_array(row, 2, message) for row in _json_array(obj, 2, message))
        return cls(QPolyUV.from_json(a), QPolyUV.from_json(b), QPolyUV.from_json(c), QPolyUV.from_json(d))


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


def is_degenerate(m: Mat2) -> bool:
    """Whether the rows are left-linearly dependent (rank at most 1).

    With ``m11 = 0`` the rows ``(0, b)`` and ``(c, d)`` are dependent exactly
    when ``b = 0`` or ``c = 0``.  Otherwise the second row must be
    ``c * a^-1`` times the first, which leaves the single condition
    ``c * conj(a) * b == N(a) * d`` with the central norm ``N(a) = a * conj(a)``.
    Both sides are multiplied out on the stored integer coefficients, each
    over its own denominator, so no row is scaled; canonical coefficients
    make the comparison a plain map equality.  Exact, no floating point.
    """
    if m.m11.is_zero:
        return m.m12.is_zero or m.m21.is_zero
    a, b, c, d = (e._ints for e in m.entries())
    a_conj = m.m11.conj()._ints
    return _qmul(_qmul(c, a_conj), b) == _qmul(_qmul(a, a_conj), d)


# endregion

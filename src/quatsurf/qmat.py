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
that :mod:`quatsurf.qpoly` stores, with ``N(a)`` computed as a real map and
multiplied into ``d`` by the real-times-quaternion kernel; rows are not
scaled, and this module does no polynomial arithmetic of its own.

The coefficient ring has no zero divisors and u, v are central, so under
lexicographic order on ``(du, dv)`` the leading term of a product is the
product of the leading terms, and likewise the trailing (least) term.  Both
sides' extreme terms therefore come from the entries' extreme terms at the
cost of a few single-term products.  Where they differ the matrix has full
rank, which is decided before any full product is formed;
:func:`quatsurf.split.split` shares this check.
"""

from __future__ import annotations

from .qpoly import QPolyUV, _norm, _qmul, _rqmul
from .quat import _json_array, _Value

# region types


class Vec2(_Value):
    """A pair of quaternionic polynomials; the factor shape for rank-one products."""

    __slots__ = ("e1", "e2")

    def __init__(self, e1: QPolyUV, e2: QPolyUV):
        object.__setattr__(self, "e1", e1)
        object.__setattr__(self, "e2", e2)

    def conj(self) -> "Vec2":
        return Vec2(self.e1.conj(), self.e2.conj())

    def to_json(self) -> list:
        return [self.e1.to_json(), self.e2.to_json()]

    @classmethod
    def from_json(cls, obj) -> "Vec2":
        e1, e2 = _json_array(obj, 2, "a vector must be a 2-element array of polynomials")
        return cls(QPolyUV.from_json(e1), QPolyUV.from_json(e2))


class Mat2(_Value):
    """A 2x2 matrix of quaternionic polynomials in u and v."""

    __slots__ = ("m11", "m12", "m21", "m22")

    def __init__(self, m11: QPolyUV, m12: QPolyUV, m21: QPolyUV, m22: QPolyUV):
        object.__setattr__(self, "m11", m11)
        object.__setattr__(self, "m12", m12)
        object.__setattr__(self, "m21", m21)
        object.__setattr__(self, "m22", m22)

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
    x = x if isinstance(x, QPolyUV) else QPolyUV.const(x)
    return Mat2(m.m11._add_mul(m.m12, x, -1), m.m12, m.m21._add_mul(m.m22, x, -1), m.m22)


def swap_rows(m: Mat2) -> Mat2:
    return Mat2(m.m21, m.m22, m.m11, m.m12)


def swap_cols(m: Mat2) -> Mat2:
    return Mat2(m.m12, m.m11, m.m22, m.m21)


def conj_transpose(m: Mat2) -> Mat2:
    """Transpose with coefficientwise conjugation; maps kron(x, y) to kron(conj(y), conj(x))."""
    return Mat2(m.m11.conj(), m.m21.conj(), m.m12.conj(), m.m22.conj())


# endregion

# region degeneracy


def _sides(a: dict, b: dict, c: dict, d: dict) -> tuple[dict, dict]:
    """Both sides of the pivot identity, ``c*conj(a)*b`` and ``N(a)*d``, on term maps."""
    a_conj = {key: (w, -x, -y, -z, den) for key, (w, x, y, z, den) in a.items()}
    return _qmul(_qmul(c, a_conj), b), _rqmul(_norm([a]), d)


def _full_rank_witness(m: Mat2) -> str | None:
    """The test that proves ``m`` has full rank without the whole identity, or None.

    A zero entry settles the identity at once: ``"identity"`` if the matrix
    then has full rank.  Otherwise the leading terms of the two sides, in
    lexicographic order on ``(du, dv)``, are products of the entries' leading
    terms, with no cancellation; so are the trailing terms.  Both are
    computed from four single-term maps, and a mismatch is returned as
    ``"leading term"`` or ``"trailing term"``.  None means the full identity
    must decide.
    """
    a, b, c, d = (e._ints for e in m.entries())
    if not (a and b and c and d):
        # With a = 0 the rows are dependent iff b = 0 or c = 0.  Otherwise
        # the left side vanishes iff b or c does, and the right iff d does.
        zero_left = not (b and c)
        degenerate = zero_left if not a else zero_left == (not d)
        return None if degenerate else "identity"
    for witness, pick in (("leading term", max), ("trailing term", min)):
        left, right = _sides(*({(k := pick(e)): e[k]} for e in (a, b, c, d)))
        if left != right:
            return witness
    return None


def is_degenerate(m: Mat2) -> bool:
    """Whether the rows are left-linearly dependent (rank at most 1).

    With ``m11 = 0`` the rows ``(0, b)`` and ``(c, d)`` are dependent exactly
    when ``b = 0`` or ``c = 0``.  Otherwise the second row must be
    ``c * a^-1`` times the first, which leaves the single condition
    ``c * conj(a) * b == N(a) * d`` with the central norm ``N(a) = a * conj(a)``.
    The extreme terms of both sides are compared first (see
    :func:`_full_rank_witness`); only when they agree are both sides
    multiplied out, on the stored integer coefficients, with ``N(a)`` as a
    real map.  No row is scaled, and canonical coefficients make the
    comparison a plain map equality.  Exact, no floating point.
    """
    if _full_rank_witness(m):
        return False
    if not all(m.entries()):  # a zero entry settled it, and not as full rank
        return True
    left, right = _sides(*(e._ints for e in m.entries()))
    return left == right


# endregion

"""2x2 matrices and 2-vectors over the quaternionic polynomial ring.

A matrix ``[[a, b], [c, d]]`` is *degenerate* when its two rows are
left-linearly dependent over the quotient ring, equivalently when its rank is
at most 1.  The quotient ring is a division ring and u, v are central, so with
``a != 0`` this is the pivot identity

    c * conj(a) * b == N(a) * d,    N(a) = a * conj(a) real and central,

read off from ``(c, d) = (c * a^-1) * (a, b)`` with ``a^-1 = conj(a) / N(a)``
(the Dieudonne/Study view of the quaternionic determinant).  With ``a = 0``
the matrix is degenerate iff ``b = 0`` or ``c = 0``.

Any nonzero entry can serve as the pivot.  Swapping rows or columns keeps
the rank, and the identity of a swapped matrix is the identity with
another entry as pivot: ``d*conj(b)*a == N(b)*c`` (columns swapped),
``a*conj(c)*d == N(c)*b`` (rows swapped) and ``b*conj(d)*c == N(d)*a``
(both).  A matrix with a zero entry is settled before the identity runs,
so every entry can pivot by then; the one taken needs the fewest term
products, estimated from the four term counts alone, and ``a`` is kept on
ties.  Deciding needs one exact polynomial identity, evaluated on the canonical integer coefficients that
:mod:`quatsurf.qpoly` stores, with the pivot's norm computed as a real map
and multiplied in by the real-times-quaternion kernel; rows are not
scaled.  This module does no polynomial arithmetic of its own: its
extreme-term check below works on single coefficient tuples.

The coefficient ring has no zero divisors and u, v are central, so under
lexicographic order on ``(du, dv)`` the leading term of a product is the
product of the leading terms, and likewise the trailing (least) term.  Both
sides' extreme terms therefore come from the entries' extreme terms: an
exponent sum and a few products of single coefficient tuples.  Where they
differ the matrix has full rank, which is decided before any full product
is formed; :func:`quatsurf.split.split` shares this check.
"""

from __future__ import annotations

from .qpoly import QPolyUV, _norm, _qmul, _rqmul
from .quat import _canon, _hamilton, _json_array, _product, _Value

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


def _sides(a: dict, b: dict, c: dict, d: dict) -> tuple[dict, dict]:
    """Both sides of the pivot identity, ``c*conj(a)*b`` and ``N(a)*d``, on term maps."""
    a_conj = {key: (w, -x, -y, -z, den) for key, (w, x, y, z, den) in a.items()}
    return _qmul(_qmul(c, a_conj), b), _rqmul(_norm([a]), d)


def _pivot_cost(entries: tuple[dict, dict, dict, dict]) -> int:
    """The term products :func:`_sides` forms on ``entries``, estimated from term counts alone.

    For dense entries a product has about as many terms as its two factors
    together, so after the ``c*a`` pairs of ``c*conj(a)`` its product with
    ``b`` costs about ``(a + c)*b`` pairs, and ``N(a)*d`` about ``a*d``.
    """
    a, b, c, d = map(len, entries)
    return a * (b + c + d) + b * c


def _pivoted(m: Mat2) -> tuple[dict, dict, dict, dict]:
    """The term maps of ``m``, ``swap_cols(m)``, ``swap_rows(m)`` or both swaps, the cheapest by :func:`_pivot_cost`.

    ``min`` keeps the first on ties, so ``m11`` stays the pivot unless
    another entry is strictly cheaper.
    """
    a, b, c, d = (e._ints for e in m.entries())
    return min(((a, b, c, d), (b, a, d, c), (c, d, a, b), (d, c, b, a)), key=_pivot_cost)


def _full_rank_witness(m: Mat2) -> str | None:
    """The test that proves ``m`` has full rank without the whole identity, or None.

    A zero entry settles the identity at once: ``"identity"`` if the matrix
    then has full rank.  Otherwise the leading terms of the two sides, in
    lexicographic order on ``(du, dv)``, are products of the entries' leading
    terms, with no cancellation; so are the trailing terms.  Each is compared
    on the four extreme ``(key, tuple)`` pairs: the exponent sums
    ``ka + kb + kc`` and ``2*ka + kd``, then the canonical coefficients
    ``tc*conj(ta)*tb`` and ``N(ta)*td``.  A mismatch is returned as
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
        ((ua, va), ta), ((ub, vb), tb), ((uc, vc), tc), ((ud, vd), td) = ((k := pick(e), e[k]) for e in (a, b, c, d))
        if (ua + ub + uc, va + vb + vc) != (2 * ua + ud, 2 * va + vd):
            return witness
        w, x, y, z, den = ta
        n = w * w + x * x + y * y + z * z
        left = _product(_hamilton(tc, (w, -x, -y, -z, den)), tb)
        if left != _canon((n * td[0], n * td[1], n * td[2], n * td[3], den * den * td[4])):
            return witness
    return None


def is_degenerate(m: Mat2) -> bool:
    """Whether the rows are left-linearly dependent (rank at most 1).

    With ``m11 = 0`` the rows ``(0, b)`` and ``(c, d)`` are dependent exactly
    when ``b = 0`` or ``c = 0``.  Otherwise the second row must be
    ``c * a^-1`` times the first, which leaves the single condition
    ``c * conj(a) * b == N(a) * d`` with the central norm ``N(a) = a * conj(a)``.
    The extreme terms of both sides are compared first (see
    :func:`_full_rank_witness`), which also settles every matrix with a
    zero entry.  Only when they agree are both sides multiplied out, on the
    stored integer coefficients, with the norm as a real map.  Row and
    column swaps keep the rank, so any entry, all nonzero by then, can be
    the pivot: :func:`_pivoted` takes the one estimated to need the fewest
    term products, ``m11`` on ties.  No row is scaled, and canonical coefficients make
    the comparison a plain map equality.  Exact, no floating point.
    """
    if _full_rank_witness(m):
        return False
    if not all(m.entries()):  # a zero entry settled it, and not as full rank
        return True
    left, right = _sides(*_pivoted(m))
    return left == right


# endregion

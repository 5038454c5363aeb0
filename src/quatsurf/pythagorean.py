"""Pythagorean 6-tuples of real polynomials and their Hermitian matrices.

A 6-tuple (x1, ..., x6) of real polynomials in u and v is *Pythagorean* when

    x1**2 + x2**2 + x3**2 + x4**2 + x5**2 == x6**2

holds identically.  Such tuples are exactly the ones whose Hermitian matrix

    [[x6 - x5,                x1 + x2*i + x3*j + x4*k],
     [x1 - x2*i - x3*j - x4*k,               x6 + x5]]

is degenerate: the commuting product of the off-diagonal entries is the norm
x1**2 + ... + x4**2, so rank collapse is the same condition as the identity.
Membership is decided by the identity alone: first on its leading and
trailing terms, which a sum of real squares cannot cancel, then as one
signed sum of norms on the real kernel of :mod:`quatsurf.qpoly`, which also
gives ``tuple_from_pair`` its two norms.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import BasePoint, NotTupleShaped
from .qmat import Mat2
from .qpoly import QPolyUV, RPolyUV, _norm, quat_poly
from .quat import _ZERO, _json_array, _Value


class PyTuple(_Value):
    """Six real polynomials in u and v, candidate sides of the sum-of-squares identity."""

    __slots__ = ("x1", "x2", "x3", "x4", "x5", "x6")

    def __init__(self, x1: RPolyUV, x2: RPolyUV, x3: RPolyUV, x4: RPolyUV, x5: RPolyUV, x6: RPolyUV):
        object.__setattr__(self, "x1", x1)
        object.__setattr__(self, "x2", x2)
        object.__setattr__(self, "x3", x3)
        object.__setattr__(self, "x4", x4)
        object.__setattr__(self, "x5", x5)
        object.__setattr__(self, "x6", x6)

    def components(self) -> tuple[RPolyUV, ...]:
        return (self.x1, self.x2, self.x3, self.x4, self.x5, self.x6)

    def to_json(self) -> list:
        return [p.to_json() for p in self.components()]

    @classmethod
    def from_json(cls, obj) -> "PyTuple":
        obj = _json_array(obj, 6, "a tuple must be a 6-element array of real polynomials")
        return cls(*(RPolyUV.from_json(p) for p in obj))


def tuple_to_matrix(t: PyTuple) -> Mat2:
    """The Hermitian matrix of the tuple (real diagonal, conjugate off-diagonal)."""
    upper = quat_poly(t.x1, t.x2, t.x3, t.x4)
    return Mat2(
        (t.x6 - t.x5).to_quat(),
        upper,
        upper.conj(),
        (t.x6 + t.x5).to_quat(),
    )


def matrix_to_tuple(m: Mat2) -> PyTuple:
    """Invert :func:`tuple_to_matrix`.

    Raises:
        NotTupleShaped: if the diagonal is not real or the off-diagonal
            entries are not conjugates of each other.
    """
    if not m.m11.is_real or not m.m22.is_real:
        raise NotTupleShaped("diagonal entries must be real polynomials")
    if m.m21 != m.m12.conj():
        raise NotTupleShaped("off-diagonal entries must be conjugate to each other")
    x1, x2, x3, x4 = m.m12.components()
    d11 = m.m11.components()[0]
    d22 = m.m22.components()[0]
    return PyTuple(x1, x2, x3, x4, (d22 - d11) / 2, (d22 + d11) / 2)


def is_pythagorean(t: PyTuple) -> bool:
    """Whether the sum-of-squares identity holds exactly.

    ``x1**2 + ... + x4**2`` is the norm of ``x1 + x2*i + x3*j + x4*k``, so
    ``x1**2 + ... + x5**2 - x6**2`` is one signed sum of norms, built in one
    rational term map with each cross term computed once.  Before that, the
    extreme terms are compared.  A nonzero real square has a positive leading
    coefficient, so the leading terms of the squares cannot cancel: the sum's
    leading term has exponent ``2*max lm(xi)`` and coefficient the sum of
    ``lc(xi)**2`` over the ``xi`` that reach it, and must equal that of
    ``x6**2``.  The trailing terms work the same way.
    """
    # A real map is a quaternionic one, so x5 and x6 go to _norm as they are.
    plus = (quat_poly(t.x1, t.x2, t.x3, t.x4)._ints, t.x5._ints)
    x6 = t.x6._ints
    if not (any(plus) and x6):
        return not (any(plus) or x6)
    for pick in (max, min):
        k, k6 = pick(pick(p) for p in plus if p), pick(x6)
        if _norm([{k: p[k]} for p in plus if k in p], [{k6: x6[k6]}]):
            return False
    return not _norm(plus, [x6])


def tuple_from_pair(a: QPolyUV, b: QPolyUV) -> PyTuple:
    """Build a Pythagorean tuple from any two quaternionic polynomials.

    The first four components are the components of ``a*b``; the last two are
    ``(b*conj(b) -/+ a*conj(a)) / 2``.  The products ``a*conj(a)`` and
    ``b*conj(b)`` are conjugation-fixed, hence real, and the identity

        norm(a*b) == norm(a)*norm(b)

    makes the result Pythagorean by construction.  The associated matrix is
    ``kron((a, conj(b)), (conj(a), b))``.  Per monomial, x5 and x6 are put
    over twice the lcm of the two norms' denominators and each reduced once.
    """
    x1, x2, x3, x4 = (a * b).components()
    na, nb = (_norm([p._ints]) for p in (a, b))
    x5: dict = {}
    x6: dict = {}
    for key in {**nb, **na}:
        n1, _, _, _, d1 = na.get(key, _ZERO)
        n2, _, _, _, d2 = nb.get(key, _ZERO)
        m = d1 if d1 == d2 else lcm(d1, d2)
        s1, s2, m = n1 * (m // d1), n2 * (m // d2), 2 * m
        for out, n in ((x5, s2 - s1), (x6, s2 + s1)):
            if n:
                g = gcd(n, m)
                out[key] = (n // g, 0, 0, 0, m // g)
    return PyTuple(x1, x2, x3, x4, RPolyUV._raw(x5), RPolyUV._raw(x6))


def tuple_to_sphere_map(
    t: PyTuple, u0, v0
) -> tuple[Fraction, Fraction, Fraction, Fraction, Fraction]:
    """Evaluate ``(x1/x6, ..., x5/x6)`` at a rational parameter point.

    For a Pythagorean tuple the result lies on the unit 4-sphere exactly.

    Raises:
        BasePoint: when ``x6`` vanishes at the point, where the map is undefined.
    """
    denom = t.x6.eval(u0, v0)
    if not denom:
        raise BasePoint(f"x6 vanishes at (u, v) = ({u0}, {v0})")
    return tuple(p.eval(u0, v0) / denom for p in (t.x1, t.x2, t.x3, t.x4, t.x5))  # type: ignore[return-value]

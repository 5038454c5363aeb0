"""Pythagorean 6-tuples of real polynomials and their Hermitian matrices.

A 6-tuple (x1, ..., x6) of real polynomials in u and v is *Pythagorean* when

    x1**2 + x2**2 + x3**2 + x4**2 + x5**2 == x6**2

holds identically.  Such tuples are exactly the ones whose Hermitian matrix

    [[x6 - x5,                x1 + x2*i + x3*j + x4*k],
     [x1 - x2*i - x3*j - x4*k,               x6 + x5]]

is degenerate: the commuting product of the off-diagonal entries is the norm
x1**2 + ... + x4**2, so rank collapse is the same condition as the identity.
Both routes are computed and compared on every membership query.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import BasePoint, NotTupleShaped, QuatsurfError
from .qmat import Mat2, is_degenerate
from .qpoly import QPolyUV, RPolyUV, quat_poly
from .quat import _json_array


@dataclass(frozen=True)
class PyTuple:
    """Six real polynomials in u and v, candidate sides of the sum-of-squares identity."""

    x1: RPolyUV
    x2: RPolyUV
    x3: RPolyUV
    x4: RPolyUV
    x5: RPolyUV
    x6: RPolyUV

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

    Also decides degeneracy of the Hermitian matrix and insists the two
    answers agree; a disagreement would mean a defect in one of the routes.
    """
    lhs = RPolyUV.zero()
    for p in (t.x1, t.x2, t.x3, t.x4, t.x5):
        lhs = lhs + p * p
    identity = lhs == t.x6 * t.x6
    degenerate = is_degenerate(tuple_to_matrix(t))
    if identity is not degenerate:
        raise QuatsurfError(
            "internal error: sum-of-squares identity and matrix degeneracy disagree"
        )
    return identity


def tuple_from_pair(a: QPolyUV, b: QPolyUV) -> PyTuple:
    """Build a Pythagorean tuple from any two quaternionic polynomials.

    The first four components are the components of ``a*b``; the last two are
    ``(b*conj(b) -/+ a*conj(a)) / 2``.  The products ``a*conj(a)`` and
    ``b*conj(b)`` are conjugation-fixed, hence real, and the identity

        norm(a*b) == norm(a)*norm(b)

    makes the result Pythagorean by construction.  The associated matrix is
    ``kron((a, conj(b)), (conj(a), b))``.
    """
    x1, x2, x3, x4 = (a * b).components()
    na = (a * a.conj()).components()[0]
    nb = (b * b.conj()).components()[0]
    return PyTuple(x1, x2, x3, x4, (nb - na) / 2, (nb + na) / 2)


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

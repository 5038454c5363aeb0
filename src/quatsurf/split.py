"""Rank-one factorization of degenerate 2x2 quaternionic polynomial matrices.

Given a degenerate matrix whose entries have v-degree at most 1, :func:`split`
produces vectors x, y with ``m_ij = x_i * y_j``.  The reduction is a loop of
elementary moves, each of which is undone on the factors afterwards:

* row swap, column swap, conjugate transpose (relabel the factor slots), and
* a column operation ``col1 -= col2 * x`` with x free of v, which turns a
  certificate (a, b) of the reduced matrix into (a, (b1 + b2*x, b2)).

While some entry depends on v, the v-linear parts ``m_ij = s_ij(u)*v + ...``
drive the reduction: a symmetry is chosen that puts a nonzero slope of
minimal degree at position 22 with a nonzero slope at 21, and the division
``s21 = s22*q + r`` feeds the column operation.  Each accepted step strictly
shrinks the pair (number of nonzero slopes, minimal slope degree) in
lexicographic order.  Once the matrix is v-free the same division game runs
on the entries themselves until one of them dies; a matrix with a zero entry
factors directly.  Any stall, which cannot happen for genuinely degenerate
input, raises :class:`NoProgress` rather than returning an unverified
certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NoProgress, NotDegenerate, PreconditionDegree
from .qmat import Mat2, Vec2, col_op, conj_transpose, is_degenerate, kron, swap_cols, swap_rows
from .qpoly import QPolyU, QPolyUV, left_div_rem, v_slices
from .quat import _json_object


@dataclass(frozen=True)
class SplitCertificate:
    """Verified factor pair: ``kron(x, y)`` reproduces the input exactly."""

    x: Vec2
    y: Vec2

    def to_json(self) -> dict:
        return {"x": self.x.to_json(), "y": self.y.to_json()}

    @classmethod
    def from_json(cls, obj) -> "SplitCertificate":
        _json_object(obj, {"x", "y"}, "a certificate must be an object with 'x' and 'y' vectors")
        return cls(Vec2.from_json(obj["x"]), Vec2.from_json(obj["y"]))


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
    q = move[1]
    return x, (y[0] + y[1] * q, y[1])


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


def split(m: Mat2) -> SplitCertificate:
    """Factor a degenerate matrix into ``kron(x, y)``.

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


def split_normalize(cert: SplitCertificate) -> SplitCertificate:
    """Rescale so the first nonzero entry of x has leading coefficient 1.

    The leading coefficient is taken at the largest (deg_u, deg_v) monomial
    in lexicographic order.  Rescaling multiplies x by ``c`` on the right and
    y by ``c.inverse()`` on the left, which leaves the product unchanged.
    A certificate with ``x = (0, 0)`` is returned as is.
    """
    first = cert.x.e1 if cert.x.e1 else cert.x.e2
    if not first:
        return cert
    lead = first.lead_coeff()
    c = lead.inverse()
    x = Vec2(cert.x.e1 * c, cert.x.e2 * c)
    y = Vec2(lead * cert.y.e1, lead * cert.y.e2)
    return SplitCertificate(x, y)

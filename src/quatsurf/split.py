"""Rank-one factorization of degenerate 2x2 quaternionic polynomial matrices.

Given a degenerate matrix whose entries have v-degree at most 1, :func:`split`
produces vectors x, y with ``m_ij = x_i * y_j``.  The reduction is a loop of
the elementary moves defined in :mod:`quatsurf.qmat`, replayed here, each of
which is undone on the factors afterwards:

* row swap, column swap, conjugate transpose (relabel the factor slots), and
* a scaled column operation ``col1 = (col1 - col2*x) * c^-1`` with x free of
  v and c a nonzero quaternion, which turns a certificate (a, b) of the
  reduced matrix into (a, (b1*c + b2*x, b2)).

The scale c is the leading coefficient of the new first column's driver at
position 21, or at 11 when that one is zero, so the column is monic there; a
zero driver column is scaled by 1.  Without the scale, coefficients swell
over a long reduction: on dense products of u-degree 3 with 3-digit heights,
raw certificates held integers of up to 1697 bits, and with it they hold at
most 100.  Which certificate comes out depends on the reduction path; its
normalized form (:func:`split_normalize`) does not.

One division game drives the reduction, on the v-slices of the entries
``m_ij = s_ij(u)*v + c_ij(u)``, cut once from the input: the eight slices are
the whole reduction state.  The drivers are the slopes ``s_ij`` while any is
nonzero, and the v-free parts ``c_ij`` after that.  A symmetry is chosen that
puts a nonzero driver of minimal degree at position 22 with a nonzero driver
at 21, and the division ``d21 = d22*q + r`` feeds the column operation.  Each
accepted step strictly shrinks the pair (number of nonzero drivers, minimal
driver degree) in lexicographic order, and scaling does not change it; the
other four slices follow their entries through the same moves, the same
``q`` and the same scale.  Once an entry is zero the
matrix is assembled from its slices; it has a zero row or column and factors
by inspection.

Degeneracy is tested up front only on the extreme terms of the pivot
identity of :func:`is_degenerate`: the leading and trailing terms of
``c*conj(a)*b`` and ``N(a)*d`` are products of the entries' own extreme
terms, so a full-rank matrix whose sides differ there, or whose zero entries
settle the identity, is rejected before any reduction.  Past that test the
certificate is re-multiplied and compared with the input, and a rank-one
product is degenerate, so a passing check certifies it.  A full-rank input
whose extreme terms agree makes the reduction stall or the check fail; only
then does :func:`is_degenerate` run on the whole matrix, to tell
:class:`NotDegenerate` from a genuine stall, which raises :class:`NoProgress`
rather than returning an unverified certificate.
"""

from __future__ import annotations

from .errors import NoProgress, NotDegenerate, PreconditionDegree
from .qmat import _CT, _SC, _SR, Mat2, Vec2, _full_rank_witness, _move, is_degenerate, kron
from .qpoly import QPolyU, QPolyUV, _from_v_slices, left_div_rem, v_slices
from .quat import _json_object, _Value


class SplitCertificate(_Value):
    """Verified factor pair: ``kron(x, y)`` reproduces the input exactly."""

    __slots__ = ("x", "y")

    def __init__(self, x: Vec2, y: Vec2):
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    def to_json(self) -> dict:
        return {"x": self.x.to_json(), "y": self.y.to_json()}

    @classmethod
    def from_json(cls, obj) -> "SplitCertificate":
        _json_object(obj, {"x", "y"}, "a certificate must be an object with 'x' and 'y' vectors")
        return cls(Vec2.from_json(obj["x"]), Vec2.from_json(obj["y"]))


# Moves recorded while reducing, replayed backwards over the factors: the
# basic symmetries of qmat and the column operation.
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


def _undo_on_factors(x: tuple[QPolyUV, QPolyUV], y: tuple[QPolyUV, QPolyUV], move):
    kind = move[0]
    if kind == _SR:
        return (x[1], x[0]), y
    if kind == _SC:
        return x, (y[1], y[0])
    if kind == _CT:
        return (y[0].conj(), y[1].conj()), (x[0].conj(), x[1].conj())
    _, q, c = move
    return x, (y[0]._scaled(c)._add_mul(y[1], q), y[1])


def _measure(drivers) -> tuple[int, int]:
    degrees = [s.degree for s in drivers if s]
    return (len(degrees), min(degrees, default=-1))


def _factor_with_zero(m: Mat2) -> tuple[tuple[QPolyUV, QPolyUV], tuple[QPolyUV, QPolyUV]]:
    """Factor a matrix that has at least one zero entry, by inspection.

    The zero matrix factors as ``x = (0, 0)``, ``y = (1, 0)``.  Otherwise
    degeneracy forces the product of a zero entry's two neighbors to vanish,
    and the coefficient ring has no zero divisors, so a whole row or column is
    zero.  When more than one is, the first in the order below is read off.
    """
    a, b, c, d = m.entries()
    one = QPolyUV.one()
    zero = QPolyUV.zero()
    if not (a or b or c or d):
        return (zero, zero), (one, zero)
    if not (c or d):
        return (one, zero), (a, b)
    if not (b or d):
        return (a, c), (one, zero)
    if not (a or c):
        return (b, d), (zero, one)
    if not (a or b):
        return (zero, one), (c, d)
    raise NoProgress("a zero entry with both neighbors nonzero contradicts degeneracy")


def _step(slopes, consts) -> tuple[list, tuple, tuple]:
    """One division step on the drivers, chosen by the progress guard.

    The drivers are the v-slopes while some slope is nonzero, and the v-free
    parts after that; the other four slices follow.  Tries every symmetry
    that exposes nonzero drivers at 22 and 21, preferring a minimal-degree
    pivot, and accepts the first column operation that strictly shrinks
    (driver count, minimal driver degree).  Only the drivers go through the
    symmetries while ranking.  For degenerate input such a step always
    exists: on v-free entries the first candidate divides by a least-degree
    pivot, so its quotient is nonzero and its remainder smaller.  The guard
    protects against silent loops.

    Returns the moves and the slopes and v-free parts after them.  The new
    first column of the drivers is what the ranking computed, ``d11 - d12*q``
    and the remainder ``r = d21 - d22*q``, right-multiplied by ``c^-1``,
    where ``c`` is the leading coefficient of ``r``, or of ``d11 - d12*q``
    when ``r`` is zero, or 1 when both are; the following slices take the
    same moves, the same ``q`` and the same ``c^-1``, which costs nothing
    once they are the zero slopes.  The column move is recorded as
    ``(_CO, q, c)`` and undone on the factors as ``y1 -> y1*c + y2*q``.
    """
    by_slope = any(slopes)
    drivers, others = (slopes, consts) if by_slope else (consts, slopes)
    # Every symmetry's proper prefix precedes it in _SYMMETRIES.
    derived = {(): drivers}
    cur_measure = _measure(drivers)
    candidates = []
    for idx, sym in enumerate(_SYMMETRIES):
        if sym:
            derived[sym] = _move(derived[sym[:-1]], sym[-1])
        d = derived[sym]
        if d[3] and d[2]:
            candidates.append((d[3].degree, idx, sym, d))
    candidates.sort(key=lambda c: (c[0], c[1]))
    for _, _, sym, d in candidates:
        q, r = left_div_rem(d[2], d[3])
        if not q:
            continue
        d11 = d[0]._add_mul(d[1], q, -1)
        if _measure((d11, d[1], r, d[3])) < cur_measure:
            for op in sym:
                others = _move(others, op)
            o11, o12, o21, o22 = others
            o11, o21 = o11._add_mul(o12, q, -1), o21._add_mul(o22, q, -1)
            c = (r or d11 or QPolyU.one()).lead
            inv = c.inverse()
            d11, r, o11, o21 = d11._scaled(inv), r._scaled(inv), o11._scaled(inv), o21._scaled(inv)
            driven, others = (d11, d[1], r, d[3]), (o11, o12, o21, o22)
            moves = [(op,) for op in sym] + [(_CO, q.to_uv(), c)]
            return (moves, driven, others) if by_slope else (moves, others, driven)
    raise NoProgress("no symmetry and division step shrinks the measure of the drivers")


def _reduce(m: Mat2) -> SplitCertificate:
    """Run the reduction on the v-slices of ``m`` and verify the certificate it yields.

    Raises:
        NoProgress: if the reduction stalls or the certificate does not
            reproduce ``m``, which is certain for a full-rank matrix; a
            full-rank matrix gets here only if the extreme terms of its
            pivot identity agree.
    """
    step_cap = (1 + max(e.deg_u for e in m.entries())) * 16

    moves: list = []
    slopes, consts = zip(*(v_slices(e) for e in m.entries()))
    steps = {"v-dependence": 0, "v-free": 0}
    while all(s or c for s, c in zip(slopes, consts)):
        phase = "v-dependence" if any(slopes) else "v-free"
        steps[phase] += 1
        if steps[phase] > step_cap:
            raise NoProgress(f"{phase} reduction exceeded its step cap")
        step, slopes, consts = _step(slopes, consts)
        moves.extend(step)
    x, y = _factor_with_zero(Mat2(*map(_from_v_slices, slopes, consts)))

    for move in reversed(moves):
        x, y = _undo_on_factors(x, y, move)

    cert = SplitCertificate(Vec2(*x), Vec2(*y))
    if kron(cert.x, cert.y) != m:
        raise NoProgress("internal error: certificate failed verification")
    return cert


def split(m: Mat2) -> SplitCertificate:
    """Factor a degenerate matrix into ``kron(x, y)``.

    Preconditions:
        every entry has v-degree at most 1, and the matrix is degenerate.

    The zero matrix factors as ``x = (0, 0)``, ``y = (1, 0)``.  A matrix
    whose pivot identity fails on its leading or trailing terms, or on a zero
    entry, is rejected before any reduction.  Otherwise the returned
    certificate is re-multiplied and compared with the input before being
    handed back; a rank-one product is degenerate, so that check is what
    certifies degeneracy.  :func:`is_degenerate` runs on the whole matrix
    only when the reduction or the check fails, to tell a full-rank input
    from a stall.

    Raises:
        PreconditionDegree: if some entry has v-degree 2 or more.
        NotDegenerate: if the matrix has full rank; its ``witness`` is
            ``"leading term"``, ``"trailing term"`` or ``"identity"``.
        NoProgress: if the reduction stalls (not expected for valid input).
    """
    for e in m.entries():
        if e.deg_v >= 2:
            raise PreconditionDegree("matrix entries must have v-degree at most 1")
    witness = _full_rank_witness(m)
    if witness is None:
        try:
            return _reduce(m)
        except NoProgress:
            if is_degenerate(m):
                raise
        witness = "identity"
    raise NotDegenerate("matrix rows are not left-linearly dependent", witness)


def split_normalize(cert: SplitCertificate) -> SplitCertificate:
    """Rescale so the first nonzero entry of x has leading coefficient 1.

    The leading coefficient is taken at the largest (deg_u, deg_v) monomial
    in lexicographic order.  Rescaling multiplies x by ``c`` on the right and
    y by ``c.inverse()`` on the left, which leaves the product unchanged.
    A certificate with ``x = (0, 0)`` is returned as is.

    For a nonzero matrix, ``split_normalize(split(m))`` is the contract:
    raw certificates depend on the reduction path, which may change between
    versions, but the normalized one does not.  Factoring ``m`` after any of
    the eight symmetries, and mapping the certificate back, normalizes to
    the same certificate.  Normalizing rescales by a constant only and moves
    no polynomial factor between x and y; where a common factor ends is the
    reduction's.  For ``m = kron(x*g, y)`` with x free of v, the common
    right factor g ends in y, and for the conjugate transpose of such a
    product ``conj(g)`` ends in x.  The zero matrix has no such form: its y
    is free.
    """
    first = cert.x.e1 if cert.x.e1 else cert.x.e2
    if not first:
        return cert
    lead = first.lead_coeff()
    c = lead.inverse()
    x = Vec2(cert.x.e1 * c, cert.x.e2 * c)
    y = Vec2(lead * cert.y.e1, lead * cert.y.e2)
    return SplitCertificate(x, y)

"""Rank-one factorization of degenerate 2x2 quaternionic polynomial matrices.

Given a degenerate matrix whose entries have v-degree at most 1, :func:`split`
produces vectors x, y with ``m_ij = x_i * y_j``.  Each entry is cut once into
its v-slices, ``m_ij = s_ij(u)*v + c_ij(u)``.  Only four of the eight slices,
the drivers, go through a reduction: the v-free parts ``c_ij`` when every
slope is zero, and the slopes ``s_ij`` otherwise.  A matrix with a zero
entry needs no reduction: it has a zero row or column and factors by
inspection.

The reduction is a loop of the elementary moves defined in
:mod:`quatsurf.qmat`, replayed here on the drivers, each of which is undone
on the factors afterwards:

* row swap, column swap, conjugate transpose (relabel the factor slots), and
* a scaled column operation ``col1 = (col1 - col2*x) * c^-1`` with x free of
  v and c a nonzero quaternion, which turns a certificate (a, b) of the
  reduced matrix into (a, (b1*c + b2*x, b2)).

A symmetry is chosen that puts a nonzero driver of minimal degree at
position 22 with a nonzero driver at 21, and the division ``d21 = d22*q + r``
feeds the column operation.  Each accepted step strictly shrinks the pair
(number of nonzero drivers, minimal driver degree) in lexicographic order,
and scaling does not change it.  The scale c is the leading coefficient of
the new first column's driver at position 21, or at 11 when that one is
zero, so the column is monic there; a zero driver column is scaled by 1.
Without the scale, coefficients swell over a long reduction.  Once a driver
is zero, the drivers' zero row or column is read off, and undoing the moves
gives their certificate.

For a v-free matrix that is the certificate.  Otherwise it is a certificate
``(xs, ys)`` of the slope matrix, and one factor of the matrix is free of v,
since ``deg_v(x_i) + deg_v(y_j) <= 1``.  That factor is a primitive part of
``xs`` or ``ys``, and the other comes by exact division of the v-slices:

* y side: y is ``ys`` over its left gcd, made monic on the left, and each
  ``x_i`` is the right quotient of ``m_ij`` by ``y_j``;
* x side: x is ``xs`` over its right gcd, made monic on the right, and each
  ``y_j`` is the left quotient of ``m_ij`` by ``x_i``.

A remainder or a product that differs from the matrix passes to the next
side.  The y side comes first, so a v-dependent middle factor p of
``kron(x0*p, y0)`` ends in x.  It is tried only when each row's
``[[s_i1, s_i2], [c_i1, c_i2]]`` passes the extreme-term test below, as a
rank-one row does; a product ``kron(x, y)`` with x free of v seldom passes,
and goes to the x side at once.  In both sides the v-free factor is
primitive, so a common factor ends in the other one.  Which certificate
comes out depends on the reduction path; its normalized form
(:func:`split_normalize`) does not.

Degeneracy is tested up front only on the extreme terms of the pivot
identity of :func:`is_degenerate`: the leading and trailing terms of
``c*conj(a)*b`` and ``N(a)*d`` are products of the entries' own extreme
terms, so a full-rank matrix whose sides differ there, or whose zero entries
settle the identity, is rejected before any reduction.  Past that test the
certificate is re-multiplied and compared with the input, and a rank-one
product is degenerate, so a passing check certifies it.  A full-rank input
whose extreme terms agree makes the reduction stall or every candidate fail
that check; only then does :func:`is_degenerate` run on the whole matrix, to
tell :class:`NotDegenerate` from a genuine stall, which raises
:class:`NoProgress` rather than returning an unverified certificate.
"""

from __future__ import annotations

from .errors import NoProgress, NotDegenerate, PreconditionDegree
from .qmat import _CT, _SC, _SR, Mat2, Vec2, _full_rank_witness, _move, is_degenerate, kron
from .qpoly import QPolyU, _from_v_slices, left_div_rem, right_div_rem, v_slices
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


def _undo_on_factors(x: tuple, y: tuple, move):
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


def _factor_with_zero(a, b, c, d) -> tuple[tuple, tuple]:
    """Factor a matrix ``[[a, b], [c, d]]`` that has a zero entry, by inspection.

    The factors have the entries' polynomial type.  The zero matrix factors
    as ``x = (0, 0)``, ``y = (1, 0)``.  Otherwise degeneracy forces the
    product of a zero entry's two neighbors to vanish, and the coefficient
    ring has no zero divisors, so a whole row or column is zero.  When more
    than one is, the first in the order below is read off.
    """
    one, zero = type(a).one(), type(a).zero()
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


def _step(drivers) -> tuple[list, tuple]:
    """One division step on the drivers, chosen by the progress guard.

    Tries every symmetry that exposes nonzero drivers at 22 and 21, preferring
    a minimal-degree pivot, and accepts the first column operation that
    strictly shrinks (driver count, minimal driver degree).  For degenerate
    drivers such a step always exists: the first candidate divides by a
    least-degree pivot, so its quotient is nonzero and its remainder smaller.
    The guard protects against silent loops.

    Returns the moves and the drivers after them.  The new first column is
    ``d11 - d12*q`` and the remainder ``r = d21 - d22*q``, right-multiplied
    by ``c^-1``, where ``c`` is the leading coefficient of ``r``, or of
    ``d11 - d12*q`` when ``r`` is zero, or 1 when both are.  The column move
    is recorded as ``(_CO, q, c)`` and undone on the factors as
    ``y1 -> y1*c + y2*q``.
    """
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
            c = (r or d11 or QPolyU.one()).lead
            inv = c.inverse()
            moves = [(op,) for op in sym] + [(_CO, q.to_uv(), c)]
            return moves, (d11._scaled(inv), d[1], r._scaled(inv), d[3])
    raise NoProgress("no symmetry and division step shrinks the measure of the drivers")


def _certificate(drivers, step_cap: int, phase: str) -> tuple[tuple, tuple]:
    """A factor pair of the drivers' matrix: reduce to a zero entry, read off, undo the moves."""
    moves: list = []
    steps = 0
    while all(drivers):
        steps += 1
        if steps > step_cap:
            raise NoProgress(f"{phase} reduction exceeded its step cap")
        step, drivers = _step(drivers)
        moves.extend(step)
    x, y = _factor_with_zero(*drivers)
    for move in reversed(moves):
        x, y = _undo_on_factors(x, y, move)
    return x, y


def _primitive(pair: tuple, left: bool) -> tuple:
    """``(p1, p2)`` with ``pair = g*(p1, p2)`` for the left gcd ``g``, or ``(p1, p2)*g`` for the right one.

    Euclid's algorithm finds ``g`` by the division that keeps the divisor on
    that side, and the result is scaled on that side so that its first
    nonzero entry has leading coefficient 1.
    """
    div = left_div_rem if left else right_div_rem
    a, b = pair
    while b:
        a, b = b, div(a, b)[1]
    if a.degree:
        pair = tuple(div(e, a)[0] for e in pair)
    inv = next(e for e in pair if e).lead.inverse()
    return tuple(inv * e for e in pair) if left else tuple(e._scaled(inv) for e in pair)


def _cofactor(slopes, consts, known: tuple, left: bool) -> tuple | None:
    """The factor that goes with the v-free factor ``known``, or None on a remainder.

    With ``left``, ``known`` is x and ``y_j`` the left quotient of ``m_ij``
    by ``x_i``; otherwise ``known`` is y and ``x_i`` the right quotient of
    ``m_ij`` by ``y_j``.  Only the least-degree nonzero entry of ``known``
    divides; the caller's product check covers the other.
    """
    div = left_div_rem if left else right_div_rem
    k = min((e.degree, k) for k, e in enumerate(known) if e)[1]
    factor = []
    for n in (0, 1):
        idx = 2 * k + n if left else 2 * n + k
        (q1, r1), (q0, r0) = div(slopes[idx], known[k]), div(consts[idx], known[k])
        if r1 or r0:
            return None
        factor.append(_from_v_slices(q1, q0))
    return tuple(factor)


def _sides(slopes, consts, step_cap: int):
    """Candidate factor pairs of a v-dependent matrix from the slopes' certificate.

    The y side comes first, and only when each row's
    ``[[s_i1, s_i2], [c_i1, c_i2]]`` passes the extreme-term test of
    :func:`_full_rank_witness`, as a rank-one row ``kron((x1_i, x0_i), y)``
    does; then the x side (see the module docstring).
    """
    xs, ys = _certificate(slopes, step_cap, "v-dependence")
    # _full_rank_witness reads only the entries' term maps, so u-polynomials serve.
    rows = ((slopes[k], slopes[k + 1], consts[k], consts[k + 1]) for k in (0, 2))
    if all(_full_rank_witness(Mat2(*row)) is None for row in rows):
        y = _primitive(ys, left=True)
        x = _cofactor(slopes, consts, y, left=False)
        if x:
            yield x, tuple(e.to_uv() for e in y)
    x = _primitive(xs, left=False)
    y = _cofactor(slopes, consts, x, left=True)
    if y:
        yield tuple(e.to_uv() for e in x), y


def _reduce(m: Mat2) -> SplitCertificate:
    """Factor ``m`` through its drivers; the first candidate whose product is ``m`` is returned.

    Raises:
        NoProgress: if the reduction stalls or no candidate reproduces
            ``m``, which is certain for a full-rank matrix; a full-rank
            matrix gets here only if the extreme terms of its pivot identity
            agree.
    """
    entries = m.entries()
    if not all(entries):
        candidates = [_factor_with_zero(*entries)]
    else:
        step_cap = (1 + max(e.deg_u for e in entries)) * 16
        slopes, consts = zip(*map(v_slices, entries))
        if any(slopes):
            candidates = _sides(slopes, consts, step_cap)
        else:
            x, y = _certificate(consts, step_cap, "v-free")
            candidates = [(tuple(e.to_uv() for e in x), tuple(e.to_uv() for e in y))]
    for x, y in candidates:
        cert = SplitCertificate(Vec2(*x), Vec2(*y))
        if kron(cert.x, cert.y) == m:
            return cert
    raise NoProgress("internal error: certificate failed verification")


def split(m: Mat2) -> SplitCertificate:
    """Factor a degenerate matrix into ``kron(x, y)``.

    Preconditions:
        every entry has v-degree at most 1, and the matrix is degenerate.

    The zero matrix factors as ``x = (0, 0)``, ``y = (1, 0)``.  A matrix
    whose pivot identity fails on its leading or trailing terms, or on a zero
    entry, is rejected before any reduction.  Otherwise only the drivers are
    reduced: the slopes if the matrix depends on v, else the v-free parts.
    A v-dependent matrix then gets its v-free factor from the slopes'
    certificate and the other factor by exact division.  The returned
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
    product ``conj(g)`` ends in x.  For ``m = kron(x*p, y)`` with x and y
    free of v and p not, p ends in x.  The zero matrix has no such form: its
    y is free.
    """
    first = cert.x.e1 if cert.x.e1 else cert.x.e2
    if not first:
        return cert
    lead = first.lead_coeff()
    c = lead.inverse()
    x = Vec2(cert.x.e1 * c, cert.x.e2 * c)
    y = Vec2(lead * cert.y.e1, lead * cert.y.e2)
    return SplitCertificate(x, y)

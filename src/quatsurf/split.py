"""Rank-one factorization of degenerate 2x2 quaternionic polynomial matrices.

Given a degenerate matrix whose entries have v-degree at most 1, :func:`split`
produces vectors x, y with ``m_ij = x_i * y_j``.  A matrix with a zero entry
has a zero row or column and factors by inspection.  Otherwise each entry is
cut once into its v-slices, ``m_ij = s_ij(u)*v + c_ij(u)``, and four of the
eight slices are the drivers: the slopes ``s_ij`` if any is nonzero, else the
v-free parts ``c_ij``.

With no zero entry every ``x_i`` and ``y_j`` is nonzero, so
``deg_v(x_i) + deg_v(y_j) <= 1`` makes one factor free of v, and the drivers
form a rank-one matrix as well: ``kron(x, y)`` itself for a v-free matrix,
else ``kron(x, s(y))`` or ``kron(s(x), y)``, ``s`` taking the slopes of the
v-dependent factor.  A nonzero column of a rank-one ``kron(a, b)`` is
``(a1, a2)*b_j``, so its right-primitive part (the column over its right
gcd, made monic on the right) is a's.  One rule reads the factors off: x is
the right-primitive part of the first nonzero driver column, and each
``y_j`` is the left quotient of ``m_kj`` by ``x_k``, found by exact division
of the v-slices.  This is the x side, for a v-free x.  The y side, for a
v-free y, is the same rule on ``conj_transpose(m)``, since that is
``kron(conj(y), conj(x))``; the pair found there is conjugated and swapped.

A remainder or a product that differs from the matrix passes to the next
side.  The y side comes first.  It is tried only when each row's
``[[s_i1, s_i2], [c_i1, c_i2]]`` passes the extreme-term test below, as a
rank-one row does; every row of a v-free matrix passes, and a product
``kron(x, y)`` with x free of v seldom does, and goes to the x side at once.

Where a common factor ends follows from this: the factor read off the
drivers is primitive, so every common factor ends in the one found by
division.  For a v-free matrix the y side succeeds, so a common right factor
of x and a common left factor of y both end in x.  For a v-dependent matrix
they end in the v-dependent factor: a middle factor p of ``kron(x0*p, y0)``,
with x0 and y0 free of v, ends in x, and a common right factor g of a v-free
x in ``kron(x*g, y)`` ends in y.

Degeneracy is tested up front only on the extreme terms of the pivot
identity of :func:`is_degenerate`: the leading and trailing terms of
``c*conj(a)*b`` and ``N(a)*d`` are products of the entries' own extreme
terms, so a full-rank matrix whose sides differ there, or whose zero entries
settle the identity, is rejected before any factor is read.  Past that test
each candidate is checked against the input.  Exact division with zero
remainders has proved one row or column of its product already, so only the
other two products are formed and compared; a matrix with a zero entry has
all four compared.  A rank-one product is degenerate, so a passing check
certifies it.  A full-rank input whose extreme terms agree makes every
candidate fail that check; only then does :func:`is_degenerate` run on the
whole matrix, to tell :class:`NotDegenerate` from a failure on a degenerate
matrix, which raises :class:`NoProgress` rather than returning an unverified
certificate.
"""

from __future__ import annotations

from .errors import NoProgress, NotDegenerate, PreconditionDegree
from .qmat import Mat2, Vec2, _full_rank_witness, conj_transpose, is_degenerate
from .qpoly import _from_v_slices, left_div_rem, right_div_rem, v_slices
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


def _primitive(pair: tuple) -> tuple:
    """The right-primitive part ``(p1, p2)``, with ``pair = (p1, p2)*g`` for the right gcd ``g``.

    Euclid's algorithm finds ``g`` by right division.  Each nonzero remainder
    is made monic by a constant on the left, which changes ``g`` by a unit
    only and keeps coefficients from swelling.  The result is scaled on the
    right so that its first nonzero entry has leading coefficient 1.
    """
    a, b = pair
    while b:
        r = right_div_rem(a, b)[1]
        if r:
            r = r._scaled(r.lead.inverse(), left=True)
        a, b = b, r
    if a.degree:
        pair = tuple(right_div_rem(e, a)[0] for e in pair)
    inv = next(e for e in pair if e).lead.inverse()
    return tuple(e._scaled(inv) for e in pair)


def _cofactor(slopes, consts, x: tuple) -> tuple[tuple, int] | None:
    """The y that goes with the v-free x, and the index ``k`` of the divisor; None on a remainder.

    Each ``y_j`` is the left quotient of ``m_kj`` by ``x_k``, for the
    least-degree nonzero entry ``x[k]``.  A zero remainder in both v-slices
    proves row k of ``kron(x, y)`` equal to ``m``; the caller checks the
    other row.
    """
    k = min((e.degree, k) for k, e in enumerate(x) if e)[1]
    y = []
    for j in (0, 1):
        (q1, r1), (q0, r0) = left_div_rem(slopes[2 * k + j], x[k]), left_div_rem(consts[2 * k + j], x[k])
        if r1 or r0:
            return None
        y.append(_from_v_slices(q1, q0))
    return tuple(y), k


def _x_side(drivers, slopes, consts):
    """The candidate read off the first nonzero driver column, if division leaves no remainder.

    x is the column's right-primitive part and y its :func:`_cofactor`; the
    candidate comes with the two positions ``(i, j)`` left unproven.
    """
    x = _primitive(next(col for col in (drivers[::2], drivers[1::2]) if any(col)))
    found = _cofactor(slopes, consts, x)
    if found:
        y, k = found
        yield tuple(e.to_uv() for e in x), y, ((1 - k, 0), (1 - k, 1))


def _candidates(drivers, slopes, consts):
    """Candidate factor pairs of a matrix with no zero entry, read off its drivers.

    Each comes with the two positions ``(i, j)`` that division left
    unproven.  The y side comes first, and only when each row's
    ``[[s_i1, s_i2], [c_i1, c_i2]]`` passes the extreme-term test of
    :func:`_full_rank_witness`, as a rank-one row ``kron((x1_i, x0_i), y)``
    does: it is :func:`_x_side` on the conjugate transpose, whose pair is
    conjugated and swapped, and whose unproven positions are transposed.
    Then the x side, :func:`_x_side` on the matrix itself.
    """
    # A Mat2 of u-polynomials serves: _full_rank_witness reads only term maps, conj_transpose conjugates.
    rows = ((slopes[k], slopes[k + 1], consts[k], consts[k + 1]) for k in (0, 2))
    if all(_full_rank_witness(Mat2(*row)) is None for row in rows):
        transposed = (conj_transpose(Mat2(*p)).entries() for p in (drivers, slopes, consts))
        for xt, yt, unproven in _x_side(*transposed):
            yield tuple(e.conj() for e in yt), tuple(e.conj() for e in xt), tuple((j, i) for i, j in unproven)
    yield from _x_side(drivers, slopes, consts)


def _reduce(m: Mat2) -> SplitCertificate:
    """Factor ``m``; the first candidate whose product is ``m`` is returned.

    A matrix with a zero entry is read off by :func:`_factor_with_zero`, and
    all four products of its candidate are checked.  Any other goes through
    its drivers, the slopes if any is nonzero, else the v-free parts, and
    only the two products that division left unproven are checked.

    Raises:
        NoProgress: if no candidate reproduces ``m``, which is certain for a
            full-rank matrix; a full-rank matrix gets here only if the
            extreme terms of its pivot identity agree.
    """
    entries = m.entries()
    if not all(entries):
        candidates = [(*_factor_with_zero(*entries), ((0, 0), (0, 1), (1, 0), (1, 1)))]
    else:
        slopes, consts = zip(*map(v_slices, entries))
        candidates = _candidates(slopes if any(slopes) else consts, slopes, consts)
    for x, y, unproven in candidates:
        if all(x[i] * y[j] == entries[2 * i + j] for i, j in unproven):
            return SplitCertificate(Vec2(*x), Vec2(*y))
    raise NoProgress("internal error: certificate failed verification")


def split(m: Mat2) -> SplitCertificate:
    """Factor a degenerate matrix into ``kron(x, y)``.

    Preconditions:
        every entry has v-degree at most 1, and the matrix is degenerate.

    The zero matrix factors as ``x = (0, 0)``, ``y = (1, 0)``.  A matrix
    whose pivot identity fails on its leading or trailing terms, or on a zero
    entry, is rejected before any factor is read.  A matrix with a zero entry
    is read off by inspection.  Otherwise the v-free factor is the primitive
    part of one row or column of the drivers, the slopes if the matrix
    depends on v, else the v-free parts, and the other factor comes by exact
    division.  Before the certificate is handed back, each product
    ``x_i * y_j`` that the division did not prove is formed and compared
    with the input: one row or column of ``kron(x, y)`` with no zero entry,
    all four otherwise.  A rank-one product is degenerate, so that check is
    what certifies degeneracy.  :func:`is_degenerate` runs on
    the whole matrix only when every candidate fails the check, to tell a
    full-rank input from a failure on a degenerate one.

    Raises:
        PreconditionDegree: if some entry has v-degree 2 or more.
        NotDegenerate: if the matrix has full rank; its ``witness`` is
            ``"leading term"``, ``"trailing term"`` or ``"identity"``.
        NoProgress: if no candidate reproduces a degenerate matrix (not
            expected for valid input).
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
    raw certificates depend on how :func:`split` reads its factors off,
    which may change between versions, but the normalized one does not.
    Factoring ``m`` after any of the eight symmetries, and mapping the
    certificate back, normalizes to the same certificate.  Normalizing
    rescales by a constant only and moves no polynomial factor between x
    and y; where a common factor ends is :func:`split`'s rule (see the
    module docstring).  In a v-free matrix with no zero entry, y is
    primitive and every common factor ends in x.  For ``m = kron(x*g, y)``
    with x free of v and y not, the common right factor g ends in y, and for
    the conjugate transpose of such a product ``conj(g)`` ends in x.  For
    ``m = kron(x*p, y)`` with x and y free of v and p not, p ends in x.  The
    zero matrix has no such form: its y is free.
    """
    first = cert.x.e1 if cert.x.e1 else cert.x.e2
    if not first:
        return cert
    lead = first.lead_coeff()
    c = lead.inverse()
    x = Vec2(cert.x.e1 * c, cert.x.e2 * c)
    y = Vec2(lead * cert.y.e1, lead * cert.y.e2)
    return SplitCertificate(x, y)

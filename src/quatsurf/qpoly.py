"""Polynomials with quaternion coefficients in central variables u and v.

Two classes share one sparse core, ``_SparseUV``:

* :class:`QPolyUV` is a bivariate polynomial; u and v commute with every
  coefficient, so only coefficient order matters in products.  Its v-free
  case is the ring of polynomials in u, on which the two-sided divisions
  :func:`left_div_rem` and :func:`right_div_rem` run for split's Euclid
  and quotients.
* :class:`RPolyUV` restricts coefficients to rationals.  Real polynomials are
  central in the quaternionic ring, which several identities below rely on.

Every coefficient is stored in the canonical integer form that
:class:`Quaternion` holds (see :mod:`quatsurf.quat`): a map from exponent
pairs ``(du, dv)`` to tuples ``(w, x, y, z, d)`` for the quaternion
``(w + xi + yj + zk)/d``, with the rational ``n/d`` stored as
``(n, 0, 0, 0, d)``, so a real polynomial's map is also a quaternionic one.
A stored tuple has ``d > 0``, entries whose gcd is 1 and a nonzero
numerator, so equal polynomials have equal maps.  Sums, products,
conjugates and division steps run on these tuples, with a denominator per
coefficient, never per polynomial; each output coefficient is canonicalized
once.  A product of two polynomials (``_qmul``) takes 16 integer
multiplications per term pair.  A constant of either ring, on either side,
and a real polynomial's rational divisor scale through ``_scaled``: one
Hamilton product per term, each canonicalized on its own.
A division step updates only the terms it changes: its top term cancels and
is dropped, and each lower term of the divisor changes one term of the
remainder, by one Hamilton product subtracted in place.  A monic divisor
skips the quotient product, since its quotient term is the top term itself.
Two real kernels skip the quaternion product where a value is real:
``_norm`` forms ``p*conj(p)``, or a signed sum of such norms, from one dot
product per unordered term pair, and ``_rqmul`` multiplies a real map into a
quaternion map with 4 multiplications per term pair.
Values are built only where a caller reads them (``terms``, ``coeff``,
``lead``, ``eval``, the JSON codec and ``repr``): a :class:`Quaternion`
wraps the stored tuple as it is, and a ``Fraction`` is built from it.

Because the coefficient ring has no zero divisors and the variables are
central, nonzero polynomials multiply to nonzero polynomials and degrees add
per variable.  The zero polynomial has degree -1 in every variable.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from fractions import Fraction
from math import gcd, lcm

from .errors import DegreeTooHigh, InvalidInput
from .quat import Quaternion, _canon, _coerce as _coerce_rational, _int_repr, _inverse, _json_object, _neg, _operand
from .quat import _quat_json
from .quat import _ONE, _hamilton, _product, _ratio_to_str, _sum, rational_from_str

# region integer coefficients


def _combine(p: dict, q: dict, sign: int) -> dict:
    """``p + sign*q`` on term maps."""
    out = dict(p)
    for key, b in q.items():
        a = out.pop(key, None)
        c = (b if sign > 0 else _neg(b)) if a is None else _sum(a, b, sign)
        if c is not None:
            out[key] = c
    return out


def _terms(out: dict) -> dict:
    """The canonical term map of accumulated quaternion tuples: each over its gcd, zeros dropped."""
    return {key: c for key, t in out.items() if (c := _canon(t)) is not None}


def _qmul(p: dict, q: dict) -> dict:
    """``p*q`` on quaternion term maps, with ``p`` on the left.

    Integers accumulate per exponent pair over the product of the two
    denominators or, where those differ between terms, their lcm; each output
    coefficient is then reduced by its gcd once (:func:`_terms`).  Each term
    pair costs 16 integer multiplications.
    """
    out: dict = {}
    get = out.get
    for (u1, v1), (a0, a1, a2, a3, da) in p.items():
        for (u2, v2), (b0, b1, b2, b3, db) in q.items():
            key = (u1 + u2, v1 + v2)
            w = a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3
            x = a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2
            y = a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1
            z = a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0
            d = da * db
            cur = get(key)
            if cur is None:
                out[key] = (w, x, y, z, d)
            elif cur[4] == d:
                out[key] = (cur[0] + w, cur[1] + x, cur[2] + y, cur[3] + z, d)
            else:
                c0, c1, c2, c3, dc = cur
                m = lcm(dc, d)
                s, t = m // dc, m // d
                out[key] = (c0 * s + w * t, c1 * s + x * t, c2 * s + y * t, c3 * s + z * t, m)
    return _terms(out)


def _norm(plus: Iterable[dict], minus: Iterable[dict] = ()) -> dict:
    """The norms ``p*conj(p)`` of the quaternion maps in ``plus``, less those in ``minus``, as one real map.

    ``p*conj(p)`` is real: the term pairs ``(k, l)`` and ``(l, k)`` give
    conjugate coefficients, whose sum is twice the dot product of their
    numerators.  So each unordered pair ``k <= l`` costs one dot product of 4
    multiplications, doubled off the diagonal, where the quaternion product
    takes 16 per ordered pair.  Sums accumulate as ``(n, d)`` pairs, over a
    common denominator as in :func:`_qmul`, and each is reduced once.
    """
    out: dict = {}
    get = out.get
    for sign, maps in ((1, plus), (-1, minus)):
        for p in maps:
            items = list(p.items())
            for i, ((u1, v1), (a0, a1, a2, a3, da)) in enumerate(items):
                scale = sign
                for (u2, v2), (b0, b1, b2, b3, db) in items[i:]:
                    key = (u1 + u2, v1 + v2)
                    n, d = scale * (a0 * b0 + a1 * b1 + a2 * b2 + a3 * b3), da * db
                    scale = 2 * sign
                    cur = get(key)
                    if cur is None:
                        out[key] = (n, d)
                    elif cur[1] == d:
                        out[key] = (cur[0] + n, d)
                    else:
                        m = lcm(cur[1], d)
                        out[key] = (cur[0] * (m // cur[1]) + n * (m // d), m)
    res = {}
    for key, (n, d) in out.items():
        if n:
            g = gcd(n, d)
            res[key] = (n // g, 0, 0, 0, d // g)
    return res


def _rqmul(r: dict, q: dict) -> dict:
    """``r*q`` for a real term map ``r`` and a quaternion term map ``q``.

    A real coefficient ``(n, 0, 0, 0, d)`` scales each component, so a term
    pair costs 4 multiplications; sums accumulate as in :func:`_qmul`.
    """
    out: dict = {}
    get = out.get
    for (u1, v1), (n, _, _, _, dn) in r.items():
        for (u2, v2), (b0, b1, b2, b3, db) in q.items():
            key = (u1 + u2, v1 + v2)
            w, x, y, z, d = n * b0, n * b1, n * b2, n * b3, dn * db
            cur = get(key)
            if cur is None:
                out[key] = (w, x, y, z, d)
            elif cur[4] == d:
                out[key] = (cur[0] + w, cur[1] + x, cur[2] + y, cur[3] + z, d)
            else:
                c0, c1, c2, c3, dc = cur
                m = lcm(dc, d)
                s, t = m // dc, m // d
                out[key] = (c0 * s + w * t, c1 * s + x * t, c2 * s + y * t, c3 * s + z * t, m)
    return _terms(out)


def _quat_ints(value) -> tuple:
    """The canonical tuple of a Quaternion, int or Fraction coefficient."""
    t = _operand(value)
    if t is None:
        raise TypeError(f"expected a quaternion coefficient, got {type(value).__name__}")
    return t


# endregion

# region sparse core


class _SparseUV:
    """Sparse polynomial in central commuting variables u and v.

    Stored as ``_ints``, a map from exponent pairs ``(du, dv)`` to canonical
    integer coefficient tuples (see the module docstring).  Instances are
    immutable values; term maps may be shared between them and are never
    changed.  Each of the two subclasses, :class:`QPolyUV` and
    :class:`RPolyUV`, fixes its coefficient ring with class attributes:
    ``_to_ints`` turns an accepted scalar into a tuple (raising ``TypeError``
    otherwise), ``_value`` turns a tuple back into a value, ``_scalars``
    lists the scalar types that sums promote to constants and products
    scale by, ``_zero`` is the zero coefficient, ``_repr`` writes a tuple for
    ``repr`` and never fails, and ``_encode`` (from a tuple) and ``_decode``
    (to a value) are the coefficient JSON codec.  Both rings multiply two
    polynomials through ``_qmul`` and scale by a scalar through ``_scaled``.
    Each subclass binds ``__mul__``, ``__rmul__`` and ``from_json`` in its
    own body, because ``bench/tracer.py`` wraps them from the subclass's own
    ``__dict__``.
    """

    __slots__ = ("_ints",)

    def __init__(self, terms: Mapping = ()):
        to_ints = self._to_ints
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict = {}
        for (du, dv), value in items:
            if type(du) is not int or type(dv) is not int or du < 0 or dv < 0:
                raise InvalidInput("polynomial exponents must be nonnegative integers")
            key = (du, dv)
            # A converted value is canonical already unless it is zero.
            c, prev = to_ints(value), acc.pop(key, None)
            c = (c if any(c[:-1]) else None) if prev is None else _sum(prev, c, 1)
            if c is not None:
                acc[key] = c
        self._ints = acc

    @classmethod
    def _raw(cls, ints: dict):
        """Wrap a canonical term map without re-validation."""
        poly = object.__new__(cls)
        poly._ints = ints
        return poly

    @classmethod
    def zero(cls):
        return cls._raw({})

    @classmethod
    def one(cls):
        return cls({(0, 0): 1})

    @classmethod
    def const(cls, c):
        return cls({(0, 0): c})

    @classmethod
    def var_u(cls):
        return cls({(1, 0): 1})

    @classmethod
    def var_v(cls):
        return cls({(0, 1): 1})

    @classmethod
    def monomial(cls, c, du: int, dv: int):
        return cls({(du, dv): c})

    @property
    def terms(self) -> dict:
        """The nonzero coefficients as values by exponent pair, built on each read."""
        value = self._value
        return {key: value(c) for key, c in self._ints.items()}

    @property
    def is_zero(self) -> bool:
        return not self._ints

    def __bool__(self) -> bool:
        return bool(self._ints)

    @property
    def deg_u(self) -> int:
        """Degree in u, or -1 for the zero polynomial."""
        return max((du for du, _ in self._ints), default=-1)

    @property
    def deg_v(self) -> int:
        """Degree in v, or -1 for the zero polynomial."""
        return max((dv for _, dv in self._ints), default=-1)

    def coeff(self, du: int, dv: int):
        t = self._ints.get((du, dv))
        return self._zero if t is None else self._value(t)

    def __eq__(self, other) -> bool:
        if isinstance(other, type(self)):
            return self._ints == other._ints
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._ints.items()))

    def __repr__(self) -> str:
        body = ", ".join(f"({du},{dv}): {self._repr(c)}" for (du, dv), c in sorted(self._ints.items()))
        return f"{type(self).__name__}({{{body}}})"

    def _plus(self, other, sign: int):
        if isinstance(other, self._scalars):
            other = self.const(other)
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._raw(_combine(self._ints, other._ints, sign))

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return self._raw({key: _neg(c) for key, c in self._ints.items()})

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, self._scalars):
            return self._scaled(self._to_ints(other))
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._raw(_qmul(self._ints, other._ints))

    def __rmul__(self, other):
        if isinstance(other, self._scalars):
            return self._scaled(self._to_ints(other), left=True)
        return NotImplemented

    def _scaled(self, t: tuple, left: bool = False):
        """``self*c``, or ``c*self`` with ``left``, for the scalar ``c`` of canonical tuple ``t``: one Hamilton product per term, none accumulated."""
        if not any(t[:-1]):
            return self.zero()
        if left:
            return self._raw({key: _product(t, a) for key, a in self._ints.items()})
        return self._raw({key: _product(a, t) for key, a in self._ints.items()})

    def eval(self, u0, v0):
        """Evaluate at a rational point."""
        u0, v0 = _coerce_rational(u0), _coerce_rational(v0)
        acc = self._zero
        for (du, dv), c in self._ints.items():
            acc = acc + self._value(c) * (u0**du * v0**dv)
        return acc

    def to_json(self) -> list[dict]:
        encode = self._encode
        return [{"u": du, "v": dv, "c": encode(c)} for (du, dv), c in sorted(self._ints.items())]

    @classmethod
    def _from_monomials(cls, obj, what: str):
        """Decode an array of ``{"u": du, "v": dv, "c": coefficient}`` monomials."""
        if not isinstance(obj, list):
            raise InvalidInput(f"{what} must be an array of monomials")
        decode = cls._decode
        terms = []
        for entry in obj:
            _json_object(entry, {"u", "v", "c"}, "each monomial needs integer 'u', 'v' and a coefficient 'c'")
            terms.append(((entry["u"], entry["v"]), decode(entry["c"])))
        return cls(terms)


# endregion

# region bivariate


class QPolyUV(_SparseUV):
    """Sparse polynomial in u and v with quaternion coefficients."""

    __slots__ = ()
    _to_ints = staticmethod(_quat_ints)
    _value = staticmethod(Quaternion._raw)
    _scalars = (Quaternion, int, Fraction)
    _zero = Quaternion.zero()
    _repr = staticmethod(lambda t: repr(Quaternion._raw(t)))
    _encode = staticmethod(_quat_json)
    _decode = staticmethod(Quaternion.from_json)
    __mul__ = _SparseUV.__mul__
    __rmul__ = _SparseUV.__rmul__

    @property
    def is_real(self) -> bool:
        return not any(x or y or z for _, x, y, z, _ in self._ints.values())

    def lead_coeff(self) -> Quaternion:
        """Coefficient of the largest monomial in (deg_u, deg_v) lexicographic order."""
        if not self._ints:
            raise ValueError("the zero polynomial has no leading coefficient")
        return Quaternion._raw(self._ints[max(self._ints)])

    def conj(self):
        """Coefficientwise conjugation; reverses products, fixes real polynomials."""
        return self._raw({key: (w, -x, -y, -z, d) for key, (w, x, y, z, d) in self._ints.items()})

    def components(self) -> tuple["RPolyUV", "RPolyUV", "RPolyUV", "RPolyUV"]:
        """The four real component polynomials along 1, i, j, k."""
        parts: tuple[dict, dict, dict, dict] = ({}, {}, {}, {})
        for key, (*nums, d) in self._ints.items():
            for target, n in zip(parts, nums):
                if n:
                    g = gcd(n, d)
                    target[key] = (n // g, 0, 0, 0, d // g)
        return tuple(RPolyUV._raw(p) for p in parts)  # type: ignore[return-value]

    @classmethod
    def from_json(cls, obj) -> "QPolyUV":
        return cls._from_monomials(obj, "a quaternion polynomial")


# bench/tracer.py's Tracer._plan wraps QPolyU.__mul__ and __rmul__ by name;
# this alias goes when the tracer does (ROADMAP item 3).
QPolyU = QPolyUV


def v_slices(p: QPolyUV) -> tuple[QPolyUV, QPolyUV]:
    """Decompose ``p = p1(u)*v + p0(u)`` for polynomials of v-degree at most 1.

    Returns:
        The pair ``(p1, p0)`` of v-free polynomials.

    Raises:
        DegreeTooHigh: if some term has v-degree 2 or more.
    """
    slices: tuple[dict, dict] = ({}, {})
    for (du, dv), c in p._ints.items():
        if dv > 1:
            raise DegreeTooHigh(f"v-degree {dv} exceeds 1")
        slices[dv][(du, 0)] = c
    return QPolyUV._raw(slices[1]), QPolyUV._raw(slices[0])


def _from_v_slices(p1: QPolyUV, p0: QPolyUV) -> QPolyUV:
    """``p1(u)*v + p0(u)``: the inverse of :func:`v_slices`."""
    ints = {(du, 1): c for (du, _), c in p1._ints.items()}
    ints.update(p0._ints)
    return QPolyUV._raw(ints)


# endregion

# region division


def left_div_rem(a: QPolyUV, b: QPolyUV) -> tuple[QPolyUV, QPolyUV]:
    """Divide polynomials in u alone so that ``a = b*q + r`` with ``deg_u r < deg_u b``.

    The divisor sits on the left of the quotient.  Each step cancels the top
    of the remainder with ``lead(b).inverse() * lead(r)``, which is the only
    choice that works when coefficients do not commute.

    Raises:
        TypeError: if ``a`` or ``b`` is not a :class:`QPolyUV`.
        DegreeTooHigh: if ``a`` or ``b`` has a term in v.
        ZeroDivisionError: if ``b`` is the zero polynomial.
    """
    return _div_rem(a, b, left=True)


def right_div_rem(a: QPolyUV, b: QPolyUV) -> tuple[QPolyUV, QPolyUV]:
    """Divide polynomials in u alone so that ``a = q*b + r`` with ``deg_u r < deg_u b``.

    Mirror of :func:`left_div_rem`; the two quotients differ in general.

    Raises:
        TypeError: if ``a`` or ``b`` is not a :class:`QPolyUV`.
        DegreeTooHigh: if ``a`` or ``b`` has a term in v.
        ZeroDivisionError: if ``b`` is the zero polynomial.
    """
    return _div_rem(a, b, left=False)


def _div_rem(a: QPolyUV, b: QPolyUV, left: bool) -> tuple[QPolyUV, QPolyUV]:
    if not (isinstance(a, QPolyUV) and isinstance(b, QPolyUV)):
        raise TypeError(f"division takes QPolyUV operands, got {type(a).__name__} and {type(b).__name__}")
    if any(dv for _, dv in a._ints) or any(dv for _, dv in b._ints):
        raise DegreeTooHigh("division takes polynomials in u alone")
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    bt, db = b._ints, b.deg_u
    inv = _inverse(bt[(db, 0)])
    monic = inv == _ONE
    lower = [(e, t) for (e, _), t in bt.items() if e != db]
    q: dict = {}
    r = dict(a._ints)
    while r and (top := max(r)[0]) >= db:
        # Subtract b*(c u^shift) or (c u^shift)*b: the top term cancels
        # exactly, and each lower term of b changes one term of r.
        t = r.pop((top, 0))
        c = t if monic else _product(inv, t) if left else _product(t, inv)
        shift = top - db
        q[(shift, 0)] = c
        for e, bc in lower:
            key = (e + shift, 0)
            p = _hamilton(bc, c) if left else _hamilton(c, bc)
            cur = r.get(key)
            s = _canon(_neg(p)) if cur is None else _sum(cur, p, -1)
            if s is None:
                del r[key]
            else:
                r[key] = s
    return QPolyUV._raw(q), QPolyUV._raw(r)


# endregion

# region real bivariate


class RPolyUV(_SparseUV):
    """Sparse bivariate polynomial with rational coefficients.

    Real polynomials commute with everything in sight, which is what makes
    the Hermitian 6-tuple identities purely computational.  The term map is
    a quaternionic one with real coefficients, so :meth:`to_quat` shares it
    and products run on the quaternion kernel.
    """

    __slots__ = ()
    _to_ints = staticmethod(lambda value: Quaternion(value)._t)
    _value = staticmethod(lambda t: Fraction(t[0], t[4]))
    _scalars = (int, Fraction)
    _zero = Fraction(0)
    _repr = staticmethod(lambda t: f"Fraction({_int_repr(t[0])}, {_int_repr(t[4])})")
    _encode = staticmethod(lambda t: _ratio_to_str(t[0], t[4]))
    _decode = staticmethod(rational_from_str)
    __mul__ = _SparseUV.__mul__
    __rmul__ = _SparseUV.__rmul__

    def __truediv__(self, other):
        return self._scaled(_inverse(Quaternion(other)._t))

    def to_quat(self) -> QPolyUV:
        """Embed as a quaternionic polynomial with real coefficients: the same term map."""
        return QPolyUV._raw(self._ints)

    @classmethod
    def from_json(cls, obj) -> "RPolyUV":
        return cls._from_monomials(obj, "a real polynomial")


def quat_poly(w: RPolyUV, x: RPolyUV, y: RPolyUV, z: RPolyUV) -> QPolyUV:
    """Assemble a quaternionic polynomial from four real component polynomials."""
    acc: dict = {}
    for idx, part in enumerate((w, x, y, z)):
        for key, (n, _, _, _, d) in part._ints.items():
            acc.setdefault(key, [(0, 1)] * 4)[idx] = (n, d)
    out = {}
    for key, cs in acc.items():
        # Each component is in lowest terms, so over the lcm the entries have gcd 1.
        m = lcm(*(d for _, d in cs))
        out[key] = (*(n * (m // d) for n, d in cs), m)
    return QPolyUV._raw(out)


# endregion

"""Polynomials with quaternion coefficients in central variables u and v.

Three classes share one sparse core, ``_SparseUV``:

* :class:`QPolyUV` is a bivariate polynomial; u and v commute with every
  coefficient, so only coefficient order matters in products.
* :class:`QPolyU` is its v-free case, with the degree, leading coefficient
  and two-sided division that the reduction loops need.
* :class:`RPolyUV` restricts coefficients to rationals.  Real polynomials are
  central in the quaternionic ring, which several identities below rely on.

Every coefficient is stored in one canonical integer form: a map from
exponent pairs ``(du, dv)`` to tuples of ints with the denominator last,
``(w, x, y, z, d)`` for the quaternion ``(w + xi + yj + zk)/d`` and ``(n, d)``
for the rational ``n/d``.  A stored tuple has ``d > 0``, entries whose gcd is
1 and a nonzero numerator, so equal polynomials have equal maps.  Sums,
products, conjugates and division steps run on these tuples, with a
denominator per coefficient, never per polynomial; each output coefficient is
canonicalized once.  ``Fraction`` and :class:`Quaternion` values are built
only where a caller reads them: ``terms``, ``coeff``, ``lead``,
``components``, ``eval``, the JSON codec and ``repr``.

Because the coefficient ring has no zero divisors and the variables are
central, nonzero polynomials multiply to nonzero polynomials and degrees add
per variable.  The zero polynomial has degree ``NEG_INF``, which compares
strictly below every integer.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping

from .errors import DegreeTooHigh, InvalidInput
from .quat import Quaternion, _coerce as _coerce_rational, _json_object, _ratio_to_str, rational_from_str

#: Degree of the zero polynomial; strictly less than every integer degree.
NEG_INF = float("-inf")

_Q_ZERO = Quaternion.zero()
_ZERO_FR = Fraction(0)


def _coerce_quat(value) -> Quaternion:
    if isinstance(value, Quaternion):
        return value
    if isinstance(value, (int, Fraction)):
        return Quaternion(value)
    raise TypeError(f"expected a quaternion coefficient, got {type(value).__name__}")


# region integer coefficients


def _canon(t) -> tuple | None:
    """``t`` (denominator last, positive) over the gcd of its entries; None if its numerators are all 0."""
    g = gcd(*t)
    if g == t[-1] and not any(t[:-1]):
        return None
    return tuple(t) if g == 1 else tuple(c // g for c in t)


def _sum(a: tuple, b: tuple, sign: int) -> tuple | None:
    """``a + sign*b`` for canonical tuples of one length, in canonical form."""
    da, db = a[-1], b[-1]
    m = da if da == db else lcm(da, db)
    sa, sb = m // da, sign * (m // db)
    t = [x * sa + y * sb for x, y in zip(a, b)]
    t[-1] = m
    return _canon(t)


def _neg(t: tuple) -> tuple:
    return (*(-c for c in t[:-1]), t[-1])


def _combine(p: dict, q: dict, sign: int) -> dict:
    """``p + sign*q`` on term maps."""
    out = dict(p)
    for key, b in q.items():
        a = out.pop(key, None)
        c = (b if sign > 0 else _neg(b)) if a is None else _sum(a, b, sign)
        if c is not None:
            out[key] = c
    return out


def _qmul(p: dict, q: dict) -> dict:
    """Product of quaternion term maps with ``p`` on the left.

    Integers accumulate per exponent pair, over the product of the two
    denominators or, where those differ between pairs, their lcm; each
    output coefficient is then reduced by its gcd once.
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
    res = {}
    for key, (w, x, y, z, d) in out.items():
        if w or x or y or z:
            g = gcd(w, x, y, z, d)
            res[key] = (w, x, y, z, d) if g == 1 else (w // g, x // g, y // g, z // g, d // g)
    return res


def _rmul(p: dict, q: dict) -> dict:
    """Product of rational term maps, accumulated as :func:`_qmul` does."""
    out: dict = {}
    get = out.get
    for (u1, v1), (a, da) in p.items():
        for (u2, v2), (b, db) in q.items():
            key = (u1 + u2, v1 + v2)
            n, d = a * b, da * db
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
            res[key] = (n // g, d // g)
    return res


def _quat_ints(value) -> tuple:
    """A quaternion coefficient over the lcm of its component denominators."""
    q = _coerce_quat(value)
    w, x, y, z = q.w, q.x, q.y, q.z
    d = lcm(w.denominator, x.denominator, y.denominator, z.denominator)
    return (w.numerator * (d // w.denominator), x.numerator * (d // x.denominator),
            y.numerator * (d // y.denominator), z.numerator * (d // z.denominator), d)


def _quat_value(t: tuple) -> Quaternion:
    w, x, y, z, d = t
    return Quaternion(Fraction(w, d), Fraction(x, d), Fraction(y, d), Fraction(z, d))


def _ratio(n: int, d: int) -> tuple:
    """``n/d`` in lowest terms, for ``d > 0``."""
    g = gcd(n, d)
    return (n // g, d // g)


def _quat_json(t: tuple) -> list[str]:
    """The JSON of the quaternion ``t``: each component over ``d`` in lowest terms."""
    return [_ratio_to_str(_ratio(n, t[4])) for n in t[:4]]


def _rational_ints(value) -> tuple:
    r = _coerce_rational(value)
    return (r.numerator, r.denominator)


def _rational_value(t: tuple) -> Fraction:
    return Fraction(t[0], t[1])


# endregion

# region sparse core


class _SparseUV:
    """Sparse polynomial in central commuting variables u and v.

    Stored as ``_ints``, a map from exponent pairs ``(du, dv)`` to canonical
    integer coefficient tuples (see the module docstring).  Instances are
    immutable values; term maps may be shared between them and are never
    changed.  A subclass fixes the coefficient ring with class attributes:
    ``_to_ints`` turns an accepted scalar into a tuple (raising ``TypeError``
    otherwise), ``_value`` turns a tuple back into a value, ``_mul`` is the
    product of term maps, ``_scalars`` lists the scalar types that arithmetic
    promotes to constants, ``_zero`` is the zero coefficient, and ``_encode``
    (from a tuple) and ``_decode`` (to a value) are the coefficient JSON codec.  Each subclass
    binds ``__mul__``, ``__rmul__`` and any ``from_json`` in its own body,
    because ``bench/tracer.py`` wraps them from the subclass's own ``__dict__``.
    """

    __slots__ = ("_ints",)

    def __init__(self, terms: Mapping = ()):
        to_ints = self._to_ints
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict = {}
        for (du, dv), value in items:
            if du < 0 or dv < 0:
                raise InvalidInput("polynomial exponents must be nonnegative")
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
    def _of(cls, terms: Mapping):
        """Build from a coefficient map, whatever the subclass constructor takes."""
        poly = object.__new__(cls)
        _SparseUV.__init__(poly, terms)
        return poly

    @classmethod
    def zero(cls):
        return cls._raw({})

    @classmethod
    def one(cls):
        return cls._of({(0, 0): 1})

    @classmethod
    def const(cls, c):
        return cls._of({(0, 0): c})

    @classmethod
    def var_u(cls):
        return cls._of({(1, 0): 1})

    @classmethod
    def var_v(cls):
        return cls._of({(0, 1): 1})

    @classmethod
    def monomial(cls, c, du: int, dv: int):
        return cls._of({(du, dv): c})

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
    def deg_u(self):
        return max((du for du, _ in self._ints), default=NEG_INF)

    @property
    def deg_v(self):
        return max((dv for _, dv in self._ints), default=NEG_INF)

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
        body = ", ".join(f"({du},{dv}): {self._value(c)!r}" for (du, dv), c in sorted(self._ints.items()))
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
            other = self.const(other)
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._raw(self._mul(self._ints, other._ints))

    def __rmul__(self, other):
        if isinstance(other, self._scalars):
            return self._raw(self._mul(self.const(other)._ints, self._ints))
        return NotImplemented

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
            du, dv = entry["u"], entry["v"]
            if type(du) is not int or type(dv) is not int or du < 0 or dv < 0:
                raise InvalidInput("monomial exponents must be nonnegative integers")
            terms.append(((du, dv), decode(entry["c"])))
        return cls._of(terms)


# endregion

# region bivariate


class QPolyUV(_SparseUV):
    """Sparse polynomial in u and v with quaternion coefficients."""

    __slots__ = ()
    _to_ints = staticmethod(_quat_ints)
    _value = staticmethod(_quat_value)
    _mul = staticmethod(_qmul)
    _scalars = (Quaternion, int, Fraction)
    _zero = _Q_ZERO
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
        return _quat_value(self._ints[max(self._ints)])

    def conj(self):
        """Coefficientwise conjugation; reverses products, fixes real polynomials."""
        return self._raw({key: (w, -x, -y, -z, d) for key, (w, x, y, z, d) in self._ints.items()})

    def components(self) -> tuple["RPolyUV", "RPolyUV", "RPolyUV", "RPolyUV"]:
        """The four real component polynomials along 1, i, j, k."""
        parts: tuple[dict, dict, dict, dict] = ({}, {}, {}, {})
        for key, (*nums, d) in self._ints.items():
            for target, n in zip(parts, nums):
                if n:
                    target[key] = _ratio(n, d)
        return tuple(RPolyUV._raw(p) for p in parts)  # type: ignore[return-value]

    def to_u_poly(self) -> "QPolyU":
        """Forget v.  Lossless exactly when ``deg_v <= 0``.

        Raises:
            DegreeTooHigh: if any term involves v.
        """
        if any(dv for _, dv in self._ints):
            raise DegreeTooHigh("polynomial depends on v, cannot convert to a u-polynomial")
        return QPolyU._raw(self._ints)

    @classmethod
    def from_json(cls, obj) -> "QPolyUV":
        return cls._from_monomials(obj, "a quaternion polynomial")


def v_slices(p: QPolyUV) -> tuple["QPolyU", "QPolyU"]:
    """Decompose ``p = p1(u)*v + p0(u)`` for polynomials of v-degree at most 1.

    Returns:
        The pair ``(p1, p0)``.

    Raises:
        DegreeTooHigh: if some term has v-degree 2 or more.
    """
    slices: tuple[dict, dict] = ({}, {})
    for (du, dv), c in p._ints.items():
        if dv > 1:
            raise DegreeTooHigh(f"v-degree {dv} exceeds 1")
        slices[dv][(du, 0)] = c
    return QPolyU._raw(slices[1]), QPolyU._raw(slices[0])


# endregion

# region univariate


class QPolyU(_SparseUV):
    """Polynomial in u over the quaternions: the v-free case of the sparse core.

    Built from its coefficients, low degree first.
    """

    __slots__ = ()
    _to_ints = staticmethod(_quat_ints)
    _value = staticmethod(_quat_value)
    _mul = staticmethod(_qmul)
    _scalars = QPolyUV._scalars
    _zero = _Q_ZERO
    _encode = staticmethod(_quat_json)
    __mul__ = _SparseUV.__mul__
    __rmul__ = _SparseUV.__rmul__
    conj = QPolyUV.conj
    #: Degree in u, or ``NEG_INF`` for the zero polynomial.
    degree = _SparseUV.deg_u
    lead = property(QPolyUV.lead_coeff)

    def __init__(self, coeffs: Iterable = ()):
        super().__init__(((power, 0), c) for power, c in enumerate(coeffs))

    @classmethod
    def monomial(cls, c, power: int) -> "QPolyU":
        return cls._of({(power, 0): c})

    @classmethod
    def var_v(cls):
        raise DegreeTooHigh("a u-polynomial has no v")

    def coeff(self, power: int) -> Quaternion:
        return super().coeff(power, 0)

    @property
    def coeffs(self) -> tuple[Quaternion, ...]:
        """Every coefficient up to the degree, low degree first."""
        return tuple(self.coeff(power) for power in range(self.degree + 1)) if self else ()

    def __repr__(self) -> str:
        return f"QPolyU({list(self.coeffs)!r})"

    def eval(self, u0) -> Quaternion:
        """Evaluate at a rational point by Horner's rule."""
        u0 = _coerce_rational(u0)
        acc = _Q_ZERO
        for c in reversed(self.coeffs):
            acc = acc * u0 + c
        return acc

    def to_uv(self) -> QPolyUV:
        return QPolyUV._raw(self._ints)


def left_div_rem(a: QPolyU, b: QPolyU) -> tuple[QPolyU, QPolyU]:
    """Divide so that ``a = b*q + r`` with ``deg r < deg b``.

    The divisor sits on the left of the quotient.  Each step cancels the top
    of the remainder with ``lead(b).inverse() * lead(r)``, which is the only
    choice that works when coefficients do not commute.

    Raises:
        ZeroDivisionError: if ``b`` is the zero polynomial.
    """
    return _div_rem(a, b, left=True)


def right_div_rem(a: QPolyU, b: QPolyU) -> tuple[QPolyU, QPolyU]:
    """Divide so that ``a = q*b + r`` with ``deg r < deg b``.

    Mirror of :func:`left_div_rem`; the two quotients differ in general.

    Raises:
        ZeroDivisionError: if ``b`` is the zero polynomial.
    """
    return _div_rem(a, b, left=False)


def _div_rem(a: QPolyU, b: QPolyU, left: bool) -> tuple[QPolyU, QPolyU]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    bt, db = b._ints, b.degree
    # The lead c = (w + xi + yj + zk)/d has inverse conj(c)/N(c) = d*(w - xi - yj - zk)/(w^2 + x^2 + y^2 + z^2).
    w, x, y, z, d = bt[(db, 0)]
    inv = {(0, 0): _canon((w * d, -x * d, -y * d, -z * d, w * w + x * x + y * y + z * z))}
    q: dict = {}
    r = a._ints
    while r and (top := max(r)[0]) >= db:
        # Subtract b*(c u^shift) or (c u^shift)*b; the top coefficient cancels exactly.
        c = {(top - db, 0): r[(top, 0)]}
        c = _qmul(inv, c) if left else _qmul(c, inv)
        q.update(c)
        r = _combine(r, _qmul(bt, c) if left else _qmul(c, bt), -1)
    return QPolyU._raw(q), QPolyU._raw(r)


# endregion

# region real bivariate


class RPolyUV(_SparseUV):
    """Sparse bivariate polynomial with rational coefficients.

    Real polynomials commute with everything in sight, which is what makes
    the Hermitian 6-tuple identities purely computational.
    """

    __slots__ = ()
    _to_ints = staticmethod(_rational_ints)
    _value = staticmethod(_rational_value)
    _mul = staticmethod(_rmul)
    _scalars = (int, Fraction)
    _zero = _ZERO_FR
    _encode = staticmethod(_ratio_to_str)
    _decode = staticmethod(rational_from_str)
    __mul__ = _SparseUV.__mul__
    __rmul__ = _SparseUV.__rmul__

    def __truediv__(self, other):
        return RPolyUV._raw(_rmul(self._ints, RPolyUV.const(1 / _coerce_rational(other))._ints))

    def to_quat(self) -> QPolyUV:
        """Embed as a quaternionic polynomial with real coefficients."""
        return QPolyUV._raw({key: (n, 0, 0, 0, d) for key, (n, d) in self._ints.items()})

    @classmethod
    def from_json(cls, obj) -> "RPolyUV":
        return cls._from_monomials(obj, "a real polynomial")


def quat_poly(w: RPolyUV, x: RPolyUV, y: RPolyUV, z: RPolyUV) -> QPolyUV:
    """Assemble a quaternionic polynomial from four real component polynomials."""
    acc: dict = {}
    for idx, part in enumerate((w, x, y, z)):
        for key, c in part._ints.items():
            acc.setdefault(key, [(0, 1)] * 4)[idx] = c
    out = {}
    for key, cs in acc.items():
        # Each component is in lowest terms, so over the lcm the entries have gcd 1.
        m = lcm(*(d for _, d in cs))
        out[key] = (*(n * (m // d) for n, d in cs), m)
    return QPolyUV._raw(out)


# endregion

"""Polynomials with quaternion coefficients in central variables u and v.

Three layered representations:

* :class:`QPolyU` is dense in a single variable u, the right shape for the
  division loops.
* :class:`QPolyUV` is a sparse bivariate polynomial; u and v commute with
  every coefficient, so only coefficient order matters in products.
* :class:`RPolyUV` restricts coefficients to rationals.  Real polynomials are
  central in the quaternionic ring, which several identities below rely on.

The two sparse classes share one core, ``_SparseUV``: term normalization,
addition, evaluation and the JSON codec; each adds only its products and
conversions.

Because the coefficient ring has no zero divisors and the variables are
central, nonzero polynomials multiply to nonzero polynomials and degrees add
per variable.  The zero polynomial has degree ``NEG_INF``, which compares
strictly below every integer.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

from .errors import DegreeTooHigh, InvalidInput
from .quat import Quaternion, _coerce as _coerce_rational, _json_object, rational_from_str, rational_to_str

#: Degree of the zero polynomial; strictly less than every integer degree.
NEG_INF = float("-inf")

_Q_ZERO = Quaternion.zero()
_Q_ONE = Quaternion.one()
_ZERO_FR = Fraction(0)


def _coerce_quat(value) -> Quaternion:
    if isinstance(value, Quaternion):
        return value
    if isinstance(value, (int, Fraction)):
        return Quaternion(value)
    raise TypeError(f"expected a quaternion coefficient, got {type(value).__name__}")


# region univariate


class QPolyU:
    """Dense polynomial in u over the quaternions, low degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [_coerce_quat(c) for c in coeffs]
        while cs and cs[-1].is_zero:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls) -> "QPolyU":
        return cls()

    @classmethod
    def one(cls) -> "QPolyU":
        return cls((_Q_ONE,))

    @classmethod
    def const(cls, c) -> "QPolyU":
        return cls((_coerce_quat(c),))

    @classmethod
    def var_u(cls) -> "QPolyU":
        return cls((_Q_ZERO, _Q_ONE))

    @classmethod
    def monomial(cls, c, power: int) -> "QPolyU":
        if power < 0:
            raise InvalidInput("monomial powers must be nonnegative")
        return cls((_Q_ZERO,) * power + (_coerce_quat(c),))

    @property
    def degree(self):
        """Degree in u, or ``NEG_INF`` for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def lead(self) -> Quaternion:
        if not self.coeffs:
            raise ValueError("the zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, power: int) -> Quaternion:
        if 0 <= power < len(self.coeffs):
            return self.coeffs[power]
        return _Q_ZERO

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        if isinstance(other, QPolyU):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"QPolyU({list(self.coeffs)!r})"

    def __add__(self, other):
        if isinstance(other, (Quaternion, int, Fraction)):
            other = QPolyU.const(other)
        if not isinstance(other, QPolyU):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for idx, c in enumerate(b):
            out[idx] = out[idx] + c
        return QPolyU(out)

    __radd__ = __add__

    def __neg__(self):
        return QPolyU(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if isinstance(other, (Quaternion, int, Fraction)):
            other = QPolyU.const(other)
        if not isinstance(other, QPolyU):
            return NotImplemented
        return self.__add__(-other)

    def __rsub__(self, other):
        if isinstance(other, (Quaternion, int, Fraction)):
            return QPolyU.const(other).__add__(-self)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, QPolyU):
            if not self.coeffs or not other.coeffs:
                return QPolyU()
            out = [_Q_ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a.is_zero:
                    continue
                for j, b in enumerate(other.coeffs):
                    out[i + j] = out[i + j] + a * b
            return QPolyU(out)
        if isinstance(other, (Quaternion, int, Fraction)):
            q = _coerce_quat(other)
            return QPolyU(tuple(c * q for c in self.coeffs))
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (Quaternion, int, Fraction)):
            q = _coerce_quat(other)
            return QPolyU(tuple(q * c for c in self.coeffs))
        return NotImplemented

    def conj(self) -> "QPolyU":
        return QPolyU(tuple(c.conj() for c in self.coeffs))

    def eval(self, u0) -> Quaternion:
        """Evaluate at a rational point by Horner's rule."""
        u0 = Fraction(u0)
        acc = _Q_ZERO
        for c in reversed(self.coeffs):
            acc = acc * u0 + c
        return acc

    def to_uv(self) -> "QPolyUV":
        return QPolyUV({(i, 0): c for i, c in enumerate(self.coeffs) if not c.is_zero})


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
    bc = b.coeffs
    db = len(bc) - 1
    lead_inv = bc[-1].inverse()
    rc = list(a.coeffs)
    if len(rc) - 1 < db:
        return QPolyU(), a
    qc = [_Q_ZERO] * (len(rc) - db)
    while len(rc) - 1 >= db:
        shift = len(rc) - 1 - db
        top = rc[-1]
        c = (lead_inv * top) if left else (top * lead_inv)
        qc[shift] = c
        # Subtract b*(c u^shift) or (c u^shift)*b; the top coefficient cancels exactly.
        for i in range(db):
            bi = bc[i]
            if not bi.is_zero:
                rc[i + shift] = rc[i + shift] - (bi * c if left else c * bi)
        rc.pop()
        while rc and rc[-1].is_zero:
            rc.pop()
    return QPolyU(qc), QPolyU(rc)


# endregion

# region bivariate


class _SparseUV:
    """Sparse polynomial in central commuting variables u and v.

    Stored as a map from exponent pairs ``(du, dv)`` to nonzero coefficients.
    Instances are immutable values.  A subclass fixes the coefficient ring
    with five class attributes: ``_coerce`` turns an accepted scalar into a
    coefficient (raising ``TypeError`` otherwise), ``_scalars`` lists the
    scalar types that arithmetic promotes to constants, ``_zero`` is the zero
    coefficient, and ``_encode``/``_decode`` are the coefficient JSON codec.
    Products and ``from_json`` live in each subclass body, because
    ``bench/tracer.py`` wraps them from the subclass's own ``__dict__``.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping = ()):
        coerce = self._coerce
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict = {}
        for (du, dv), value in items:
            if du < 0 or dv < 0:
                raise InvalidInput("polynomial exponents must be nonnegative")
            c = coerce(value)
            if c:
                key = (du, dv)
                prev = acc.get(key)
                c = c if prev is None else prev + c
                if c:
                    acc[key] = c
                else:
                    acc.pop(key, None)
        self.terms = acc

    @classmethod
    def _raw(cls, terms: dict):
        """Wrap an already-normalized term dict without re-validation."""
        poly = object.__new__(cls)
        poly.terms = terms
        return poly

    @classmethod
    def zero(cls):
        return cls()

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
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    @property
    def deg_u(self):
        return max((du for du, _ in self.terms), default=NEG_INF)

    @property
    def deg_v(self):
        return max((dv for _, dv in self.terms), default=NEG_INF)

    def coeff(self, du: int, dv: int):
        return self.terms.get((du, dv), self._zero)

    def __eq__(self, other) -> bool:
        if isinstance(other, type(self)):
            return self.terms == other.terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __repr__(self) -> str:
        body = ", ".join(f"({du},{dv}): {c!r}" for (du, dv), c in sorted(self.terms.items()))
        return f"{type(self).__name__}({{{body}}})"

    def __add__(self, other):
        if isinstance(other, self._scalars):
            other = self.const(other)
        if not isinstance(other, type(self)):
            return NotImplemented
        out = dict(self.terms)
        for key, c in other.terms.items():
            prev = out.get(key)
            s = c if prev is None else prev + c
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        return self._raw(out)

    __radd__ = __add__

    def __neg__(self):
        return self._raw({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, self._scalars):
            other = self.const(other)
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.__add__(-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def eval(self, u0, v0):
        """Evaluate at a rational point."""
        u0, v0 = Fraction(u0), Fraction(v0)
        acc = self._zero
        for (du, dv), c in self.terms.items():
            acc = acc + c * (u0**du * v0**dv)
        return acc

    def to_json(self) -> list[dict]:
        encode = self._encode
        return [{"u": du, "v": dv, "c": encode(c)} for (du, dv), c in sorted(self.terms.items())]

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
        return cls(terms)


class QPolyUV(_SparseUV):
    """Sparse polynomial in u and v with quaternion coefficients."""

    __slots__ = ()
    _coerce = staticmethod(_coerce_quat)
    _scalars = (Quaternion, int, Fraction)
    _zero = _Q_ZERO
    _encode = staticmethod(Quaternion.to_json)
    _decode = staticmethod(Quaternion.from_json)

    @property
    def is_real(self) -> bool:
        return all(q.is_real for q in self.terms.values())

    def lead_coeff(self) -> Quaternion:
        """Coefficient of the largest monomial in (deg_u, deg_v) lexicographic order."""
        if not self.terms:
            raise ValueError("the zero polynomial has no leading coefficient")
        return self.terms[max(self.terms)]

    def __mul__(self, other):
        if isinstance(other, QPolyUV):
            out: dict[tuple[int, int], Quaternion] = {}
            for (a1, b1), p in self.terms.items():
                for (a2, b2), q in other.terms.items():
                    key = (a1 + a2, b1 + b2)
                    prod = p * q
                    prev = out.get(key)
                    s = prod if prev is None else prev + prod
                    if s.is_zero:
                        out.pop(key, None)
                    else:
                        out[key] = s
            return QPolyUV._raw(out)
        if isinstance(other, (Quaternion, int, Fraction)):
            q = _coerce_quat(other)
            if q.is_zero:
                return QPolyUV()
            return QPolyUV._raw({k: s for k, s in ((k, p * q) for k, p in self.terms.items()) if not s.is_zero})
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (Quaternion, int, Fraction)):
            q = _coerce_quat(other)
            if q.is_zero:
                return QPolyUV()
            return QPolyUV._raw({k: s for k, s in ((k, q * p) for k, p in self.terms.items()) if not s.is_zero})
        return NotImplemented

    def conj(self) -> "QPolyUV":
        """Coefficientwise conjugation; reverses products, fixes real polynomials."""
        return QPolyUV._raw({k: q.conj() for k, q in self.terms.items()})

    def components(self) -> tuple["RPolyUV", "RPolyUV", "RPolyUV", "RPolyUV"]:
        """The four real component polynomials along 1, i, j, k."""
        parts: tuple[dict, dict, dict, dict] = ({}, {}, {}, {})
        for key, q in self.terms.items():
            for target, c in zip(parts, q.components()):
                if c:
                    target[key] = c
        return tuple(RPolyUV._raw(p) for p in parts)  # type: ignore[return-value]

    def to_u_poly(self) -> QPolyU:
        """Forget v.  Lossless exactly when ``deg_v <= 0``.

        Raises:
            DegreeTooHigh: if any term involves v.
        """
        if self.terms and any(dv for _, dv in self.terms):
            raise DegreeTooHigh("polynomial depends on v, cannot convert to a u-polynomial")
        if not self.terms:
            return QPolyU()
        top = max(du for du, _ in self.terms)
        out = [_Q_ZERO] * (top + 1)
        for (du, _), q in self.terms.items():
            out[du] = q
        return QPolyU(out)

    @classmethod
    def from_json(cls, obj) -> "QPolyUV":
        return cls._from_monomials(obj, "a quaternion polynomial")


def v_slices(p: QPolyUV) -> tuple[QPolyU, QPolyU]:
    """Decompose ``p = p1(u)*v + p0(u)`` for polynomials of v-degree at most 1.

    Returns:
        The pair ``(p1, p0)``.

    Raises:
        DegreeTooHigh: if some term has v-degree 2 or more.
    """
    ones: dict[int, Quaternion] = {}
    zeros: dict[int, Quaternion] = {}
    for (du, dv), q in p.terms.items():
        if dv == 0:
            zeros[du] = q
        elif dv == 1:
            ones[du] = q
        else:
            raise DegreeTooHigh(f"v-degree {dv} exceeds 1")

    def build(d: dict[int, Quaternion]) -> QPolyU:
        if not d:
            return QPolyU()
        out = [_Q_ZERO] * (max(d) + 1)
        for du, q in d.items():
            out[du] = q
        return QPolyU(out)

    return build(ones), build(zeros)


# endregion

# region real bivariate


class RPolyUV(_SparseUV):
    """Sparse bivariate polynomial with rational coefficients.

    Real polynomials commute with everything in sight, which is what makes
    the Hermitian 6-tuple identities purely computational.
    """

    __slots__ = ()
    _coerce = staticmethod(_coerce_rational)
    _scalars = (int, Fraction)
    _zero = _ZERO_FR
    _encode = staticmethod(rational_to_str)
    _decode = staticmethod(rational_from_str)

    def __mul__(self, other):
        if isinstance(other, RPolyUV):
            out: dict[tuple[int, int], Fraction] = {}
            for (a1, b1), p in self.terms.items():
                for (a2, b2), q in other.terms.items():
                    key = (a1 + a2, b1 + b2)
                    s = out.get(key, _ZERO_FR) + p * q
                    if s:
                        out[key] = s
                    else:
                        out.pop(key, None)
            return RPolyUV._raw(out)
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if not c:
                return RPolyUV()
            return RPolyUV._raw({k: p * c for k, p in self.terms.items()})
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        c = Fraction(other)
        return RPolyUV._raw({k: p / c for k, p in self.terms.items()})

    def to_quat(self) -> QPolyUV:
        """Embed as a quaternionic polynomial with real coefficients."""
        return QPolyUV._raw({k: Quaternion(c) for k, c in self.terms.items()})

    @classmethod
    def from_json(cls, obj) -> "RPolyUV":
        return cls._from_monomials(obj, "a real polynomial")


def quat_poly(w: RPolyUV, x: RPolyUV, y: RPolyUV, z: RPolyUV) -> QPolyUV:
    """Assemble a quaternionic polynomial from four real component polynomials."""
    acc: dict[tuple[int, int], list[Fraction]] = {}
    for idx, part in enumerate((w, x, y, z)):
        for key, c in part.terms.items():
            slot = acc.get(key)
            if slot is None:
                slot = acc[key] = [_ZERO_FR, _ZERO_FR, _ZERO_FR, _ZERO_FR]
            slot[idx] = c
    return QPolyUV._raw({k: Quaternion(*cs) for k, cs in acc.items()})


# endregion

"""Exact quaternion arithmetic over the rationals.

A quaternion ``(w + x*i + y*j + z*k)/d`` is stored as one canonical integer
tuple ``(w, x, y, z, d)``: ``d > 0``, the five entries have gcd 1, zero is
``(0, 0, 0, 0, 1)`` and a real ``n/d`` is ``(n, 0, 0, 0, d)``.  Equal values
therefore have equal tuples.  The polynomials of :mod:`quatsurf.qpoly` store
their coefficients in the same form, so a coefficient crosses between the two
modules without conversion.  Arithmetic runs on the integers, and
:class:`fractions.Fraction` components are built only when read.  Nothing in
this module ever touches floats.

:func:`_hamilton` is the one scalar Hamilton product and :func:`_canon` the
one reduction to canonical form; only :func:`quatsurf.qpoly._qmul` repeats the
product inline, per term pair, where a call would cost too much.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import gcd, lcm
from operator import attrgetter

from .errors import InvalidInput

#: Rational scalars are plain fractions throughout the package.
Rational = Fraction


def rational_to_str(r: Fraction) -> str:
    """Render ``p/q`` in lowest terms, or just ``p`` for integers.

    Raises:
        InvalidInput: if a part has more digits than the interpreter prints.
    """
    return _ratio_to_str(r.numerator, r.denominator)


def _ratio_to_str(n: int, d: int) -> str:
    """:func:`rational_to_str` of ``n/d`` for ints already in lowest terms with ``d > 0``."""
    try:
        return str(n) if d == 1 else f"{n}/{d}"
    except ValueError:
        raise InvalidInput("a rational has too many digits to print") from None


def _int_repr(n: int) -> str:
    """``str(n)``, or ``hex(n)`` past the interpreter's int-to-str digit limit, which hex does not have."""
    try:
        return str(n)
    except ValueError:
        return hex(n)


def _ratio_repr(n: int, d: int) -> str:
    """:func:`_ratio_to_str` for ``repr``, which never fails: a part past the digit limit is written in hex."""
    return _int_repr(n) if d == 1 else f"{_int_repr(n)}/{_int_repr(d)}"


def _field_repr(value) -> str:
    """``repr(value)``, with each ``Fraction``, also inside tuples, written by :func:`_int_repr`."""
    if isinstance(value, Fraction):
        return f"Fraction({_int_repr(value.numerator)}, {_int_repr(value.denominator)})"
    if isinstance(value, tuple):
        parts = [_field_repr(e) for e in value]
        return f"({parts[0]},)" if len(parts) == 1 else f"({', '.join(parts)})"
    return repr(value)


def rational_from_str(text: str) -> Fraction:
    """Parse a ``p/q`` or ``p`` literal; ``p`` may be a decimal with an exponent.

    Raises:
        InvalidInput: if the literal is malformed, has a zero denominator, or
            would expand to a numerator or denominator with more digits than
            ``sys.get_int_max_str_digits()`` allows, the limit that already
            bounds a literal written out in full.
    """
    if not isinstance(text, str):
        raise InvalidInput(f"expected a rational literal string, got {type(text).__name__}")
    try:
        head, e, tail = text.upper().partition("E")
        if e:
            # Fraction multiplies by 10**|exp| before any check of its own:
            # count the digits that numerator and denominator reach first.
            exp = int(tail)
            whole, _, frac = head.partition(".")
            num = len(str(abs(int(whole + frac)))) + max(exp, 0)
            den = 1 + len(frac.replace("_", "")) + max(-exp, 0)
            limit = sys.get_int_max_str_digits()
            if limit and max(num, den) > limit:
                raise InvalidInput(f"rational literal {text!r} expands past {limit} digits")
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidInput(f"bad rational literal {text!r}") from exc


def _json_array(obj, size: int, message: str) -> list:
    """Return ``obj`` if it is a JSON array of ``size`` entries, else raise InvalidInput."""
    if not isinstance(obj, list) or len(obj) != size:
        raise InvalidInput(message)
    return obj


def _json_object(obj, keys, message: str) -> dict:
    """Return ``obj`` if it is a JSON object holding every key in ``keys``, else raise InvalidInput."""
    if not isinstance(obj, dict) or not keys <= obj.keys():
        raise InvalidInput(message)
    return obj


def _rationals_from_json(obj, size: int, message: str) -> tuple[Fraction, ...]:
    """Parse a JSON array of exactly ``size`` rational literal strings.

    Raises:
        InvalidInput: with ``message`` if ``obj`` is not such an array, or for
            a malformed literal.
    """
    return tuple(rational_from_str(c) for c in _json_array(obj, size, message))


def _coerce(value) -> Fraction:
    """An int or Fraction as a Fraction; anything else, floats and bools included, is a TypeError."""
    if type(value) is Fraction:
        return value
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return Fraction(value)
    raise TypeError(f"expected a rational number, got {type(value).__name__}")


def _ratio_of(value) -> tuple[int, int]:
    """An int or Fraction as ``(numerator, denominator)`` in lowest terms; anything else is a TypeError."""
    if type(value) is int:
        return value, 1
    r = _coerce(value)
    return r.numerator, r.denominator


# region canonical tuples

#: The canonical tuples of zero and one.
_ZERO = (0, 0, 0, 0, 1)
_ONE = (1, 0, 0, 0, 1)


def _canon(t: tuple) -> tuple | None:
    """``(w, x, y, z, d)`` with ``d > 0`` over the gcd of its entries; None if its numerators are all 0."""
    w, x, y, z, d = t
    if not (w or x or y or z):
        return None
    g = gcd(w, x, y, z, d)
    return t if g == 1 else (w // g, x // g, y // g, z // g, d // g)


def _sum(a: tuple, b: tuple, sign: int) -> tuple | None:
    """``a + sign*b`` in canonical form; None if it is zero.

    ``a`` and ``b`` may be any tuples with ``d > 0``, not only canonical
    ones: division subtracts unreduced Hamilton products with it.
    """
    a0, a1, a2, a3, da = a
    b0, b1, b2, b3, db = b
    m = da if da == db else lcm(da, db)
    sa, sb = m // da, sign * (m // db)
    return _canon((a0 * sa + b0 * sb, a1 * sa + b1 * sb, a2 * sa + b2 * sb, a3 * sa + b3 * sb, m))


def _neg(t: tuple) -> tuple:
    w, x, y, z, d = t
    return (-w, -x, -y, -z, d)


def _hamilton(a: tuple, b: tuple) -> tuple:
    """The Hamilton product ``a*b`` of any tuples with ``d > 0``, unreduced, over ``da*db``."""
    a0, a1, a2, a3, da = a
    b0, b1, b2, b3, db = b
    return (
        a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
        a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
        a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
        a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
        da * db,
    )


def _product(a: tuple, b: tuple) -> tuple | None:
    """:func:`_hamilton` in canonical form; None if it is zero."""
    return _canon(_hamilton(a, b))


def _inverse(t: tuple) -> tuple:
    """``conj(c)/N(c) = d*(w - xi - yj - zk)/(w^2 + x^2 + y^2 + z^2)`` for ``t = c``; ZeroDivisionError at zero."""
    w, x, y, z, d = t
    n = w * w + x * x + y * y + z * z
    if not n:
        raise ZeroDivisionError("the zero quaternion has no inverse")
    return _canon((w * d, -x * d, -y * d, -z * d, n))


def _quat_json(t: tuple, render=_ratio_to_str) -> list[str]:
    """The JSON of the quaternion ``t``, or of any tuple ``(n_1, ..., n_k, d)`` with ``d > 0``: each ``n_i/d`` in lowest terms.

    ``render`` writes one part from its numerator and denominator.
    """
    d = t[-1]
    return [render(n // (g := gcd(n, d)), d // g) for n in t[:-1]]


# endregion


class Quaternion:
    """A quaternion ``w + x*i + y*j + z*k`` with rational components.

    Multiplication follows i*i = j*j = k*k = i*j*k = -1, so i*j = k = -j*i;
    the product is associative but not commutative.  Instances are treated as
    immutable values: hashable, comparable by component, never modified.
    The value is held as the canonical tuple ``_t`` (see the module
    docstring); ``w``, ``x``, ``y``, ``z`` and :meth:`components` are
    ``Fraction`` values built on each read.
    """

    __slots__ = ("_t",)

    def __init__(self, w=0, x=0, y=0, z=0):
        (w, dw), (x, dx), (y, dy), (z, dz) = _ratio_of(w), _ratio_of(x), _ratio_of(y), _ratio_of(z)
        d = lcm(dw, dx, dy, dz)
        # Components in lowest terms over their lcm already have gcd 1.
        self._t = (w * (d // dw), x * (d // dx), y * (d // dy), z * (d // dz), d)

    # region constructors

    @classmethod
    def _raw(cls, t: tuple) -> "Quaternion":
        """Wrap a canonical tuple without re-validation."""
        q = object.__new__(cls)
        q._t = t
        return q

    @classmethod
    def zero(cls) -> "Quaternion":
        return _Q_ZERO

    @classmethod
    def one(cls) -> "Quaternion":
        return _Q_ONE

    @classmethod
    def from_real(cls, r) -> "Quaternion":
        return cls(r, 0, 0, 0)

    # endregion

    # region structure

    w, x, y, z = (property(lambda self, i=i: Fraction(self._t[i], self._t[4])) for i in range(4))

    def components(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        w, x, y, z, d = self._t
        return (Fraction(w, d), Fraction(x, d), Fraction(y, d), Fraction(z, d))

    @property
    def is_zero(self) -> bool:
        return self._t == _ZERO

    @property
    def is_real(self) -> bool:
        return not any(self._t[1:4])

    def __bool__(self) -> bool:
        return self._t != _ZERO

    def __eq__(self, other) -> bool:
        t = _operand(other)
        return NotImplemented if t is None else self._t == t

    def __hash__(self) -> int:
        # A real quaternion equals its real part, so it hashes as that part does.
        return hash(self.w) if self.is_real else hash(self.components())

    def __repr__(self) -> str:
        return f"Quaternion({', '.join(_quat_json(self._t, _ratio_repr))})"

    # endregion

    # region arithmetic

    def __add__(self, other):
        t = _operand(other)
        return NotImplemented if t is None else Quaternion._raw(_sum(self._t, t, 1) or _ZERO)

    __radd__ = __add__

    def __neg__(self):
        return Quaternion._raw(_neg(self._t))

    def __sub__(self, other):
        t = _operand(other)
        return NotImplemented if t is None else Quaternion._raw(_sum(self._t, t, -1) or _ZERO)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        t = _operand(other)
        return NotImplemented if t is None else Quaternion._raw(_product(self._t, t) or _ZERO)

    def __rmul__(self, other):
        # Only reached for central scalars; quaternion*quaternion goes through __mul__.
        t = _operand(other)
        return NotImplemented if t is None else Quaternion._raw(_product(t, self._t) or _ZERO)

    def conj(self) -> "Quaternion":
        """Conjugate w - x*i - y*j - z*k; an anti-automorphism: conj(a*b) = conj(b)*conj(a)."""
        w, x, y, z, d = self._t
        return Quaternion._raw((w, -x, -y, -z, d))

    def norm_sq(self) -> Fraction:
        """Squared norm w**2 + x**2 + y**2 + z**2; multiplicative over products."""
        w, x, y, z, d = self._t
        return Fraction(w * w + x * x + y * y + z * z, d * d)

    def inverse(self) -> "Quaternion":
        """Two-sided inverse conj(q) / norm_sq(q).

        Raises:
            ZeroDivisionError: for the zero quaternion.
        """
        return Quaternion._raw(_inverse(self._t))

    # endregion

    # region serialization

    def to_json(self) -> list[str]:
        return _quat_json(self._t)

    @classmethod
    def from_json(cls, obj) -> "Quaternion":
        return cls(*_rationals_from_json(obj, 4, "a quaternion must be a 4-element array of rational strings"))

    # endregion


def _operand(value) -> tuple | None:
    """The canonical tuple of a Quaternion, int or Fraction; None for any other type, bool included."""
    if isinstance(value, Quaternion):
        return value._t
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        n, d = _ratio_of(value)
        return (n, 0, 0, 0, d)
    return None


_Q_ZERO = Quaternion(0, 0, 0, 0)
_Q_ONE = Quaternion(1, 0, 0, 0)

#: The basis quaternions, for readable construction in client code and tests.
ONE = _Q_ONE
I = Quaternion(0, 1, 0, 0)
J = Quaternion(0, 0, 1, 0)
K = Quaternion(0, 0, 0, 1)


class _Value:
    """Base of the package's immutable value classes, such as ``Mat2`` and ``Circle3``.

    A subclass lists its slots in ``__slots__``: the public ones are its
    fields, in order, and a private one (``_frame``) stays out of equality,
    hash and repr.  Its ``__init__`` sets each slot once through
    ``object.__setattr__``; assignment and deletion raise AttributeError.
    A value equals only a value of exactly its class with equal fields.
    Copies and pickles call the constructor again, so validation reruns.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        if cls.__slots__:
            cls.__match_args__ = tuple(name for name in cls.__slots__ if name[0] != "_")
            # An attrgetter does not bind as a method does: call it as self._key(self).
            cls._key = attrgetter(*cls.__match_args__)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={_field_repr(getattr(self, name))}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)

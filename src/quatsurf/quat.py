"""Exact quaternion arithmetic over the rationals.

Components are :class:`fractions.Fraction` values, which already guarantee
lowest terms, a positive denominator, and arbitrary precision, so no separate
rational type is needed.  Nothing in this module ever touches floats.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import InvalidInput

#: Rational scalars are plain fractions throughout the package.
Rational = Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


def rational_to_str(r: Fraction) -> str:
    """Render ``p/q`` in lowest terms, or just ``p`` for integers.

    Raises:
        InvalidInput: if a part has more digits than the interpreter prints.
    """
    return _ratio_to_str((r.numerator, r.denominator))


def _ratio_to_str(ratio: tuple[int, int]) -> str:
    """:func:`rational_to_str` of ``n/d`` for a pair ``(n, d)`` already in lowest terms with ``d > 0``."""
    n, d = ratio
    try:
        return str(n) if d == 1 else f"{n}/{d}"
    except ValueError:
        raise InvalidInput("a rational has too many digits to print") from None


def rational_from_str(text: str) -> Fraction:
    """Parse a ``p/q`` or ``p`` literal.

    Raises:
        InvalidInput: if the literal is malformed or has a zero denominator.
    """
    if not isinstance(text, str):
        raise InvalidInput(f"expected a rational literal string, got {type(text).__name__}")
    try:
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
    """An int or Fraction as a Fraction; anything else, floats included, is a TypeError."""
    if type(value) is Fraction:
        return value
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    raise TypeError(f"expected a rational number, got {type(value).__name__}")


class Quaternion:
    """A quaternion ``w + x*i + y*j + z*k`` with rational components.

    Multiplication follows i*i = j*j = k*k = i*j*k = -1, so i*j = k = -j*i;
    the product is associative but not commutative.  Instances are treated as
    immutable values: hashable, comparable by component, never modified.
    """

    __slots__ = ("w", "x", "y", "z")

    def __init__(self, w=0, x=0, y=0, z=0):
        self.w = _coerce(w)
        self.x = _coerce(x)
        self.y = _coerce(y)
        self.z = _coerce(z)

    # region constructors

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

    def components(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.w, self.x, self.y, self.z)

    @property
    def is_zero(self) -> bool:
        return not (self.w or self.x or self.y or self.z)

    @property
    def is_real(self) -> bool:
        return not (self.x or self.y or self.z)

    def __bool__(self) -> bool:
        return bool(self.w or self.x or self.y or self.z)

    def __eq__(self, other) -> bool:
        if isinstance(other, Quaternion):
            return (
                self.w == other.w
                and self.x == other.x
                and self.y == other.y
                and self.z == other.z
            )
        if isinstance(other, (int, Fraction)):
            return self.is_real and self.w == other
        return NotImplemented

    def __hash__(self) -> int:
        # A real quaternion equals its real part, so it hashes as that part does.
        return hash(self.w) if self.is_real else hash((self.w, self.x, self.y, self.z))

    def __repr__(self) -> str:
        parts = ", ".join(rational_to_str(c) for c in self.components())
        return f"Quaternion({parts})"

    # endregion

    # region arithmetic

    def __add__(self, other):
        if isinstance(other, Quaternion):
            return Quaternion(self.w + other.w, self.x + other.x, self.y + other.y, self.z + other.z)
        if isinstance(other, (int, Fraction)):
            return Quaternion(self.w + other, self.x, self.y, self.z)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def __sub__(self, other):
        if isinstance(other, Quaternion):
            return Quaternion(self.w - other.w, self.x - other.x, self.y - other.y, self.z - other.z)
        if isinstance(other, (int, Fraction)):
            return Quaternion(self.w - other, self.x, self.y, self.z)
        return NotImplemented

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, Quaternion):
            aw, ax, ay, az = self.w, self.x, self.y, self.z
            bw, bx, by, bz = other.w, other.x, other.y, other.z
            # Cross-multiply over common denominators so only four fraction
            # normalizations happen instead of one per elementary product.
            da = lcm(aw.denominator, ax.denominator, ay.denominator, az.denominator)
            db = lcm(bw.denominator, bx.denominator, by.denominator, bz.denominator)
            a0 = aw.numerator * (da // aw.denominator)
            a1 = ax.numerator * (da // ax.denominator)
            a2 = ay.numerator * (da // ay.denominator)
            a3 = az.numerator * (da // az.denominator)
            b0 = bw.numerator * (db // bw.denominator)
            b1 = bx.numerator * (db // bx.denominator)
            b2 = by.numerator * (db // by.denominator)
            b3 = bz.numerator * (db // bz.denominator)
            d = da * db
            return Quaternion(
                Fraction(a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3, d),
                Fraction(a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2, d),
                Fraction(a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1, d),
                Fraction(a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0, d),
            )
        if isinstance(other, (int, Fraction)):
            return Quaternion(self.w * other, self.x * other, self.y * other, self.z * other)
        return NotImplemented

    def __rmul__(self, other):
        # Only reached for central scalars; quaternion*quaternion goes through __mul__.
        if isinstance(other, (int, Fraction)):
            return Quaternion(self.w * other, self.x * other, self.y * other, self.z * other)
        return NotImplemented

    def conj(self) -> "Quaternion":
        """Conjugate w - x*i - y*j - z*k; an anti-automorphism: conj(a*b) = conj(b)*conj(a)."""
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def norm_sq(self) -> Fraction:
        """Squared norm w**2 + x**2 + y**2 + z**2; multiplicative over products."""
        return self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z

    def inverse(self) -> "Quaternion":
        """Two-sided inverse conj(q) / norm_sq(q).

        Raises:
            ZeroDivisionError: for the zero quaternion.
        """
        n = self.norm_sq()
        if not n:
            raise ZeroDivisionError("the zero quaternion has no inverse")
        return Quaternion(self.w / n, -self.x / n, -self.y / n, -self.z / n)

    # endregion

    # region serialization

    def to_json(self) -> list[str]:
        return [rational_to_str(c) for c in self.components()]

    @classmethod
    def from_json(cls, obj) -> "Quaternion":
        return cls(*_rationals_from_json(obj, 4, "a quaternion must be a 4-element array of rational strings"))

    # endregion


_Q_ZERO = Quaternion(0, 0, 0, 0)
_Q_ONE = Quaternion(1, 0, 0, 0)

#: The basis quaternions, for readable construction in client code and tests.
ONE = _Q_ONE
I = Quaternion(0, 1, 0, 0)
J = Quaternion(0, 0, 1, 0)
K = Quaternion(0, 0, 0, 1)

"""Quaternion arithmetic: defining relations, norms, conjugation, JSON."""

import operator
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from quatsurf import InvalidInput, Quaternion, rational_from_str, rational_to_str
from quatsurf.quat import I, J, K, ONE

from helpers import ReferenceQuaternion, rand_quat

import random

fractions = st.fractions(min_value=-10, max_value=10, max_denominator=12)
quaternions = st.builds(Quaternion, fractions, fractions, fractions, fractions)


# region defining relations and examples


def test_defining_relations():
    assert I * I == J * J == K * K == Quaternion(-1)
    assert I * J * K == Quaternion(-1)
    assert I * J == K
    assert J * I == -K
    assert J * K == I
    assert K * I == J


def test_identity_element():
    q = Quaternion(1, 2, 3, 4)
    assert q * ONE == q
    assert ONE * q == q


def test_one_plus_i_times_one_plus_j():
    assert (ONE + I) * (ONE + J) == Quaternion(1, 1, 1, 1)


def test_conj_examples():
    assert Quaternion(1, 2, 3, 4).conj() == Quaternion(1, -2, -3, -4)
    assert (I * J).conj() == J * I == -K


def test_inverse_examples():
    assert I.inverse() == -I
    q = Quaternion(3, 4)
    assert q.inverse() == Quaternion(Fraction(3, 25), Fraction(-4, 25))
    assert q * q.inverse() == ONE
    with pytest.raises(ZeroDivisionError):
        Quaternion.zero().inverse()


def test_equality_against_scalars():
    assert Quaternion(5) == 5
    assert Quaternion(Fraction(1, 2)) == Fraction(1, 2)
    assert Quaternion(5, 1) != 5
    assert Quaternion(3) != Quaternion(3, 0, 0, 1)


@pytest.mark.parametrize("scalar", [1, -7, 0, Fraction(1, 2), Fraction(-10**12, 7)])
def test_real_quaternions_hash_as_their_scalar(scalar):
    q = Quaternion(scalar)
    assert q == scalar and hash(q) == hash(scalar)
    assert scalar in {q} and q in {scalar}
    assert {q: "q"}[scalar] == "q" and {scalar: "s"}[q] == "s"
    assert Quaternion(scalar, 1) not in {scalar}


def test_components_and_predicates():
    q = Quaternion(1, 0, Fraction(2, 3), 0)
    assert q.components() == (1, 0, Fraction(2, 3), 0)
    assert not q.is_zero
    assert not q.is_real
    assert Quaternion.zero().is_zero
    assert Quaternion.from_real(Fraction(7, 2)).is_real
    assert bool(q) and not bool(Quaternion.zero())


# endregion

# region algebraic laws


@given(quaternions, quaternions)
def test_conj_is_anti_automorphism(a, b):
    assert (a * b).conj() == b.conj() * a.conj()
    assert a.conj().conj() == a


@given(quaternions, quaternions)
def test_norm_is_multiplicative(a, b):
    assert (a * b).norm_sq() == a.norm_sq() * b.norm_sq()


@given(quaternions)
def test_norm_via_conjugate(q):
    assert q * q.conj() == Quaternion.from_real(q.norm_sq())
    assert q.norm_sq() >= 0
    assert (q.norm_sq() == 0) == q.is_zero


@given(quaternions, quaternions, quaternions)
def test_product_is_associative_and_distributive(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c


@given(quaternions)
def test_inverse_is_two_sided(q):
    if q.is_zero:
        return
    assert q * q.inverse() == ONE
    assert q.inverse() * q == ONE


def test_thousand_random_pairs_norm_multiplicative():
    rng = random.Random(7)
    for _ in range(1000):
        a, b = rand_quat(rng), rand_quat(rng)
        assert (a * b).norm_sq() == a.norm_sq() * b.norm_sq()


# endregion

# region differential test against the Fraction reference

# Zero, integers and fractions with numerators and denominators up to 10**30.
heights = st.one_of(
    st.just(0),
    fractions,
    st.integers(-10**30, 10**30),
    st.builds(Fraction, st.integers(-10**30, 10**30), st.integers(1, 10**30)),
)
component_tuples = st.tuples(heights, heights, heights, heights)


def twins(value):
    """The value under test and its reference: a pair of quaternions for a component tuple, else a scalar twice."""
    if isinstance(value, tuple):
        return Quaternion(*value), ReferenceQuaternion(*value)
    return value, value


def assert_same_value(q, r):
    """``q`` reads exactly as the reference ``r`` through every public view."""
    assert type(q) is Quaternion and type(r) is ReferenceQuaternion
    assert q.components() == r.components() and (q.w, q.x, q.y, q.z) == r.components()
    assert all(type(c) is Fraction for c in (*q.components(), q.w, q.x, q.y, q.z))
    assert (q.is_real, q.is_zero, bool(q)) == (r.is_real, r.is_zero, bool(r))
    assert repr(q) == repr(r) and q.to_json() == r.to_json()
    assert hash(q) == hash(r)
    assert q.norm_sq() == r.norm_sq() and type(q.norm_sq()) is Fraction


@given(component_tuples, st.one_of(component_tuples, heights))
def test_quaternion_agrees_with_the_fraction_reference(a, b):
    (qa, ra), (qb, rb) = twins(a), twins(b)
    assert_same_value(qa, ra)
    for q, r in ((-qa, -ra), (qa.conj(), ra.conj())):
        assert_same_value(q, r)
    if ra.is_zero:
        with pytest.raises(ZeroDivisionError):
            qa.inverse()
        with pytest.raises(ZeroDivisionError):
            ra.inverse()
    else:
        assert_same_value(qa.inverse(), ra.inverse())
    for op in (operator.add, operator.sub, operator.mul):
        assert_same_value(op(qa, qb), op(ra, rb))
        assert_same_value(op(qb, qa), op(rb, ra))
    assert (qa == qb) == (ra == rb) and (qb == qa) == (rb == ra)
    assert (qa != qb) == (ra != rb)
    assert (qa == qa.components()[0]) == (ra == ra.components()[0])


def test_real_quaternion_hashes_as_its_fraction():
    assert hash(Quaternion(Fraction(1, 2))) == hash(Fraction(1, 2)) == hash(ReferenceQuaternion(Fraction(1, 2)))


@pytest.mark.parametrize("other", [0.5, "1", None, [1, 0, 0, 0]])
def test_other_operand_types_are_refused(other):
    q = Quaternion(1, 2, 3, 4)
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(TypeError):
            op(q, other)
        with pytest.raises(TypeError):
            op(other, q)
    assert q != other
    with pytest.raises(TypeError):
        Quaternion(other)


# endregion

# region serialization


def test_rational_string_round_trip():
    for r in (Fraction(0), Fraction(-3), Fraction(2, 7), Fraction(-5, 4)):
        assert rational_from_str(rational_to_str(r)) == r
    assert rational_to_str(Fraction(6, 3)) == "2"
    assert rational_to_str(Fraction(-1, 2)) == "-1/2"


def test_rational_string_rejects_garbage():
    for bad in ("", "abc", "1/0", "2/", None, 3):
        with pytest.raises(InvalidInput):
            rational_from_str(bad)


@pytest.mark.parametrize("text", ["1e5000", "1e-4300", "-2.5E4400", "0e5000", "1e99999999999999999999"])
def test_exponent_literals_past_the_digit_limit_are_rejected(text):
    # Written out in full, each would have more digits than int() reads from a string.
    with pytest.raises(InvalidInput):
        rational_from_str(text)


def test_exponent_literals_at_the_digit_limit_are_read():
    assert rational_from_str("1e4299") == 10**4299
    assert rational_from_str("1e-4299") == Fraction(1, 10**4299)
    assert rational_from_str("-2.5E3") == -2500
    assert rational_from_str(" 1_0.5e-1 ") == Fraction(21, 20)


@given(quaternions)
def test_json_round_trip(q):
    assert Quaternion.from_json(q.to_json()) == q


def test_json_shape():
    assert Quaternion(1, Fraction(-1, 2), 0, 3).to_json() == ["1", "-1/2", "0", "3"]
    with pytest.raises(InvalidInput):
        Quaternion.from_json(["1", "2", "3"])


def test_repr_writes_parts_past_the_digit_limit_in_hex():
    # to_json refuses a part with more digits than str() prints; repr must not.
    big = 10**5000
    q = Quaternion(Fraction(1, big), big)
    assert repr(q) == f"Quaternion(1/{hex(big)}, {hex(big)}, 0, 0)"
    with pytest.raises(InvalidInput):
        q.to_json()


# endregion

"""Quaternion arithmetic: defining relations, norms, conjugation, JSON."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from quatsurf import InvalidInput, Quaternion, rational_from_str, rational_to_str
from quatsurf.quat import I, J, K, ONE

from helpers import rand_quat

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


@given(quaternions)
def test_json_round_trip(q):
    assert Quaternion.from_json(q.to_json()) == q


def test_json_shape():
    assert Quaternion(1, Fraction(-1, 2), 0, 3).to_json() == ["1", "-1/2", "0", "3"]
    with pytest.raises(InvalidInput):
        Quaternion.from_json(["1", "2", "3"])


# endregion

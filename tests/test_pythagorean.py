"""Pythagorean 6-tuples: the matrix correspondence, generators, sphere map."""

import importlib
import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from quatsurf import (
    BasePoint,
    InvalidInput,
    Mat2,
    NotTupleShaped,
    PyTuple,
    QPolyUV,
    Quaternion,
    RPolyUV,
    Vec2,
    grid_params,
    is_degenerate,
    is_pythagorean,
    kron,
    matrix_to_tuple,
    tuple_from_pair,
    tuple_to_matrix,
    tuple_to_sphere_map,
)
from quatsurf.qpoly import _norm, quat_poly
from quatsurf.quat import I, J

from helpers import assert_canonical, rand_fraction, rand_qpolyuv, rand_rpolyuv, reference_add, reference_mul

# The package's ``is_pythagorean`` attribute is the function, so patch through the module object.
PYTHAGOREAN_MODULE = importlib.import_module("quatsurf.pythagorean")

RU = RPolyUV.var_u()
RV = RPolyUV.var_v()
R0 = RPolyUV.zero()


def const_tuple(*values) -> PyTuple:
    return PyTuple(*(RPolyUV.const(v) for v in values))


def sum_of_squares_identity(t: PyTuple) -> bool:
    x1, x2, x3, x4, x5, x6 = t.components()
    return (x1 * x1 + x2 * x2 + x3 * x3 + x4 * x4 + x5 * x5) == x6 * x6


VARIABLE_TUPLE = PyTuple(RU * RV, R0, R0, R0, (RV * RV - RU * RU) / 2, (RV * RV + RU * RU) / 2)


# region tuple <-> matrix


def test_tuple_to_matrix_zero():
    m = tuple_to_matrix(const_tuple(0, 0, 0, 0, 0, 0))
    assert m.is_zero


def test_tuple_to_matrix_345():
    m = tuple_to_matrix(const_tuple(3, 4, 0, 0, 0, 5))
    assert m.m11 == QPolyUV.const(Quaternion(5))
    assert m.m12 == QPolyUV.const(Quaternion(3, 4))
    assert m.m21 == QPolyUV.const(Quaternion(3, -4))
    assert m.m22 == QPolyUV.const(Quaternion(5))


def test_tuple_to_matrix_variable_example():
    m = tuple_to_matrix(VARIABLE_TUPLE)
    uv = QPolyUV.var_u() * QPolyUV.var_v()
    assert m.m11 == QPolyUV.var_u() * QPolyUV.var_u()
    assert m.m12 == uv and m.m21 == uv
    assert m.m22 == QPolyUV.var_v() * QPolyUV.var_v()


def test_matrix_to_tuple_inverts():
    t = matrix_to_tuple(tuple_to_matrix(const_tuple(3, 4, 0, 0, 0, 5)))
    assert t.components() == const_tuple(3, 4, 0, 0, 0, 5).components()
    assert matrix_to_tuple(Mat2(*(QPolyUV.zero(),) * 4)).components() == (R0,) * 6

    rng = random.Random(40)
    for _ in range(40):
        t = PyTuple(*(rand_rpolyuv(rng, 2, 2) for _ in range(6)))
        back = matrix_to_tuple(tuple_to_matrix(t))
        assert back.components() == t.components()


def test_matrix_to_tuple_rejects_wrong_shapes():
    one = QPolyUV.one()
    with pytest.raises(NotTupleShaped):
        matrix_to_tuple(Mat2(one, QPolyUV.const(J), QPolyUV.const(I), one))
    with pytest.raises(NotTupleShaped):
        matrix_to_tuple(Mat2(QPolyUV.const(I), one, one, one))


# endregion

# region the predicate


def test_is_pythagorean_examples():
    assert is_pythagorean(const_tuple(3, 4, 0, 0, 0, 5))
    assert not is_pythagorean(const_tuple(1, 0, 0, 0, 0, 0))
    assert is_pythagorean(VARIABLE_TUPLE)


def test_both_routes_agree_on_random_tuples():
    rng = random.Random(41)
    hits = misses = 0
    for _ in range(120):
        if rng.random() < 0.5:
            a = rand_qpolyuv(rng, 1, 1)
            b = rand_qpolyuv(rng, 1, 1)
            t = tuple_from_pair(a, b)
        else:
            t = PyTuple(*(rand_rpolyuv(rng, 2, 2) for _ in range(6)))
        verdict = is_pythagorean(t)
        assert verdict == sum_of_squares_identity(t)
        assert verdict == is_degenerate(tuple_to_matrix(t))
        hits += verdict
        misses += not verdict
    assert hits > 10 and misses > 10


def reference_sum_of_squares(polys) -> dict:
    """``sum(p*p)`` on ``Fraction`` term maps, through the helpers' coefficient loops."""
    total: dict = {}
    for p in polys:
        total = reference_add(total, reference_mul(p.terms, p.terms))
    return total


# Small rationals mixed with heights up to about 10**30, so denominators differ per coefficient.
rationals = st.one_of(
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)),
    st.builds(Fraction, st.integers(-10**30, 10**30), st.integers(1, 10**30)),
)
monomial_keys = st.tuples(st.integers(0, 2), st.integers(0, 1))


@st.composite
def identity_cases(draw):
    """A ``tuple_from_pair`` tuple, the same with one monomial added to one
    slot, or a tuple whose first four squares already cancel ``x6**2``."""
    kind = draw(st.sampled_from(["pair", "pair+monomial", "cancel-before-x5"]))
    # In the last kind a and b lie in span(1, i), so a*b has no j or k part.
    tail = [st.just(0)] * 2 if kind == "cancel-before-x5" else [rationals] * 2
    coeffs = st.builds(Quaternion, rationals, rationals, *tail).filter(bool)
    polys = st.dictionaries(monomial_keys, coeffs, max_size=3).map(QPolyUV)
    t = tuple_from_pair(draw(polys), draw(polys))
    xs = list(t.components())
    if kind == "pair+monomial":
        (du, dv), c = draw(monomial_keys), draw(rationals)
        slot = draw(st.integers(0, 5))
        xs[slot] = xs[slot] + RPolyUV.monomial(c, du, dv)
    elif kind == "cancel-before-x5":
        x1, x2, _, _, x5, x6 = xs
        w = RPolyUV(draw(st.dictionaries(monomial_keys, rationals, max_size=2)))
        xs = [x1, x2, x5, R0, w, x6]
    return kind, PyTuple(*xs)


@given(identity_cases())
def test_is_pythagorean_matches_the_fraction_oracle(case):
    kind, t = case
    *sides, x6 = t.components()
    square = reference_mul(x6.terms, x6.terms)
    if kind == "cancel-before-x5":
        assert reference_sum_of_squares(sides[:4]) == square
    if kind == "pair":
        assert is_pythagorean(t)
    assert is_pythagorean(t) == (reference_sum_of_squares(sides) == square)


def add_mul_route(t: PyTuple) -> RPolyUV:
    """``x1**2 + ... + x5**2 - x6**2`` as ``is_pythagorean`` built it before the fused squares."""
    acc = t.x6 * t.x6
    for p in (t.x1, t.x2, t.x3, t.x4, t.x5):
        acc = acc._add_mul(p, p, -1)
    return -acc


@given(identity_cases())
def test_fused_squares_match_the_add_mul_route(case):
    _, t = case
    plus = (quat_poly(t.x1, t.x2, t.x3, t.x4)._ints, t.x5.to_quat()._ints)
    fused = RPolyUV._raw(_norm(plus, [t.x6.to_quat()._ints]))
    assert fused == add_mul_route(t)
    assert_canonical(fused)


def verdict_and_norm_calls(t: PyTuple) -> tuple[bool, int]:
    """``is_pythagorean(t)`` and how many sums of norms it formed: one per
    extreme-term comparison, plus one for the whole identity."""
    calls = []
    norm = PYTHAGOREAN_MODULE._norm
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(PYTHAGOREAN_MODULE, "_norm", lambda *args: calls.append(args) or norm(*args))
        verdict = is_pythagorean(t)
    return verdict, len(calls)


# Nonzero factors that may be v-free or lack a constant term, with heights up to about 10**30.
pair_coeffs = st.builds(Quaternion, rationals, rationals, rationals, rationals).filter(bool)
pair_polys = st.builds(
    lambda terms, shift: QPolyUV(terms) * shift,
    st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 1)), pair_coeffs, min_size=1, max_size=3),
    st.sampled_from([QPolyUV.one(), QPolyUV.var_u(), QPolyUV.var_v()]),
)


@given(pair_polys, pair_polys)
def test_extreme_terms_never_reject_a_pair_tuple(a, b):
    assert verdict_and_norm_calls(tuple_from_pair(a, b)) == (True, 3)


@pytest.mark.parametrize("slot, extra", [(0, RU), (5, RU * RV)], ids=["x1+u", "x6+uv"])
def test_a_middle_monomial_is_rejected_by_the_full_identity(slot, extra):
    # For a = 1 + u and b = 1 + v the sums' leading terms sit at u**4 and the
    # trailing ones at 1; u and u*v lie strictly between in lexicographic order.
    xs = list(tuple_from_pair(QPolyUV.one() + QPolyUV.var_u(), QPolyUV.one() + QPolyUV.var_v()).components())
    assert verdict_and_norm_calls(PyTuple(*xs)) == (True, 3)
    xs[slot] = xs[slot] + extra
    t = PyTuple(*xs)
    assert verdict_and_norm_calls(t) == (False, 3)
    assert not sum_of_squares_identity(t)


@pytest.mark.parametrize(
    "t",
    [
        PyTuple(RU, R0, R0, R0, R0, R0),
        PyTuple(R0, R0, R0, R0, RU * RV, R0),
        PyTuple(R0, R0, R0, R0, R0, RU + 1),
        const_tuple(0, 0, 0, 0, 0, 0),
    ],
    ids=["only-x6-zero", "x5-alone", "only-x1-to-x5-zero", "all-zero"],
)
def test_a_zero_side_decides_at_once(t):
    verdict = sum_of_squares_identity(t)
    assert verdict_and_norm_calls(t) == (verdict, 0)
    assert verdict == is_degenerate(tuple_to_matrix(t))


# endregion

# region the generator


def test_tuple_from_pair_trivial():
    t = tuple_from_pair(QPolyUV.one(), QPolyUV.one())
    assert t.components() == const_tuple(1, 0, 0, 0, 0, 1).components()


def test_tuple_from_pair_variables():
    t = tuple_from_pair(QPolyUV.var_u(), QPolyUV.var_v())
    assert t.components() == VARIABLE_TUPLE.components()


def test_tuple_from_pair_mixed():
    a = QPolyUV.one() + QPolyUV.var_u() * I
    b = QPolyUV.one() + QPolyUV.var_v() * J
    t = tuple_from_pair(a, b)
    expected_x6 = (RPolyUV.const(2) + RU * RU + RV * RV) / 2
    assert t.x6 == expected_x6
    assert is_pythagorean(t)


def real_norm(p: QPolyUV) -> RPolyUV:
    """``p*conj(p)`` by public arithmetic, as the real polynomial it is."""
    return (p * p.conj()).components()[0]


Q0 = QPolyUV.zero()
UI = QPolyUV.var_u() + I
BIG_TERM = QPolyUV.monomial(Quaternion(Fraction(3, 7), 0, Fraction(-2, 10**30 + 1), 1), 2, 1)
SMALL_TERM = QPolyUV.monomial(Quaternion(0, Fraction(5, 6)), 1, 0)


@given(st.one_of(st.just(Q0), pair_polys), st.one_of(st.just(Q0), pair_polys), st.booleans())
@example(Q0, UI, False)
@example(UI, Q0, False)
@example(Q0, Q0, False)
@example(UI, UI, False)
@example(BIG_TERM, BIG_TERM, False)
@example(BIG_TERM, SMALL_TERM, False)
@example(SMALL_TERM, BIG_TERM, False)
def test_tuple_from_pair_halves_the_norm_difference_and_sum(a, b, same):
    if same:
        b = a
    t = tuple_from_pair(a, b)
    na, nb = real_norm(a), real_norm(b)
    assert t.x5 == (nb - na) / 2
    assert t.x6 == (nb + na) / 2
    assert t.x5.is_zero == (na == nb)
    assert_canonical(t.x5)
    assert_canonical(t.x6)
    assert is_pythagorean(t)


def test_tuple_from_pair_always_pythagorean():
    rng = random.Random(42)
    for _ in range(60):
        t = tuple_from_pair(rand_qpolyuv(rng, 2, 2), rand_qpolyuv(rng, 2, 2))
        assert is_pythagorean(t)


def test_tuple_from_pair_matrix_is_structured_kron():
    rng = random.Random(43)
    for _ in range(40):
        a = rand_qpolyuv(rng, 2, 1)
        b = rand_qpolyuv(rng, 1, 2)
        m = tuple_to_matrix(tuple_from_pair(a, b))
        assert m == kron(Vec2(a, b.conj()), Vec2(a.conj(), b))


def test_degree_bound_with_linear_factors():
    rng = random.Random(44)
    for _ in range(60):
        a = rand_qpolyuv(rng, 1, 1)
        b = rand_qpolyuv(rng, 1, 1)
        for comp in tuple_from_pair(a, b).components():
            assert comp.is_zero or (comp.deg_u <= 2 and comp.deg_v <= 2)


def test_degree_bound_needs_per_factor_caps():
    # Bounding only the sum of factor degrees is not enough: a single factor
    # of degree 2 in u already pushes x6 = (1 + u^4)/2 to degree 4.
    t = tuple_from_pair(QPolyUV.var_u() * QPolyUV.var_u(), QPolyUV.one())
    assert t.x6.deg_u == 4
    assert is_pythagorean(t)


# endregion

# region the sphere map


def test_sphere_map_constant_tuple():
    t = const_tuple(3, 4, 0, 0, 0, 5)
    for u0, v0 in ((0, 0), (1, 2), (Fraction(-7, 3), Fraction(1, 2))):
        point = tuple_to_sphere_map(t, u0, v0)
        assert point == (Fraction(3, 5), Fraction(4, 5), 0, 0, 0)


def test_sphere_map_variable_tuple():
    t = tuple_from_pair(QPolyUV.var_u(), QPolyUV.var_v())
    assert tuple_to_sphere_map(t, 1, 1) == (1, 0, 0, 0, 0)


def test_sphere_map_base_point():
    t = tuple_from_pair(QPolyUV.var_u(), QPolyUV.var_v())
    with pytest.raises(BasePoint):
        tuple_to_sphere_map(t, 0, 0)


def test_sphere_map_unit_norm():
    rng = random.Random(45)
    checked = 0
    while checked < 60:
        t = tuple_from_pair(rand_qpolyuv(rng, 1, 1), rand_qpolyuv(rng, 1, 1))
        u0, v0 = rand_fraction(rng), rand_fraction(rng)
        try:
            point = tuple_to_sphere_map(t, u0, v0)
        except BasePoint:
            continue
        assert sum(c * c for c in point) == 1
        checked += 1



def _inverse_stereographic(p: Quaternion) -> tuple[Fraction, ...]:
    """``(2p, |p|^2 - 1)/(|p|^2 + 1)``: the inverse stereographic map from H = R^4 onto S^4."""
    n = p.norm_sq()
    return (*(2 * c / (n + 1) for c in p.components()), (n - 1) / (n + 1))


def test_sphere_map_of_a_pair_is_the_inverse_stereographic_image_of_a_quotient():
    # x1..x4 are a*b, x5 and x6 are (N(b) -/+ N(a))/2, and conj(a)^-1 = a/N(a),
    # so the map is sigma^-1(conj(a)^-1 * b) wherever a does not vanish.  Base
    # points, where x6 = (N(a) + N(b))/2 vanishes, are among those skipped.
    rng = random.Random(5)
    grid = grid_params(3)
    checked = 0
    for _ in range(60):
        a, b = (rand_qpolyuv(rng, rng.randint(0, 2), rng.randint(0, 2)) for _ in range(2))
        t = tuple_from_pair(a, b)
        for u0 in grid:
            for v0 in grid:
                a0 = a.eval(u0, v0)
                if not a0:
                    continue
                assert tuple_to_sphere_map(t, u0, v0) == _inverse_stereographic(a0.conj().inverse() * b.eval(u0, v0))
                checked += 1
    assert checked >= 400

# endregion

# region serialization


def test_tuple_json_round_trip():
    rng = random.Random(46)
    for _ in range(20):
        t = PyTuple(*(rand_rpolyuv(rng, 2, 2) for _ in range(6)))
        again = PyTuple.from_json(t.to_json())
        assert again.components() == t.components()
    with pytest.raises(InvalidInput):
        PyTuple.from_json([[], []])


# endregion

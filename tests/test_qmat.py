"""Matrices over the polynomial ring: Kronecker products, symmetries, degeneracy."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quatsurf import (
    InvalidInput,
    Mat2,
    QPolyUV,
    Quaternion,
    RPolyUV,
    Vec2,
    col_op,
    conj_transpose,
    is_degenerate,
    kron,
    swap_cols,
    swap_rows,
)
from quatsurf.qmat import _full_rank_witness, _pivoted
from quatsurf.quat import I, J, K, ONE

from helpers import (
    _SYMMETRIES,
    _apply_move,
    rand_nonzero_qpolyuv,
    rand_qpolyuv,
    rand_rpolyuv,
    rand_vec2,
    reference_full_rank_witness,
    reference_is_degenerate,
    reference_origin_full_rank,
)

U = QPolyUV.var_u()
V = QPolyUV.var_v()
ZERO = QPolyUV.zero()
ONE_P = QPolyUV.one()


def const(q) -> QPolyUV:
    return QPolyUV.const(q)


# region kron and elementary operations


def test_kron_basis_row():
    a, b = U + 1, V * J
    m = kron(Vec2(ONE_P, ZERO), Vec2(a, b))
    assert m.m11 == a and m.m12 == b
    assert m.m21.is_zero and m.m22.is_zero


def test_kron_frozen_examples():
    m = kron(Vec2(ONE_P, U), Vec2(ONE_P, V))
    assert (m.m11, m.m12, m.m21, m.m22) == (ONE_P, V, U, U * V)

    m = kron(Vec2(const(I), const(J)), Vec2(const(I), ONE_P))
    assert (m.m11, m.m12, m.m21, m.m22) == (const(-ONE), const(I), const(-K), const(J))


def test_col_op_identity_and_example():
    m = kron(Vec2(ONE_P, U), Vec2(ONE_P, V))
    assert col_op(m, ZERO) == m
    moved = col_op(m, ONE_P)
    assert (moved.m11, moved.m12) == (ONE_P - V, V)
    assert (moved.m21, moved.m22) == (U - U * V, U * V)
    # A scalar stands for the constant polynomial; any other operand is refused.
    assert col_op(m, 1) == col_op(m, ONE) == moved
    for other in (0.5, True, RPolyUV.var_u(), "u"):
        with pytest.raises(TypeError):
            col_op(m, other)


def test_col_op_split_recovery():
    # col_op(kron(x, y), c) = kron(x, (y1 - y2*c, y2)), so the inverse
    # operation restores the second factor as (b1 + b2*c, b2).
    rng = random.Random(20)
    for _ in range(30):
        x, y = rand_vec2(rng), rand_vec2(rng)
        c = rand_qpolyuv(rng)
        assert col_op(kron(x, y), c) == kron(x, Vec2(y.e1 - y.e2 * c, y.e2))
        a, b = x, Vec2(y.e1 - y.e2 * c, y.e2)
        assert kron(a, Vec2(b.e1 + b.e2 * c, b.e2)) == kron(x, y)


def test_col_op_invertible():
    rng = random.Random(21)
    for _ in range(20):
        m = Mat2(*(rand_qpolyuv(rng) for _ in range(4)))
        c = rand_qpolyuv(rng)
        assert col_op(col_op(m, c), -c) == m


def test_swaps_are_involutions():
    rng = random.Random(22)
    for _ in range(20):
        m = Mat2(*(rand_qpolyuv(rng) for _ in range(4)))
        assert swap_rows(swap_rows(m)) == m
        assert swap_cols(swap_cols(m)) == m
        assert conj_transpose(conj_transpose(m)) == m


def test_conj_transpose_examples():
    m = Mat2(ONE_P, ZERO, ZERO, ZERO)
    assert conj_transpose(m) == m

    lhs = conj_transpose(kron(Vec2(const(I), const(J)), Vec2(ONE_P, ZERO)))
    rhs = kron(Vec2(ONE_P, ZERO), Vec2(const(-I), const(-J)))
    assert lhs == rhs


def test_symmetries_transform_factors():
    rng = random.Random(23)
    for _ in range(20):
        x, y = rand_vec2(rng), rand_vec2(rng)
        m = kron(x, y)
        assert swap_rows(m) == kron(Vec2(x.e2, x.e1), y)
        assert swap_cols(m) == kron(x, Vec2(y.e2, y.e1))
        assert conj_transpose(m) == kron(y.conj(), x.conj())


# endregion

# region degeneracy


def test_identity_not_degenerate():
    assert not is_degenerate(Mat2(ONE_P, ZERO, ZERO, ONE_P))


def test_pythagorean_constant_matrix_degenerate():
    # Second row is (3-4i)/5 times the first; built from 3^2 + 4^2 = 5^2.
    m = Mat2(const(Quaternion(5)), const(Quaternion(3, 4)), const(Quaternion(3, -4)), const(Quaternion(5)))
    assert is_degenerate(m)


def test_kron_always_degenerate():
    rng = random.Random(24)
    for _ in range(60):
        assert is_degenerate(kron(rand_vec2(rng), rand_vec2(rng)))


def test_zero_matrix_and_zero_row_degenerate():
    assert is_degenerate(Mat2(ZERO, ZERO, ZERO, ZERO))
    rng = random.Random(25)
    for _ in range(10):
        a, b = rand_qpolyuv(rng), rand_qpolyuv(rng)
        assert is_degenerate(Mat2(a, b, ZERO, ZERO))
        assert is_degenerate(Mat2(ZERO, a, ZERO, b))


def test_near_kron_not_degenerate():
    m = Mat2(ONE_P, V, U, U * V + 1)
    assert not is_degenerate(m)


def test_high_v_degree_does_not_alias_u():
    # u and v**(2**20) are distinct monomials; the matrix has full rank.
    m = Mat2(QPolyUV.monomial(1, 0, 2**20), U, ONE_P, ONE_P)
    assert not is_degenerate(m)
    assert is_degenerate(Mat2(QPolyUV.monomial(1, 0, 2**20), U, ZERO, ZERO))


def test_degeneracy_invariant_under_symmetries_and_col_op():
    rng = random.Random(26)
    for _ in range(25):
        if rng.random() < 0.5:
            m = kron(rand_vec2(rng), rand_vec2(rng))
        else:
            m = Mat2(*(rand_qpolyuv(rng) for _ in range(4)))
        expected = is_degenerate(m)
        c = rand_qpolyuv(rng)
        assert is_degenerate(swap_rows(m)) == expected
        assert is_degenerate(swap_cols(m)) == expected
        assert is_degenerate(conj_transpose(m)) == expected
        assert is_degenerate(col_op(m, c)) == expected


def test_real_entries_match_commutative_determinant():
    # With all-real entries the quaternionic rank condition collapses to the
    # familiar 2x2 determinant over the commutative polynomial ring.
    rng = random.Random(27)
    for _ in range(40):
        a, b, c, d = (rand_rpolyuv(rng, 2, 1) for _ in range(4))
        m = Mat2(a.to_quat(), b.to_quat(), c.to_quat(), d.to_quat())
        assert is_degenerate(m) == (a * d - b * c).is_zero



def test_order_of_the_pivot_product_matters():
    # 1*k - i*j = 0 commutatively, but the left multiple of row (1, i) that
    # starts with j is (j, j*i) = (j, -k), so only the second matrix is
    # degenerate.  Checking b*conj(a)*c instead of c*conj(a)*b gets both wrong.
    assert not is_degenerate(Mat2(ONE_P, const(I), const(J), const(K)))
    assert is_degenerate(Mat2(ONE_P, const(I), const(J), const(-K)))


def test_rational_entries_are_compared_without_row_scaling():
    # 1/2 * 1/6 = 1/3 * 1/4, while 1/2 * 1/5 differs; denominators differ within each row.
    half, third, quarter = const(Fraction(1, 2)), const(Fraction(1, 3)), const(Fraction(1, 4))
    assert is_degenerate(Mat2(half, third, quarter, const(Fraction(1, 6))))
    assert not is_degenerate(Mat2(half, third, quarter, const(Fraction(1, 5))))


def test_zero_pivot_with_both_neighbors_nonzero_has_full_rank():
    rng = random.Random(29)
    for _ in range(10):
        b, c = rand_nonzero_qpolyuv(rng), rand_nonzero_qpolyuv(rng)
        d = rand_qpolyuv(rng)
        assert not is_degenerate(Mat2(ZERO, b, c, d))
        assert is_degenerate(Mat2(ZERO, ZERO, c, d))
        assert is_degenerate(Mat2(ZERO, b, ZERO, d))


# The five shapes with a zero at 11, as masks over (m12, m21, m22).
_ZERO_AT_11 = ((1, 1, 1), (0, 1, 1), (1, 0, 1), (1, 1, 0), (0, 0, 1))


@st.composite
def degeneracy_cases(draw):
    """Rank-one products, perturbed products, zero-pivot shapes and random matrices."""
    rng = draw(st.randoms(use_true_random=False))
    kw = draw(st.sampled_from([{}, {"max_num": 999999, "max_den": 999999}]))
    kind = draw(st.sampled_from(["kron", "kron-zero-head", "kron-plus-22", "zero-at-11", "random"]))
    if kind == "zero-at-11":
        mask = draw(st.sampled_from(_ZERO_AT_11))
        return Mat2(ZERO, *(rand_nonzero_qpolyuv(rng, **kw) if keep else ZERO for keep in mask))
    if kind == "random":
        return Mat2(*(rand_qpolyuv(rng, **kw) for _ in range(4)))
    x, y = rand_vec2(rng, **kw), rand_vec2(rng, **kw)
    if kind == "kron-zero-head":
        if draw(st.booleans()):
            x = Vec2(ZERO, x.e2)
        else:
            y = Vec2(ZERO, y.e2)
    m = kron(x, y)
    if kind == "kron-plus-22":
        m = Mat2(m.m11, m.m12, m.m21, m.m22 + rand_nonzero_qpolyuv(rng, **kw))
    return m


@settings(max_examples=120)
@given(degeneracy_cases())
def test_degeneracy_matches_complex_embedding(m):
    assert is_degenerate(m) == reference_is_degenerate(m)


# Small rationals mixed with heights up to about 10**30, so denominators differ per coefficient.
rationals = st.one_of(
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)),
    st.builds(Fraction, st.integers(-10**30, 10**30), st.integers(1, 10**30)),
)
coefficients = st.builds(Quaternion, rationals, rationals, rationals, rationals).filter(bool)


@st.composite
def polys(draw, max_dv: int = 1, constant: bool = True):
    """Up to three terms of u-degree at most 2; without ``constant``, or on a drawn
    multiplication by u or v, the constant term vanishes.  May be zero."""
    keys = st.tuples(st.integers(0, 2), st.integers(0, max_dv))
    p = QPolyUV(draw(st.dictionaries(keys, coefficients, max_size=3)))
    shift = draw(st.sampled_from([None, U, V] if max_dv else [None, U]))
    if shift is not None or not constant:
        p = p * (shift or U)
    return p


@st.composite
def products(draw):
    """``kron(x, y)`` with factors that may be v-free, lack constant terms or be zero."""
    dv_x, dv_y = draw(st.sampled_from([(0, 0), (0, 1), (1, 0), (1, 1)]))
    x = Vec2(draw(polys(dv_x)), draw(polys(dv_x)))
    y = Vec2(draw(polys(dv_y)), draw(polys(dv_y)))
    return kron(x, y)


@settings(max_examples=80)
@given(products())
def test_the_extreme_term_check_never_fires_on_a_product(m):
    assert _full_rank_witness(m) is None
    assert is_degenerate(m) and reference_is_degenerate(m)


@st.composite
def full_rank_at_the_origin(draw):
    """Matrices whose constant terms have full rank: a product plus a constant
    in one slot, or four entries with drawn, possibly zero, constant terms."""
    if draw(st.booleans()):
        entries = list(draw(products()).entries())
        entries[draw(st.integers(0, 3))] += QPolyUV.const(draw(coefficients))
    else:
        constants = [draw(st.one_of(st.just(0), coefficients)) for _ in range(4)]
        entries = [draw(polys(constant=False)) + c for c in constants]
    m = Mat2(*entries)
    assume(reference_origin_full_rank(m))
    return m


@settings(max_examples=80)
@given(full_rank_at_the_origin())
def test_the_extreme_term_check_fires_where_the_origin_test_did(m):
    assert _full_rank_witness(m) is not None
    assert not is_degenerate(m) and not reference_is_degenerate(m)


@pytest.mark.parametrize("p", [(ONE_P + U) * (ONE_P + V), (ONE_P + U) * (ONE_P + U)], ids=["uv", "u-only"])
def test_a_middle_monomial_is_left_to_the_full_identity(p):
    # Adding u to m22 changes neither extreme term of N(a)*d, so only the
    # whole identity sees that the matrix has full rank.
    m = Mat2(p, p, p, p + U)
    assert _full_rank_witness(m) is None
    assert not is_degenerate(m) and not reference_is_degenerate(m)
    degenerate = Mat2(p, p, p, p)
    assert _full_rank_witness(degenerate) is None
    assert is_degenerate(degenerate) and reference_is_degenerate(degenerate)


# u-only x and v-only y, so the entry x_i*y_j has |x_i|*|y_j| terms.  Two-term
# factors at row i and column j give that entry 4 terms, its neighbours 6 and
# the opposite entry 9, which makes it the strictly cheapest pivot.
_SHORT_X, _LONG_X = ONE_P + U * I, ONE_P + U * J + U * U * K
_SHORT_Y, _LONG_Y = const(J) + V, const(I) + V * K + V * V


def _pivot_at(index: int) -> Mat2:
    row, col = divmod(index, 2)
    x = Vec2(_SHORT_X, _LONG_X) if row == 0 else Vec2(_LONG_X, _SHORT_X)
    y = Vec2(_SHORT_Y, _LONG_Y) if col == 0 else Vec2(_LONG_Y, _SHORT_Y)
    return kron(x, y)


def _plus_at(m: Mat2, index: int, term: QPolyUV) -> Mat2:
    entries = list(m.entries())
    entries[index] += term
    return Mat2(*entries)


@pytest.mark.parametrize("index", range(4), ids=["m11", "m12", "m21", "m22"])
@pytest.mark.parametrize("full_rank", [False, True], ids=["product", "middle-monomial"])
def test_each_entry_can_be_the_pivot(index, full_rank):
    m = _pivot_at(index)
    if full_rank:
        # u lies strictly between the pivot's extreme keys (0, 0) and (1, 1):
        # it changes one middle coefficient and neither extreme term, so only
        # the identity on this pivot sees the full rank.
        m = _plus_at(m, index, U)
    assert _pivoted(m)[0] is m.entries()[index]._ints
    assert _full_rank_witness(m) is None
    assert is_degenerate(m) == reference_is_degenerate(m) == (not full_rank)


@settings(max_examples=60)
@given(st.one_of(degeneracy_cases(), products()))
def test_degeneracy_is_the_same_on_all_eight_symmetries(m):
    # The symmetries move entries, and with them the pivot _pivoted picks.
    expected = reference_is_degenerate(m)
    for sym in _SYMMETRIES:
        moved = m
        for op in sym:
            moved = _apply_move(moved, (op,))
        assert is_degenerate(moved) == expected


# kron(x, y) has m22 = (1 + u*i)*(k + u*i) = k + u*(i - j) - u**2: its leading
# key is (2, 0) with coefficient -1, its trailing key (0, 0) with k.
_PRODUCT = kron(Vec2(ONE_P + U * J, ONE_P + U * I), Vec2(const(J) + U * V * K, const(K) + U * I))
_WITNESS_CASES = {
    "product": (_PRODUCT, None),
    "product-with-a-zero-row": (kron(Vec2(ZERO, U + I), Vec2(ONE_P + V, U * J)), None),
    "zero-pivot-full-rank": (Mat2(ZERO, ONE_P, U, ONE_P), "identity"),
    "zero-corner-full-rank": (Mat2(ONE_P, U, V, ZERO), "identity"),
    "leading-exponent": (_plus_at(_PRODUCT, 3, U * U * U * U * U), "leading term"),
    "leading-coefficient": (_plus_at(_PRODUCT, 3, QPolyUV.monomial(K, 2, 0)), "leading term"),
    "trailing-coefficient": (_plus_at(_PRODUCT, 3, const(I)), "trailing term"),
    "trailing-exponent": (Mat2(U, U, U, U + ONE_P), "trailing term"),
}


@pytest.mark.parametrize("m, witness", _WITNESS_CASES.values(), ids=_WITNESS_CASES)
def test_the_extreme_term_check_matches_its_reference(m, witness):
    assert _full_rank_witness(m) == reference_full_rank_witness(m) == witness


@settings(max_examples=80)
@given(st.one_of(degeneracy_cases(), products(), full_rank_at_the_origin()))
def test_the_extreme_term_check_matches_its_reference_on_drawn_matrices(m):
    assert _full_rank_witness(m) == reference_full_rank_witness(m)

# endregion

# region serialization


def test_matrix_json_round_trip():
    rng = random.Random(28)
    for _ in range(20):
        m = Mat2(*(rand_qpolyuv(rng) for _ in range(4)))
        assert Mat2.from_json(m.to_json()) == m
        x = rand_vec2(rng)
        assert Vec2.from_json(x.to_json()) == x


def test_matrix_json_rejects_malformed():
    with pytest.raises(InvalidInput):
        Mat2.from_json([[], []])
    with pytest.raises(InvalidInput):
        Vec2.from_json("nope")


# endregion

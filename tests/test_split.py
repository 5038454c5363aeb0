"""Rank-one factorization: certificates, conventions, error paths, round trips."""

import hashlib
import importlib
import json
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from quatsurf import (
    InvalidInput,
    Mat2,
    NoProgress,
    NotDegenerate,
    PreconditionDegree,
    QPolyUV,
    QuatsurfError,
    Quaternion,
    SplitCertificate,
    Vec2,
    col_op,
    conj_transpose,
    is_degenerate,
    kron,
    split,
    split_normalize,
    swap_cols,
    swap_rows,
)
from quatsurf.qpoly import v_slices
from quatsurf.quat import I, J, K, ONE

from helpers import _SYMMETRIES, _apply_move, _undo_on_factors, rand_nonzero_qpolyuv, rand_nonzero_quat, rand_qpolyuv, rand_vec2, reference_split

U = QPolyUV.var_u()
V = QPolyUV.var_v()
ZERO = QPolyUV.zero()
ONE_P = QPolyUV.one()

# The package's ``split`` attribute is the function, so patch through the module object.
SPLIT_MODULE = importlib.import_module("quatsurf.split")


def const(*components) -> QPolyUV:
    return QPolyUV.const(Quaternion(*components))


def assert_splits(m: Mat2) -> SplitCertificate:
    cert = split(m)
    assert kron(cert.x, cert.y) == m
    return cert


# region conventions and frozen examples


def test_zero_matrix_convention():
    cert = split(Mat2(ZERO, ZERO, ZERO, ZERO))
    assert cert.x.e1.is_zero and cert.x.e2.is_zero
    assert cert.y.e1 == ONE_P and cert.y.e2.is_zero


def test_rank_one_product_of_variables():
    m = Mat2(ONE_P, V, U, U * V)
    cert = assert_splits(m)
    # Any valid factorization is acceptable; this input happens to admit
    # x=(1,u), y=(1,v), but only the product is pinned down.
    assert kron(cert.x, cert.y) == kron(Vec2(ONE_P, U), Vec2(ONE_P, V))


def test_constant_pythagorean_matrix():
    m = Mat2(
        QPolyUV.const(Quaternion(5)),
        QPolyUV.const(Quaternion(3, 4)),
        QPolyUV.const(Quaternion(3, -4)),
        QPolyUV.const(Quaternion(5)),
    )
    assert_splits(m)


# Raw (un-normalized) split certificates, frozen, with their normalized
# forms.  The ids name the paths an earlier reduction of the slopes took.  In
# all three x is free of v and is read off a slope column as its monic right
# primitive part, so here the raw forms equal the normalized ones; the
# normalized forms are the ones every earlier reduction path gave too.
_FROZEN_SPLITS = [
    (
        kron(Vec2(ONE_P, U), Vec2(V * I + U, V * J)),
        {
            "x": [[{"u": 0, "v": 0, "c": ["1", "0", "0", "0"]}], [{"u": 1, "v": 0, "c": ["1", "0", "0", "0"]}]],
            "y": [[{"u": 0, "v": 1, "c": ["0", "1", "0", "0"]}, {"u": 1, "v": 0, "c": ["1", "0", "0", "0"]}], [{"u": 0, "v": 1, "c": ["0", "0", "1", "0"]}]],
        },
        {
            "x": [[{"u": 0, "v": 0, "c": ["1", "0", "0", "0"]}], [{"u": 1, "v": 0, "c": ["1", "0", "0", "0"]}]],
            "y": [[{"u": 0, "v": 1, "c": ["0", "1", "0", "0"]}, {"u": 1, "v": 0, "c": ["1", "0", "0", "0"]}], [{"u": 0, "v": 1, "c": ["0", "0", "1", "0"]}]],
        },
    ),
    (
        kron(Vec2(U * const(1, 1), U * I), Vec2(U * K + U * V * const(1, 1), V * const(1, 0, -1))),
        {
            "x": [[{"u": 0, "v": 0, "c": ["1", "0", "0", "0"]}], [{"u": 0, "v": 0, "c": ["1/2", "1/2", "0", "0"]}]],
            "y": [[{"u": 2, "v": 0, "c": ["0", "0", "-1", "1"]}, {"u": 2, "v": 1, "c": ["0", "2", "0", "0"]}], [{"u": 1, "v": 1, "c": ["1", "1", "-1", "-1"]}]],
        },
        {
            "x": [[{"u": 0, "v": 0, "c": ["1", "0", "0", "0"]}], [{"u": 0, "v": 0, "c": ["1/2", "1/2", "0", "0"]}]],
            "y": [[{"u": 2, "v": 0, "c": ["0", "0", "-1", "1"]}, {"u": 2, "v": 1, "c": ["0", "2", "0", "0"]}], [{"u": 1, "v": 1, "c": ["1", "1", "-1", "-1"]}]],
        },
    ),
    (
        kron(Vec2(U * J, ONE_P + U * const(1, 0, -1)), Vec2(const(1, 1) + U * 2, ONE_P + V * const(1, 1))),
        {
            "x": [[{"u": 1, "v": 0, "c": ["1", "0", "0", "0"]}], [{"u": 0, "v": 0, "c": ["0", "0", "-1", "0"]}, {"u": 1, "v": 0, "c": ["-1", "0", "-1", "0"]}]],
            "y": [[{"u": 0, "v": 0, "c": ["0", "0", "1", "-1"]}, {"u": 1, "v": 0, "c": ["0", "0", "2", "0"]}], [{"u": 0, "v": 0, "c": ["0", "0", "1", "0"]}, {"u": 0, "v": 1, "c": ["0", "0", "1", "-1"]}]],
        },
        {
            "x": [[{"u": 1, "v": 0, "c": ["1", "0", "0", "0"]}], [{"u": 0, "v": 0, "c": ["0", "0", "-1", "0"]}, {"u": 1, "v": 0, "c": ["-1", "0", "-1", "0"]}]],
            "y": [[{"u": 0, "v": 0, "c": ["0", "0", "1", "-1"]}, {"u": 1, "v": 0, "c": ["0", "0", "2", "0"]}], [{"u": 0, "v": 0, "c": ["0", "0", "1", "0"]}, {"u": 0, "v": 1, "c": ["0", "0", "1", "-1"]}]],
        },
    ),
]


@pytest.mark.parametrize("m, raw, normalized", _FROZEN_SPLITS, ids=["row-swap-then-ct", "co-then-ct", "ct-first"])
def test_split_choices_are_frozen(m, raw, normalized):
    cert = split(m)
    assert cert.to_json() == raw
    assert split_normalize(cert).to_json() == normalized


def _costly_shapes():
    """Dense factors of u-degree 3 with 3-digit heights: the 8 products whose
    coefficients grew to thousands of bits before the columns were made monic."""
    rng = random.Random(40)
    for _ in range(8):
        x = rand_vec2(rng, 3, 0, density=1.0, max_num=999, max_den=999)
        y = rand_vec2(rng, 3, 1, density=1.0, max_num=999, max_den=999)
        yield kron(x, y)


def test_costly_shape_certificates_are_pinned():
    # reference_split shares the polynomial kernel and cannot catch a fault
    # in it; this digest of the normalized certificates, taken before the
    # kernel was fused and before the columns were made monic, can.  Raw
    # certificates depend on the reduction path and are not pinned here.
    digest = hashlib.sha256()
    for m in _costly_shapes():
        cert = split_normalize(split(m))
        digest.update(json.dumps(cert.to_json(), separators=(",", ":")).encode())
    assert digest.hexdigest() == "dd9a8946dac85ab3dfbe333cc12147320a25b1b51a1b9eea1e13e5a5ee43062a"


def test_costly_shape_raw_certificates_stay_small():
    # x is the monic right primitive part of a slope column, found by Euclid
    # with monic remainders, so the raw certificates of these shapes hold
    # integers of at most 128 bits.
    for m in _costly_shapes():
        cert = split(m)
        for e in (cert.x.e1, cert.x.e2, cert.y.e1, cert.y.e2):
            for c in e.terms.values():
                for r in c.components():
                    assert max(r.numerator.bit_length(), r.denominator.bit_length()) <= 128


def _slices(m: Mat2):
    """The four v-slopes and the four v-free parts of ``m``'s entries."""
    return tuple(zip(*(v_slices(e) for e in m.entries())))


def test_v_slopes_follow_their_entries_under_each_move():
    # v is central and conjugation acts coefficientwise, so each symmetry
    # takes the v-slices of a matrix to the v-slices of the moved matrix.
    rng = random.Random(40)
    for _ in range(40):
        m = Mat2(*(rand_qpolyuv(rng, 2, 1) for _ in range(4)))
        for move in (swap_rows, swap_cols, conj_transpose):
            assert tuple(move(Mat2(*part)).entries() for part in _slices(m)) == _slices(move(m))


@st.composite
def split_cases(draw):
    """v-free and v-linear products, v-free products ``kron(x*g, h*y)`` with
    common factors, products with zeroed factor slots, all sixteen support
    patterns of one polynomial, or full-rank matrices: a product of nonzero
    factors plus a nonzero constant in one slot, and the swap matrix."""
    rng = draw(st.randoms(use_true_random=False))
    kind = draw(st.sampled_from(["v-free", "v-free-common", "v-linear", "zero-slots", "support", "full-rank"]))
    if kind == "v-free-common":
        x, y = rand_vec2(rng, 2, 0), rand_vec2(rng, 2, 0)
        g, h = rand_nonzero_qpolyuv(rng, 1, 0), rand_nonzero_qpolyuv(rng, 1, 0)
        return [kron(Vec2(x.e1 * g, x.e2 * g), Vec2(h * y.e1, h * y.e2))]
    if kind == "support":
        p = rand_nonzero_qpolyuv(rng, 2, 1)
        return [Mat2(*(p if mask >> i & 1 else ZERO for i in range(4))) for mask in range(16)]
    if kind == "full-rank":
        x = Vec2(rand_nonzero_qpolyuv(rng, 2, 0), rand_nonzero_qpolyuv(rng, 2, 0))
        y = Vec2(rand_nonzero_qpolyuv(rng, 2, 1), rand_nonzero_qpolyuv(rng, 2, 1))
        entries = list(kron(x, y).entries())
        entries[draw(st.integers(0, 3))] += QPolyUV.const(rand_nonzero_quat(rng))
        return [Mat2(*entries), Mat2(ZERO, ONE_P, ONE_P, ZERO)]
    max_dv = 0 if kind == "v-free" else 1
    slots = [rand_qpolyuv(rng, 2, dv) for dv in (0, 0, max_dv, max_dv)]
    if kind == "zero-slots":
        mask = draw(st.integers(1, 15))
        slots = [ZERO if mask >> i & 1 else e for i, e in enumerate(slots)]
    if draw(st.booleans()):
        slots = slots[2:] + slots[:2]
    return [kron(Vec2(*slots[:2]), Vec2(*slots[2:]))]


def _outcome(factor, m):
    try:
        return split_normalize(factor(m)).to_json()
    except QuatsurfError as exc:
        return type(exc)


@given(split_cases())
def test_split_matches_the_two_case_reduction(matrices):
    # Normalized certificates, not only their products: the reference takes
    # the steps of the two-game reduction without monic columns, so raw
    # certificates differ, but the normalized ones must agree.  The reference
    # decides degeneracy up front, so a full-rank matrix must end in
    # NotDegenerate on both.
    for m in matrices:
        assert _outcome(split, m) == _outcome(reference_split, m)


_P = ONE_P + V
_G = ONE_P + U * I
_X, _Y = Vec2(ONE_P, U), Vec2(U + V * J, ONE_P + V)
_RIGHT_FACTOR = kron(Vec2(_X.e1 * _G, _X.e2 * _G), _Y)
_Y_EXTREMES = Vec2(V + 1 + U * U, V + 1 + U + U * U)
_H = ONE_P + U * J
_Y0 = Vec2(ONE_P + U * K, U)


@pytest.mark.parametrize(
    "m, x, y",
    [
        # A v-dependent middle factor of x0*p*y0 ends in x.
        (Mat2(_P, _P, _P, _P), Vec2(_P, _P), Vec2(ONE_P, ONE_P)),
        # A v-free common right factor of a v-free x ends in y ...
        (_RIGHT_FACTOR, _X, Vec2(_G * _Y.e1, _G * _Y.e2)),
        # ... and, after the conjugate transpose, in the v-dependent x.
        (conj_transpose(_RIGHT_FACTOR), Vec2(_Y.e1.conj() * _G.conj(), _Y.e2.conj() * _G.conj()), _X.conj()),
        # Each row's slopes and v-free parts agree with a rank-one row on
        # their extreme terms, so the y side is tried; its product differs,
        # and the x side factors the matrix.
        (kron(_X, _Y_EXTREMES), _X, _Y_EXTREMES),
        # In a v-free matrix with no zero entry y is read off a row as a
        # primitive part, so a common right factor of x stays in x ...
        (kron(Vec2(_X.e1 * _G, _X.e2 * _G), _Y0), Vec2(_X.e1 * _G, _X.e2 * _G), _Y0),
        # ... and a common left factor of y moves to x.
        (kron(_X, Vec2(_H * _Y0.e1, _H * _Y0.e2)), Vec2(_X.e1 * _H, _X.e2 * _H), _Y0),
    ],
    ids=["middle-factor-in-x", "right-factor-in-y", "conjugate-in-x", "y-side-fails", "v-free-right-factor-in-x", "v-free-left-factor-in-x"],
)
def test_where_a_common_factor_ends(m, x, y):
    expected = split_normalize(SplitCertificate(x, y))
    assert kron(x, y) == m
    assert split_normalize(split(m)) == expected
    assert split_normalize(reference_split(m)) == expected


@st.composite
def nonzero_products(draw):
    """Factor-shaped products kron(x, y) with x v-free, their conjugate
    transposes (x depends on v), and products whose x has a common right
    factor; never the zero matrix, whose y is free."""
    rng = draw(st.randoms(use_true_random=False))
    kind = draw(st.sampled_from(["factor", "transposed", "common-factor"]))
    x, y = rand_vec2(rng, 2, 0), rand_vec2(rng, 2, 1)
    if kind == "common-factor":
        g = rand_nonzero_qpolyuv(rng, 1, 0)
        x = Vec2(x.e1 * g, x.e2 * g)
    m = kron(x, y)
    if kind == "transposed":
        m = conj_transpose(m)
    assume(not m.is_zero)
    return m


@given(nonzero_products())
def test_normalized_certificate_does_not_depend_on_the_path(m):
    # Factoring S(m) for each of the eight symmetries S and mapping the
    # certificate back through S's moves gives the certificate of m that
    # split_normalize returns: the normalized form is path-independent.
    expected = split_normalize(split(m))
    for sym in _SYMMETRIES:
        moved = m
        for op in sym:
            moved = _apply_move(moved, (op,))
        cert = split(moved)
        x, y = (cert.x.e1, cert.x.e2), (cert.y.e1, cert.y.e2)
        for op in reversed(sym):
            x, y = _undo_on_factors(x, y, (op,))
        assert split_normalize(SplitCertificate(Vec2(*x), Vec2(*y))) == expected

# endregion

# region error paths


def test_precondition_degree():
    with pytest.raises(PreconditionDegree):
        split(Mat2(V * V, ZERO, ZERO, ZERO))
    # Full rank as well: the degree check still comes first.
    with pytest.raises(PreconditionDegree):
        split(Mat2(V * V, ZERO, ZERO, ONE_P))


def test_not_degenerate():
    with pytest.raises(NotDegenerate):
        split(Mat2(ONE_P, ZERO, ZERO, ONE_P))
    with pytest.raises(NotDegenerate):
        split(Mat2(ONE_P, V, U, U * V + 1))


def test_full_rank_constant_terms_reject_before_the_reduction(monkeypatch):
    def no_reduction(m):
        raise AssertionError("the reduction ran")

    monkeypatch.setattr(SPLIT_MODULE, "_reduce", no_reduction)
    with pytest.raises(NotDegenerate, match=r"^matrix rows are not left-linearly dependent$"):
        split(Mat2(U, ONE_P, ONE_P, U))


@pytest.mark.parametrize("m11", [ONE_P + U, ONE_P + V], ids=["1+u", "1+v"])
def test_extreme_terms_reject_before_the_reduction(monkeypatch, m11):
    # Both matrices are [[1, 1], [1, 1]] at (0, 0), but the leading terms of
    # c*conj(a)*b and N(a)*d have different exponents.
    def no_reduction(m):
        raise AssertionError("the reduction ran")

    monkeypatch.setattr(SPLIT_MODULE, "_reduce", no_reduction)
    with pytest.raises(NotDegenerate, match=r"^matrix rows are not left-linearly dependent$") as info:
        split(Mat2(m11, ONE_P, ONE_P, ONE_P))
    assert info.value.witness == "leading term"


@pytest.mark.parametrize("p", [(ONE_P + U) * (ONE_P + V), (ONE_P + U) * (ONE_P + U)], ids=["uv", "u-only"])
def test_full_rank_degenerate_at_the_origin_goes_through_the_fallback(monkeypatch, p):
    # u added at m22 moves neither extreme term of either side, so only the
    # reduction and the whole-matrix test can reject the matrix.
    calls = []
    reduce = SPLIT_MODULE._reduce
    monkeypatch.setattr(SPLIT_MODULE, "_reduce", lambda m: calls.append(m) or reduce(m))
    with pytest.raises(NotDegenerate, match=r"^matrix rows are not left-linearly dependent$") as info:
        split(Mat2(p, p, p, p + U))
    assert len(calls) == 1
    assert info.value.witness == "identity"


def test_a_failed_candidate_on_a_degenerate_matrix_is_no_progress(monkeypatch):
    # The whole-matrix test finds the product degenerate, so split re-raises
    # the failure rather than calling the matrix full rank.
    monkeypatch.setattr(SPLIT_MODULE, "_candidates", lambda drivers, slopes, consts: iter(()))
    m = kron(Vec2(ONE_P + U * K, const(2)), Vec2(U, ONE_P + V))
    with pytest.raises(NoProgress, match=r"^internal error: certificate failed verification$"):
        split(m)


@pytest.mark.parametrize(
    "m, witness",
    [
        (Mat2(U, ONE_P, ONE_P, U), "leading term"),
        (Mat2(ONE_P + U, ONE_P + U, ONE_P + U, U + 2), "trailing term"),
        (Mat2(ZERO, ONE_P, V, ZERO), "identity"),
        (Mat2(U, ONE_P, V, ZERO), "identity"),
    ],
    ids=["leading", "trailing", "zero-pivot", "zero-m22"],
)
def test_not_degenerate_names_its_witness(m, witness):
    with pytest.raises(NotDegenerate) as info:
        split(m)
    assert info.value.witness == witness
    assert str(info.value) == "matrix rows are not left-linearly dependent"
    assert not is_degenerate(m)


@pytest.mark.parametrize("transpose", [False, True], ids=["x-side", "y-side"])
@pytest.mark.parametrize("slot", range(4))
def test_the_half_check_rejects_a_perturbed_entry(slot, transpose):
    # 3u moves neither extreme term, so the reduction must reject the matrix.
    # In the row (x side) or column (y side) that split divides, a remainder
    # does; elsewhere only the check of the two unproven products can.
    rng = random.Random(slot)
    for _ in range(40):
        x = Vec2(*(rand_nonzero_qpolyuv(rng, 2, 0, density=1.0) for _ in range(2)))
        y = Vec2(*(rand_nonzero_qpolyuv(rng, 2, 1, density=1.0) for _ in range(2)))
        entries = list(kron(x, y).entries())
        entries[slot] += 3 * U
        m = conj_transpose(Mat2(*entries)) if transpose else Mat2(*entries)
        with pytest.raises(NotDegenerate) as info:
            split(m)
        assert info.value.witness == "identity"


@st.composite
def products_with_zero_constants(draw):
    """``kron(x, y)`` with one factor v-free; factor entries multiplied by u have no constant term."""
    rng = draw(st.randoms(use_true_random=False))
    dvs = draw(st.sampled_from([(0, 1), (1, 0)]))
    factors = [rand_qpolyuv(rng, 2, dv) for dv in (dvs[0], dvs[0], dvs[1], dvs[1])]
    for i in range(4):
        if draw(st.booleans()):
            factors[i] = factors[i] * U
    return kron(Vec2(*factors[:2]), Vec2(*factors[2:]))


@given(products_with_zero_constants())
def test_the_origin_test_never_rejects_a_product(m):
    assert_splits(m)


# endregion

# region round trips


def test_round_trip_random_products():
    rng = random.Random(31)
    for _ in range(100):
        x = rand_vec2(rng, max_du=2, max_dv=0)
        y = rand_vec2(rng, max_du=2, max_dv=1)
        assert_splits(kron(x, y))


def test_round_trip_v_free_products():
    rng = random.Random(32)
    for _ in range(60):
        x = rand_vec2(rng, max_du=2, max_dv=0)
        y = rand_vec2(rng, max_du=2, max_dv=0)
        assert_splits(kron(x, y))


def test_round_trip_edge_shapes():
    shapes = [
        (Vec2(ZERO, U + 1), Vec2(V, ONE_P)),
        (Vec2(U, ZERO), Vec2(ONE_P, V + U)),
        (Vec2(ONE_P, U), Vec2(ZERO, V)),
        (Vec2(ONE_P, U), Vec2(V, ZERO)),
        (Vec2(QPolyUV.const(I), QPolyUV.const(J)), Vec2(V + 1, V - 1)),
        (Vec2(U * U + 1, U), Vec2(U * V, U)),
        (Vec2(ONE_P, ONE_P), Vec2(V, V)),
        (Vec2(QPolyUV.const(K), ZERO), Vec2(ZERO, ZERO)),
    ]
    for x, y in shapes:
        assert_splits(kron(x, y))


def test_round_trip_disguised_products():
    # Swaps and v-free column operations keep a matrix split but hide the
    # obvious factor structure.
    rng = random.Random(33)
    for _ in range(60):
        m = kron(rand_vec2(rng, 2, 0), rand_vec2(rng, 1, 1))
        c = rand_qpolyuv(rng, 1, 0)
        m = col_op(m, c)
        if rng.random() < 0.5:
            m = swap_rows(m)
        if rng.random() < 0.5:
            m = swap_cols(m)
        if rng.random() < 0.5:
            m = conj_transpose(m)
        assert_splits(m)


def test_symmetry_equivariance():
    rng = random.Random(34)
    for _ in range(30):
        m = kron(rand_vec2(rng, 2, 0), rand_vec2(rng, 2, 1))
        assert_splits(m)
        assert_splits(conj_transpose(m))
    for m in (Mat2(ONE_P, ZERO, ZERO, ONE_P), Mat2(ONE_P, V, U, U * V + 1)):
        with pytest.raises(NotDegenerate):
            split(m)
        with pytest.raises(NotDegenerate):
            split(conj_transpose(m))


# endregion

# region normalization


def test_normalize_frozen_example():
    cert = SplitCertificate(Vec2(QPolyUV.const(I), ZERO), Vec2(ONE_P, ONE_P))
    out = split_normalize(cert)
    assert out.x.e1 == ONE_P and out.x.e2.is_zero
    assert out.y.e1 == QPolyUV.const(I) and out.y.e2 == QPolyUV.const(I)
    assert kron(out.x, out.y) == kron(cert.x, cert.y)


def test_normalize_is_idempotent():
    cert = SplitCertificate(Vec2(ONE_P, U), Vec2(ONE_P, V))
    out = split_normalize(cert)
    assert out.x == cert.x and out.y == cert.y


def test_normalize_zero_x_unchanged():
    cert = SplitCertificate(Vec2(ZERO, ZERO), Vec2(ONE_P, ZERO))
    out = split_normalize(cert)
    assert out.x == cert.x and out.y == cert.y


def test_normalize_preserves_product():
    rng = random.Random(35)
    for _ in range(40):
        x = rand_vec2(rng, 2, 0)
        y = rand_vec2(rng, 2, 1)
        cert = split_normalize(SplitCertificate(x, y))
        assert kron(cert.x, cert.y) == kron(x, y)
        first = cert.x.e1 if not cert.x.e1.is_zero else cert.x.e2
        if not first.is_zero:
            assert first.lead_coeff() == Quaternion.one()


def test_split_then_normalize_leading_one():
    rng = random.Random(36)
    for _ in range(30):
        m = kron(rand_vec2(rng, 2, 0), rand_vec2(rng, 1, 1))
        cert = split_normalize(split(m))
        assert kron(cert.x, cert.y) == m
        if not (cert.x.e1.is_zero and cert.x.e2.is_zero):
            first = cert.x.e1 if not cert.x.e1.is_zero else cert.x.e2
            assert first.lead_coeff() == Quaternion.one()


# endregion

# region serialization


def test_certificate_json_round_trip():
    rng = random.Random(37)
    for _ in range(20):
        cert = SplitCertificate(rand_vec2(rng), rand_vec2(rng))
        again = SplitCertificate.from_json(cert.to_json())
        assert again.x == cert.x and again.y == cert.y


def test_repr_of_a_certificate_past_the_digit_limit():
    # The raw certificate of this matrix holds 10**4500, more digits than
    # str() prints: to_json refuses it, and repr writes it in hex.
    small, big = QPolyUV.const(Fraction("1e-2500")), QPolyUV.const(Fraction("1e2000"))
    cert = split(Mat2(small, big, small, big))
    with pytest.raises(InvalidInput):
        cert.to_json()
    text = repr(cert)
    assert text.startswith("SplitCertificate(x=Vec2(e1=QPolyUV({(0,0): Quaternion(")
    assert hex(10**4500) in text


# endregion

"""Polynomials over the quaternions: ring laws, two-sided division, slices."""

import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import quatsurf
from quatsurf import (
    DegreeTooHigh,
    InvalidInput,
    QPolyU,
    QPolyUV,
    Quaternion,
    RPolyUV,
    left_div_rem,
    quat_poly,
    right_div_rem,
    v_slices,
)
from quatsurf.qpoly import _norm, _rqmul
from quatsurf.quat import I, J, K, ONE

from helpers import (
    assert_canonical,
    rand_fraction,
    rand_nonzero_qpolyu,
    rand_qpolyu,
    rand_qpolyuv,
    rand_quat,
    rand_rpolyuv,
    reference_add,
    reference_conj,
    reference_div_rem,
    reference_mul,
    reference_neg,
    reference_qpolyuv_mul,
)

U = QPolyU.var_u()
UU = QPolyUV.var_u()
VV = QPolyUV.var_v()

fractions = st.fractions(min_value=-8, max_value=8, max_denominator=10)
quaternions = st.builds(Quaternion, fractions, fractions, fractions, fractions)
upolys = st.lists(quaternions, max_size=5).map(QPolyU)

# Small denominators mixed with 12-digit ones, so per-coefficient denominators differ.
wide_fractions = st.builds(Fraction, st.integers(-10**12, 10**12), st.integers(1, 10**12))
wide_quaternions = st.builds(Quaternion, *[st.one_of(fractions, wide_fractions)] * 4)
wide_uvpolys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 2)), wide_quaternions, max_size=5
).map(QPolyUV)
wide_upolys = st.lists(wide_quaternions, max_size=4).map(QPolyU)
mixed_fractions = st.one_of(fractions, wide_fractions)


# region univariate basics


def test_degree_and_lead():
    zero_degree = QPolyU.zero().degree
    assert zero_degree == -1 and type(zero_degree) is int
    assert QPolyU.one().degree == 0
    assert U.degree == 1
    p = QPolyU([ONE, I, J])
    assert p.degree == 2 and p.lead == J
    assert p.coeff(1) == I and p.coeff(5) == Quaternion.zero()
    # An exact division leaves the zero remainder, whose degree -1 is below every divisor's.
    b = QPolyU([I, J, ONE])
    q, r = left_div_rem(b * p, b)
    assert q == p and r.is_zero and r.degree == -1 < b.degree


@pytest.mark.parametrize(
    "path", sorted(Path(quatsurf.__file__).parent.glob("*.py")), ids=lambda path: path.name
)
def test_no_float_in_the_package(path):
    # Words in docstrings are string constants, so only code is flagged.
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"line {node.lineno}: literal {node.value!r}")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in ("float", "complex"):
            found.append(f"line {node.lineno}: call to {node.func.id}")
        elif isinstance(node, ast.Attribute) and node.attr in ("inf", "nan"):
            found.append(f"line {node.lineno}: attribute {node.attr}")
    assert not found, found


@pytest.mark.parametrize(
    "path",
    sorted(p for p in Path(quatsurf.__file__).parent.glob("*.py") if p.name != "__init__.py"),
    ids=lambda path: path.name,
)
def test_no_unused_import_in_the_package(path):
    # A name bound by an import must be read somewhere in the module's code;
    # __init__.py is left out, since it imports to re-export.
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(f"line {line}: {name}" for name, line in imported.items() if name not in used)
    assert not unused, unused


def test_no_dead_private_helper_in_the_package():
    # A module-level private function or class must be referenced by some
    # package module: by name, as an attribute, or in an import.  Tests do
    # not count, so a helper that only they call is dead code.
    defined, referenced = {}, set()
    for path in sorted(Path(quatsurf.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            name = getattr(node, "name", "")
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and name.startswith("_") and not name.startswith("__"):
                defined[name] = f"{path.name}:{node.lineno}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    dead = sorted(f"{where}: {name}" for name, where in defined.items() if name not in referenced)
    assert not dead, dead


def test_trailing_zeros_trimmed():
    assert QPolyU([ONE, Quaternion.zero()]) == QPolyU([ONE])
    assert QPolyU([Quaternion.zero()]).is_zero


@pytest.mark.parametrize("terms", [{0: 5}, {0: 5, 1: 3}, {}])
def test_qpolyu_rejects_a_mapping(terms):
    # Iterating a dict yields its keys, which would be read as coefficients:
    # {0: 5} would build the zero polynomial and {0: 5, 1: 3} the variable u.
    with pytest.raises(TypeError):
        QPolyU(terms)


def test_monomial_products():
    assert QPolyU.monomial(I, 1) * QPolyU.monomial(J, 1) == QPolyU.monomial(K, 2)
    assert (UU * I) * (UU * J) == QPolyUV.monomial(K, 2, 0)
    with pytest.raises(InvalidInput):
        QPolyU.monomial(I, -1)


def test_repr_is_sparse():
    # A dense repr would list all 10**6 + 1 coefficients.
    assert repr(QPolyU.monomial(1, 10**6)) == "QPolyU({(1000000,0): Quaternion(1, 0, 0, 0)})"


def test_repr_writes_coefficients_past_the_digit_limit_in_hex():
    big = 10**5000
    assert repr(QPolyU.monomial(big, 1)) == f"QPolyU({{(1,0): Quaternion({hex(big)}, 0, 0, 0)}})"
    assert repr(RPolyUV({(0, 1): Fraction(-1, big)})) == f"RPolyUV({{(0,1): Fraction(-1, {hex(big)})}})"


def test_mul_by_zero():
    rng = random.Random(1)
    for _ in range(10):
        assert (rand_qpolyu(rng) * QPolyU.zero()).is_zero
        assert (rand_qpolyuv(rng) * QPolyUV.zero()).is_zero


def test_central_variable_cancellation():
    # (u + i)(u - i) and (u - i)(u + i) both collapse to u^2 + 1.
    left = (U + I) * (U - I)
    right = (U - I) * (U + I)
    expected = U * U + 1
    assert left == expected
    assert right == expected


@given(upolys, upolys)
def test_degree_additivity(a, b):
    if a.is_zero or b.is_zero:
        assert (a * b).is_zero
    else:
        assert (a * b).degree == a.degree + b.degree


@given(upolys, upolys)
def test_no_zero_divisors(a, b):
    assert (a * b).is_zero == (a.is_zero or b.is_zero)


@given(upolys, upolys, fractions)
def test_eval_is_multiplicative_at_rational_points(a, b, u0):
    assert (a * b).eval(u0) == a.eval(u0) * b.eval(u0)
    assert (a + b).eval(u0) == a.eval(u0) + b.eval(u0)


# endregion

# region division with remainder


def test_left_division_frozen_examples():
    q, r = left_div_rem(QPolyU.zero(), U)
    assert q.is_zero and r.is_zero

    a = QPolyU.monomial(I, 2) + QPolyU.monomial(J, 1)
    b = QPolyU.monomial(K, 1)
    q, r = left_div_rem(a, b)
    assert q == QPolyU.monomial(-J, 1) + QPolyU.const(I)
    assert r.is_zero
    assert b * q + r == a

    a = QPolyU.monomial(I, 1) + QPolyU.one()
    b = QPolyU.monomial(J, 1)
    q, r = left_div_rem(a, b)
    assert q == QPolyU.const(K)
    assert r == QPolyU.one()
    assert b * q + r == a


def test_right_division_frozen_examples():
    q, r = right_div_rem(QPolyU.zero(), QPolyU.one())
    assert q.is_zero and r.is_zero

    a = QPolyU.monomial(I, 1) + QPolyU.one()
    b = QPolyU.monomial(J, 1)
    q, r = right_div_rem(a, b)
    assert q == QPolyU.const(-K)
    assert r == QPolyU.one()
    assert q * b + r == a


def test_divide_by_self():
    rng = random.Random(2)
    for _ in range(20):
        b = rand_nonzero_qpolyu(rng)
        q, r = right_div_rem(b, b)
        assert q == QPolyU.one() and r.is_zero
        q, r = left_div_rem(b, b)
        assert q == QPolyU.one() and r.is_zero


def test_left_and_right_quotients_differ():
    # Noncommutativity witness: the same pair has different quotients per side.
    a = QPolyU.monomial(I, 1) + QPolyU.one()
    b = QPolyU.monomial(J, 1)
    lq, _ = left_div_rem(a, b)
    rq, _ = right_div_rem(a, b)
    assert lq != rq


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        left_div_rem(U, QPolyU.zero())
    with pytest.raises(ZeroDivisionError):
        right_div_rem(U, QPolyU.zero())


def test_division_contract_random():
    rng = random.Random(3)
    for _ in range(300):
        a = rand_qpolyu(rng, max_deg=6)
        b = rand_nonzero_qpolyu(rng, max_deg=4)
        q, r = left_div_rem(a, b)
        assert b * q + r == a
        assert r.degree < b.degree
        q, r = right_div_rem(a, b)
        assert q * b + r == a
        assert r.degree < b.degree


@pytest.mark.parametrize(
    "a, b",
    [
        (UU * UU + VV, QPolyU([0, 1])),
        (UU * VV, QPolyU([0, 1])),
        (QPolyU([1, 0, 1]), UU),
        (QPolyU([1, 0, 1]), 2),
        (2, QPolyU([0, 1])),
    ],
    ids=["v-term-dividend", "uv-dividend", "bivariate-divisor", "int-divisor", "int-dividend"],
)
@pytest.mark.parametrize("divide", [left_div_rem, right_div_rem], ids=["left", "right"])
def test_division_takes_only_u_polynomials(divide, a, b):
    with pytest.raises(TypeError, match="QPolyU"):
        divide(a, b)


def test_division_steps_that_cancel_exactly():
    # u**4 + 1 = (u**2 + i)*(u**2 - i): a monic divisor with a gap, whose
    # steps cancel every term of the remainder.
    b = QPolyU([I, 0, 1])
    for divide in (left_div_rem, right_div_rem):
        q, r = divide(QPolyU([1, 0, 0, 0, 1]), b)
        assert q == QPolyU([-I, 0, 1]) and not r._ints
    # Degree-0 divisors: 1 returns the dividend, i scales it by -i.
    a = QPolyU([J, 0, K])
    assert left_div_rem(a, QPolyU.one()) == (a, QPolyU.zero())
    assert left_div_rem(a, QPolyU([I])) == (QPolyU([-K, 0, J]), QPolyU.zero())
    assert right_div_rem(a, QPolyU([I])) == (QPolyU([K, 0, -J]), QPolyU.zero())


def u_maps(top: int = 4, **kw):
    """Term maps of u-polynomials of degree at most ``top``."""
    return st.dictionaries(st.integers(0, top).map(lambda du: (du, 0)), wide_quaternions.filter(bool), **kw)


@st.composite
def division_cases(draw):
    """A divisor of degree 0 to 3 whose lead is exactly 1 or drawn, with any
    subset of its lower terms, so with gaps; and a dividend that it divides
    exactly on one side, so the steps cancel to an empty remainder, divides
    up to a drawn remainder, or that is drawn freely."""
    db = draw(st.integers(0, 3))
    lower = draw(st.sets(st.integers(0, db - 1))) if db else set()
    b = {(du, 0): draw(wide_quaternions.filter(bool)) for du in lower}
    b[(db, 0)] = ONE if draw(st.booleans()) else draw(wide_quaternions.filter(bool))
    shape = draw(st.sampled_from(["exact", "near", "free"]))
    if shape == "free":
        return draw(u_maps(max_size=3)), b
    q = draw(u_maps(max_size=3))
    a = reference_mul(b, q) if draw(st.booleans()) else reference_mul(q, b)
    if shape == "near" and db:
        a = reference_add(a, draw(u_maps(db - 1)))
    return a, b


@given(division_cases())
def test_division_steps_match_the_dense_reference(case):
    p, q = case
    a, b = _dense_u(p), _dense_u(q)
    for left, divide in ((True, left_div_rem), (False, right_div_rem)):
        quotient, remainder = divide(a, b)
        assert (quotient.terms, remainder.terms) == reference_div_rem(p, q, left)
        assert_canonical(quotient)
        assert_canonical(remainder)


# endregion

# region bivariate


def test_bivariate_degrees():
    p = UU * UU * I + VV * J + 1
    assert p.deg_u == 2 and p.deg_v == 1
    for zero in (QPolyUV.zero(), RPolyUV.zero()):
        for degree in (zero.deg_u, zero.deg_v):
            assert degree == -1 and type(degree) is int
    assert p.coeff(0, 1) == J and p.coeff(2, 0) == I and p.coeff(1, 1) == Quaternion.zero()


def test_bivariate_degree_additivity():
    rng = random.Random(4)
    for _ in range(50):
        a = rand_qpolyuv(rng, 2, 2)
        b = rand_qpolyuv(rng, 2, 2)
        p = a * b
        if a.is_zero or b.is_zero:
            assert p.is_zero
        else:
            assert p.deg_u == a.deg_u + b.deg_u
            assert p.deg_v == a.deg_v + b.deg_v


def test_conj_reverses_products():
    rng = random.Random(5)
    for _ in range(50):
        a, b = rand_qpolyuv(rng), rand_qpolyuv(rng)
        assert (a * b).conj() == b.conj() * a.conj()


def test_real_polynomials_are_central():
    rng = random.Random(6)
    for _ in range(50):
        x = rand_rpolyuv(rng).to_quat()
        a = rand_qpolyuv(rng)
        assert x * a == a * x


def test_eval_bivariate():
    p = UU * VV * K + UU * I + 1
    u0, v0 = Fraction(1, 2), Fraction(-3)
    assert p.eval(u0, v0) == K * (u0 * v0) + I * u0 + ONE
    rng = random.Random(7)
    for _ in range(30):
        a, b = rand_qpolyuv(rng), rand_qpolyuv(rng)
        u0, v0 = rand_fraction(rng), rand_fraction(rng)
        assert (a * b).eval(u0, v0) == a.eval(u0, v0) * b.eval(u0, v0)


def test_negative_exponents_rejected():
    with pytest.raises(InvalidInput):
        QPolyUV({(-1, 0): I})
    with pytest.raises(InvalidInput):
        RPolyUV({(0, -2): 1})


@pytest.mark.parametrize("exponent", [0.5, 1.0, True, -1], ids=["half", "float", "bool", "negative"])
def test_exponents_must_be_nonnegative_integers(exponent):
    # Every route into a term map checks the key in one place; a float or
    # bool exponent would reach to_json as "u": 0.5 or "u": true, which
    # from_json rejects.
    builds = [
        lambda: QPolyUV({(exponent, 0): I}),
        lambda: RPolyUV({(0, exponent): 1}),
        lambda: QPolyUV.monomial(I, exponent, 0),
        lambda: QPolyUV.monomial(I, 0, exponent),
        lambda: QPolyU.monomial(I, exponent),
        lambda: QPolyUV.from_json([{"u": exponent, "v": 0, "c": ["1", "0", "0", "0"]}]),
        lambda: RPolyUV.from_json([{"u": 0, "v": exponent, "c": "1"}]),
    ]
    for build in builds:
        with pytest.raises(InvalidInput, match=r"^polynomial exponents must be nonnegative integers$"):
            build()


@st.composite
def kernel_operands(draw):
    """Two polynomials, and the key of their product whose terms cancel, if one is arranged."""
    if draw(st.booleans()):
        return draw(wide_uvpolys), draw(wide_uvpolys), None
    # (a + b*u) * (c*u + d) with d = -b^-1*a*c: the u terms a*c and b*d cancel.
    a, b, c = (draw(wide_quaternions.filter(bool)) for _ in range(3))
    d = -(b.inverse() * a * c)
    return QPolyUV({(0, 0): a, (1, 0): b}), QPolyUV({(1, 0): c, (0, 0): d}), (1, 0)


@given(kernel_operands(), st.one_of(wide_quaternions, wide_fractions, st.integers(-10**12, 10**12)))
def test_kernel_products_match_the_quaternion_loop(operands, scalar):
    p, q, cancelled = operands
    product = p * q
    assert product == reference_qpolyuv_mul(p, q)
    assert cancelled not in product.terms
    const = QPolyUV.const(scalar)
    assert p * scalar == reference_qpolyuv_mul(p, const)
    assert scalar * p == reference_qpolyuv_mul(const, p)


@given(wide_upolys, wide_upolys, wide_quaternions)
def test_univariate_products_match_the_quaternion_loop(a, b, scalar):
    assert (a * b).to_uv() == reference_qpolyuv_mul(a.to_uv(), b.to_uv())
    assert (a * scalar).to_uv() == reference_qpolyuv_mul(a.to_uv(), QPolyUV.const(scalar))
    assert (scalar * a).to_uv() == reference_qpolyuv_mul(QPolyUV.const(scalar), a.to_uv())


# endregion

# region slices and conversions


def test_v_slices_examples():
    p1, p0 = v_slices(UU * VV * I + J)
    assert p1 == QPolyU.monomial(I, 1)
    assert p0 == QPolyU.const(J)

    p1, p0 = v_slices(QPolyUV.const(5))
    assert p1.is_zero and p0 == QPolyU.const(Quaternion(5))

    with pytest.raises(DegreeTooHigh):
        v_slices(VV * VV)


def test_v_slices_reconstruct():
    rng = random.Random(8)
    for _ in range(50):
        p = rand_qpolyuv(rng, 3, 1)
        p1, p0 = v_slices(p)
        assert p1.to_uv() * VV + p0.to_uv() == p


def test_u_poly_round_trip():
    rng = random.Random(9)
    for _ in range(30):
        p = rand_qpolyu(rng)
        assert p.to_uv().to_u_poly() == p
    with pytest.raises(DegreeTooHigh):
        (VV * I).to_u_poly()
    with pytest.raises(DegreeTooHigh):
        QPolyU.var_v()


def test_components_and_quat_poly_round_trip():
    rng = random.Random(10)
    for _ in range(30):
        p = rand_qpolyuv(rng, 2, 2)
        w, x, y, z = p.components()
        assert all(c.deg_u <= p.deg_u or c.is_zero for c in (w, x, y, z))
        assert quat_poly(w, x, y, z) == p


def test_rpolyuv_arithmetic():
    u, v = RPolyUV.var_u(), RPolyUV.var_v()
    p = (u + v) * (u - v)
    assert p == u * u - v * v
    assert p.eval(3, 2) == 5
    assert (p / 2).coeff(2, 0) == Fraction(1, 2)
    assert p.to_quat().components()[0] == p



@pytest.mark.parametrize(
    "build",
    [lambda: RPolyUV({(0, 0): 0.5}), lambda: RPolyUV.const(0.1), lambda: RPolyUV.monomial(0.5, 1, 0)],
    ids=["init", "const", "monomial"],
)
def test_rpolyuv_rejects_floats(build):
    # A float is not exact: 0.1 would be stored as 3602879701896397/36028797018963968.
    with pytest.raises(TypeError):
        build()


# endregion

# region serialization


def test_qpolyuv_json_round_trip():
    rng = random.Random(11)
    for _ in range(30):
        p = rand_qpolyuv(rng, 3, 2)
        assert QPolyUV.from_json(p.to_json()) == p


def test_rpolyuv_json_round_trip():
    rng = random.Random(12)
    for _ in range(30):
        p = rand_rpolyuv(rng, 3, 2)
        assert RPolyUV.from_json(p.to_json()) == p


def test_qpolyu_json_is_its_v_free_bivariate_json():
    rng = random.Random(13)
    for _ in range(30):
        p = rand_qpolyu(rng)
        assert p.to_json() == p.to_uv().to_json()
        assert QPolyUV.from_json(p.to_json()).to_u_poly() == p


def test_json_rejects_malformed():
    with pytest.raises(InvalidInput):
        QPolyUV.from_json({"not": "a list"})
    with pytest.raises(InvalidInput):
        QPolyUV.from_json([{"u": 0}])
    with pytest.raises(InvalidInput):
        RPolyUV.from_json([{"u": 0, "v": 0, "c": "1/0"}])


# endregion

# region integer core against the Fraction oracles


def _dense_u(terms: dict) -> QPolyU:
    return QPolyU([terms.get((du, 0), 0) for du in range(max(terms, default=(-1, 0))[0] + 1)])


# (class, coefficient strategy, largest v-degree, constructor from a term map)
CORES = {
    "QPolyUV": (QPolyUV, wide_quaternions, 2, QPolyUV),
    "QPolyU": (QPolyU, wide_quaternions, 0, _dense_u),
    "RPolyUV": (RPolyUV, mixed_fractions, 2, RPolyUV),
}


@st.composite
def operand_pairs(draw, coeffs, max_dv: int):
    """Two term maps; the second negates a drawn subset of the first's terms, so sums cancel there."""
    keys = st.tuples(st.integers(0, 3), st.integers(0, max_dv))
    p = draw(st.dictionaries(keys, coeffs.filter(bool), max_size=5))
    q = draw(st.dictionaries(keys, coeffs.filter(bool), max_size=5))
    if p:
        for key in draw(st.lists(st.sampled_from(sorted(p)), unique=True)):
            q[key] = -p[key]
    return p, q


@pytest.mark.parametrize("core", CORES)
@given(data=st.data())
def test_integer_core_matches_the_fraction_oracles(core, data):
    cls, coeffs, max_dv, build = CORES[core]
    p, q = data.draw(operand_pairs(coeffs, max_dv))
    a, b = build(p), build(q)
    assert a.terms == p and b.terms == q
    assert (a + b).terms == reference_add(p, q)
    assert (a - b).terms == reference_add(p, reference_neg(q))
    assert (-a).terms == reference_neg(p)
    assert (a * b).terms == reference_mul(p, q)
    if cls is not RPolyUV:
        assert a.conj().terms == reference_conj(p)
    if cls is QPolyU and b:
        for left, divide in ((True, left_div_rem), (False, right_div_rem)):
            quotient, remainder = divide(a, b)
            assert (quotient.terms, remainder.terms) == reference_div_rem(p, q, left)


# Heights up to about 10**30, or about 10**300 (numerators of about 1000 bits),
# mixed with small ones so denominators differ per coefficient.
huge_fractions = st.builds(Fraction, st.integers(-10**30, 10**30), st.integers(1, 10**30))
long_nums = st.integers(10**299, 10**300) | st.integers(-10**300, -10**299)
long_fractions = st.builds(Fraction, long_nums, st.integers(1, 10**30))
huge_rationals = st.one_of(fractions, huge_fractions, long_fractions)
huge_quaternions = st.builds(Quaternion, *[huge_rationals] * 4)
HUGE_COEFFS = {"QPolyUV": huge_quaternions, "QPolyU": huge_quaternions, "RPolyUV": huge_rationals}


@pytest.mark.parametrize("core", CORES)
@given(data=st.data())
def test_fused_multiply_add_matches_the_unfused_route(core, data):
    cls, _, max_dv, build = CORES[core]
    keys = st.tuples(st.integers(0, 2), st.integers(0, max_dv))
    term_maps = st.dictionaries(keys, HUGE_COEFFS[core].filter(bool), max_size=4)
    b, c = build(data.draw(term_maps)), build(data.draw(term_maps))
    product = (b * c).terms
    # a is free, equal to b*c (so a - b*c cancels to zero), or shares some of
    # its terms with b*c (so those keys cancel and the others survive).
    a_terms = data.draw(term_maps)
    shape = data.draw(st.sampled_from(["free", "whole", "part"]))
    if shape == "whole":
        a_terms = product
    elif shape == "part" and product:
        for key in data.draw(st.lists(st.sampled_from(sorted(product)), unique=True)):
            a_terms[key] = product[key]
    a = build(a_terms)
    for sign, unfused in ((-1, a - b * c), (1, a + b * c)):
        fused = a._add_mul(b, c, sign)
        assert type(fused) is cls
        assert fused._ints == unfused._ints
        assert fused == unfused and hash(fused) == hash(unfused)
        assert_canonical(fused)
    if shape == "whole":
        assert not a._add_mul(b, c, -1)._ints
        assert not (-a)._add_mul(b, c, 1)._ints


@pytest.mark.parametrize("core", CORES)
@given(data=st.data())
def test_every_route_to_a_value_gives_one_canonical_form(core, data):
    cls, coeffs, max_dv, build = CORES[core]
    p, q = data.draw(operand_pairs(coeffs, max_dv))
    a, b = build(p), build(q)
    routes = [a, (a * 2) * Fraction(1, 2), a + b - b, b + a - b]
    if cls is QPolyU and b:
        quotient, remainder = left_div_rem(a, b)
        routes.append(b * quotient + remainder)
        quotient, remainder = right_div_rem(a, b)
        routes.append(quotient * b + remainder)
    for route in routes:
        assert route == a and hash(route) == hash(a)
        assert_canonical(route)
    difference = a - a
    assert difference == cls.zero() and hash(difference) == hash(cls.zero())
    assert not difference.terms and not difference._ints


# endregion

# region real kernels

huge_keys = st.tuples(st.integers(0, 2), st.integers(0, 2))
huge_qpolys = st.dictionaries(huge_keys, huge_quaternions.filter(bool), max_size=4).map(QPolyUV)
huge_rpolys = st.dictionaries(huge_keys, huge_rationals.filter(bool), max_size=4).map(RPolyUV)


@given(st.lists(huge_qpolys, min_size=1, max_size=3), st.lists(huge_qpolys, max_size=2))
def test_norm_matches_the_quaternion_product(plus, minus):
    expected = RPolyUV.zero()
    for a in plus:
        expected = expected + (a * a.conj()).components()[0]
    for a in minus:
        expected = expected - (a * a.conj()).components()[0]
    result = RPolyUV._raw(_norm([a._ints for a in plus], [a._ints for a in minus]))
    assert result == expected
    assert_canonical(result)
    # Equal norms cancel exactly, also between different maps: N(a*i) = N(a).
    a = plus[0]
    assert not _norm([a._ints], [(a * I)._ints])


@given(huge_rpolys, huge_qpolys, st.booleans())
def test_real_times_quaternion_matches_the_quaternion_product(r, q, cancel):
    if cancel:
        # (1 - u)*(1 + u + u**2) = 1 - u**3: the accumulated middle terms cancel.
        r = r * (1 - RPolyUV.var_u())
        q = q * (1 + UU + UU * UU)
    result = QPolyUV._raw(_rqmul(r._ints, q._ints))
    assert result == r.to_quat() * q
    assert_canonical(result)


@given(huge_qpolys, huge_quaternions.filter(bool))
def test_scaling_by_one_quaternion_matches_the_product(p, c):
    for poly in (p, QPolyU([p.coeff(du, 0) for du in range(p.deg_u + 1)])):
        for result, product in ((poly._scaled(c), poly * c), (poly._scaled(c, left=True), c * poly)):
            assert type(result) is type(poly)
            assert result == product
            assert_canonical(result)


@given(huge_rpolys)
def test_real_polynomial_survives_the_quaternion_embedding(p):
    embedded = p.to_quat()
    assert embedded._ints is p._ints  # the same map, not a copy
    w, x, y, z = embedded.components()
    assert w == p and w.terms == p.terms and not (x or y or z)
    assert w.to_json() == p.to_json() and RPolyUV.from_json(w.to_json()) == p


# endregion

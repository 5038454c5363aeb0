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

UU = QPolyUV.var_u()
VV = QPolyUV.var_v()


def upoly(*coeffs) -> QPolyUV:
    """The v-free polynomial with these coefficients in u, low degree first."""
    return QPolyUV({(du, 0): c for du, c in enumerate(coeffs)})


fractions = st.fractions(min_value=-8, max_value=8, max_denominator=10)
quaternions = st.builds(Quaternion, fractions, fractions, fractions, fractions)
upolys = st.lists(quaternions, max_size=5).map(lambda coeffs: upoly(*coeffs))

# Small denominators mixed with 12-digit ones, so per-coefficient denominators differ.
wide_fractions = st.builds(Fraction, st.integers(-10**12, 10**12), st.integers(1, 10**12))
wide_quaternions = st.builds(Quaternion, *[st.one_of(fractions, wide_fractions)] * 4)
wide_uvpolys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 2)), wide_quaternions, max_size=5
).map(QPolyUV)
wide_upolys = st.lists(wide_quaternions, max_size=4).map(lambda coeffs: upoly(*coeffs))
mixed_fractions = st.one_of(fractions, wide_fractions)


# region univariate basics


def test_degree_and_lead():
    zero_degree = QPolyUV.zero().deg_u
    assert zero_degree == -1 and type(zero_degree) is int
    assert QPolyUV.one().deg_u == 0
    assert UU.deg_u == 1
    p = upoly(ONE, I, J)
    assert p.deg_u == 2 and p.deg_v == 0 and p.lead_coeff() == J
    assert p.coeff(1, 0) == I and p.coeff(5, 0) == Quaternion.zero()
    # An exact division leaves the zero remainder, whose degree -1 is below every divisor's.
    b = upoly(I, J, ONE)
    q, r = left_div_rem(b * p, b)
    assert q == p and r.is_zero and r.deg_u == -1 < b.deg_u


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
    # A private function or class at module level, and a private method
    # (not a dunder) defined in a class body, must be referenced by some
    # package module: by name, as an attribute, or in an import.  Tests do
    # not count, so a helper that only they call is dead code.
    defined, referenced = {}, set()
    for path in sorted(Path(quatsurf.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        methods = [node for cls in tree.body if isinstance(cls, ast.ClassDef) for node in cls.body]
        for node in tree.body + methods:
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
    assert upoly(ONE, Quaternion.zero()) == upoly(ONE)
    assert upoly(Quaternion.zero()).is_zero


@pytest.mark.parametrize("terms", [[5], [ONE, I], [0, 1]], ids=["int", "quaternions", "ints"])
def test_a_coefficient_list_is_not_a_term_map(terms):
    # A polynomial is built from exponent pairs and their coefficients, so a
    # dense list of coefficients, low degree first, is rejected, not misread.
    with pytest.raises(TypeError):
        QPolyUV(terms)


def test_monomial_products():
    assert QPolyUV.monomial(I, 1, 0) * QPolyUV.monomial(J, 0, 1) == QPolyUV.monomial(K, 1, 1)
    assert (UU * I) * (UU * J) == QPolyUV.monomial(K, 2, 0)
    with pytest.raises(InvalidInput):
        QPolyUV.monomial(I, -1, 0)


def test_repr_is_sparse():
    # A dense repr would list all 10**6 + 1 coefficients.
    assert repr(QPolyUV.monomial(1, 10**6, 0)) == "QPolyUV({(1000000,0): Quaternion(1, 0, 0, 0)})"


def test_repr_writes_coefficients_past_the_digit_limit_in_hex():
    big = 10**5000
    assert repr(QPolyUV.monomial(big, 1, 0)) == f"QPolyUV({{(1,0): Quaternion({hex(big)}, 0, 0, 0)}})"
    assert repr(RPolyUV({(0, 1): Fraction(-1, big)})) == f"RPolyUV({{(0,1): Fraction(-1, {hex(big)})}})"


def test_mul_by_zero():
    rng = random.Random(1)
    for _ in range(10):
        assert (rand_qpolyu(rng) * QPolyUV.zero()).is_zero
        assert (rand_qpolyuv(rng) * QPolyUV.zero()).is_zero


def test_central_variable_cancellation():
    # (u + i)(u - i) and (u - i)(u + i) both collapse to u^2 + 1.
    left = (UU + I) * (UU - I)
    right = (UU - I) * (UU + I)
    expected = UU * UU + 1
    assert left == expected
    assert right == expected


@given(upolys, upolys)
def test_degree_additivity(a, b):
    if a.is_zero or b.is_zero:
        assert (a * b).is_zero
    else:
        assert (a * b).deg_u == a.deg_u + b.deg_u


@given(upolys, upolys)
def test_no_zero_divisors(a, b):
    assert (a * b).is_zero == (a.is_zero or b.is_zero)


@given(upolys, upolys, fractions)
def test_eval_is_multiplicative_at_rational_points(a, b, u0):
    assert (a * b).eval(u0, 0) == a.eval(u0, 0) * b.eval(u0, 0)
    assert (a + b).eval(u0, 0) == a.eval(u0, 0) + b.eval(u0, 0)


# endregion

# region division with remainder


def test_left_division_frozen_examples():
    q, r = left_div_rem(QPolyUV.zero(), UU)
    assert q.is_zero and r.is_zero

    a = QPolyUV.monomial(I, 2, 0) + QPolyUV.monomial(J, 1, 0)
    b = QPolyUV.monomial(K, 1, 0)
    q, r = left_div_rem(a, b)
    assert q == QPolyUV.monomial(-J, 1, 0) + QPolyUV.const(I)
    assert r.is_zero
    assert b * q + r == a

    a = QPolyUV.monomial(I, 1, 0) + QPolyUV.one()
    b = QPolyUV.monomial(J, 1, 0)
    q, r = left_div_rem(a, b)
    assert q == QPolyUV.const(K)
    assert r == QPolyUV.one()
    assert b * q + r == a


def test_right_division_frozen_examples():
    q, r = right_div_rem(QPolyUV.zero(), QPolyUV.one())
    assert q.is_zero and r.is_zero

    a = QPolyUV.monomial(I, 1, 0) + QPolyUV.one()
    b = QPolyUV.monomial(J, 1, 0)
    q, r = right_div_rem(a, b)
    assert q == QPolyUV.const(-K)
    assert r == QPolyUV.one()
    assert q * b + r == a


def test_divide_by_self():
    rng = random.Random(2)
    for _ in range(20):
        b = rand_nonzero_qpolyu(rng)
        q, r = right_div_rem(b, b)
        assert q == QPolyUV.one() and r.is_zero
        q, r = left_div_rem(b, b)
        assert q == QPolyUV.one() and r.is_zero


def test_left_and_right_quotients_differ():
    # Noncommutativity witness: the same pair has different quotients per side.
    a = QPolyUV.monomial(I, 1, 0) + QPolyUV.one()
    b = QPolyUV.monomial(J, 1, 0)
    lq, _ = left_div_rem(a, b)
    rq, _ = right_div_rem(a, b)
    assert lq != rq


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        left_div_rem(UU, QPolyUV.zero())
    with pytest.raises(ZeroDivisionError):
        right_div_rem(UU, QPolyUV.zero())


def test_division_contract_random():
    rng = random.Random(3)
    for _ in range(300):
        a = rand_qpolyu(rng, max_deg=6)
        b = rand_nonzero_qpolyu(rng, max_deg=4)
        q, r = left_div_rem(a, b)
        assert b * q + r == a
        assert r.deg_u < b.deg_u
        q, r = right_div_rem(a, b)
        assert q * b + r == a
        assert r.deg_u < b.deg_u


@pytest.mark.parametrize(
    "a, b, error",
    [
        (UU * UU + VV, UU, DegreeTooHigh),
        (UU * VV, UU, DegreeTooHigh),
        (UU * UU + 1, UU * UU + VV, DegreeTooHigh),
        (UU * UU + 1, UU * VV, DegreeTooHigh),
        (UU * UU + 1, 2, TypeError),
        (2, UU, TypeError),
        (RPolyUV.var_u(), UU, TypeError),
        (UU * UU + 1, RPolyUV.var_u(), TypeError),
    ],
    ids=[
        "v-term-dividend",
        "uv-dividend",
        "bivariate-divisor",
        "uv-divisor",
        "int-divisor",
        "int-dividend",
        "real-dividend",
        "real-divisor",
    ],
)
@pytest.mark.parametrize("divide", [left_div_rem, right_div_rem], ids=["left", "right"])
def test_division_takes_only_u_polynomials(divide, a, b, error):
    # Division runs on polynomials in u alone: a v term is refused before any
    # step, and an operand of another type names the one type taken.
    with pytest.raises(error, match="QPolyUV" if error is TypeError else "in u alone"):
        divide(a, b)


def test_division_steps_that_cancel_exactly():
    # u**4 + 1 = (u**2 + i)*(u**2 - i): a monic divisor with a gap, whose
    # steps cancel every term of the remainder.
    b = upoly(I, 0, 1)
    for divide in (left_div_rem, right_div_rem):
        q, r = divide(upoly(1, 0, 0, 0, 1), b)
        assert q == upoly(-I, 0, 1) and not r._ints
    # Degree-0 divisors: 1 returns the dividend, i scales it by -i.
    a = upoly(J, 0, K)
    assert left_div_rem(a, QPolyUV.one()) == (a, QPolyUV.zero())
    assert left_div_rem(a, upoly(I)) == (upoly(-K, 0, J), QPolyUV.zero())
    assert right_div_rem(a, upoly(I)) == (upoly(K, 0, -J), QPolyUV.zero())


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
    a, b = QPolyUV(p), QPolyUV(q)
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
    assert a * b == reference_qpolyuv_mul(a, b)
    assert a * scalar == reference_qpolyuv_mul(a, QPolyUV.const(scalar))
    assert scalar * a == reference_qpolyuv_mul(QPolyUV.const(scalar), a)


# endregion

# region slices and conversions


def test_v_slices_examples():
    p1, p0 = v_slices(UU * VV * I + J)
    assert p1 == QPolyUV.monomial(I, 1, 0)
    assert p0 == QPolyUV.const(J)

    p1, p0 = v_slices(QPolyUV.const(5))
    assert p1.is_zero and p0 == QPolyUV.const(Quaternion(5))

    with pytest.raises(DegreeTooHigh):
        v_slices(VV * VV)


def test_v_slices_reconstruct():
    rng = random.Random(8)
    for _ in range(50):
        p = rand_qpolyuv(rng, 3, 1)
        p1, p0 = v_slices(p)
        assert p1.deg_v <= 0 and p0.deg_v <= 0
        assert p1 * VV + p0 == p


def test_u_poly_round_trip():
    # A polynomial in u is its own v-free slice, and divides as it stands.
    rng = random.Random(9)
    for _ in range(30):
        p = rand_qpolyu(rng)
        p1, p0 = v_slices(p)
        assert p1.is_zero and p0 == p
        assert left_div_rem(p, QPolyUV.one()) == (p, QPolyUV.zero())


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
    # A polynomial in u writes "v": 0 in every monomial and reads back as itself.
    rng = random.Random(13)
    for _ in range(30):
        p = rand_qpolyu(rng)
        doc = p.to_json()
        assert all(monomial["v"] == 0 for monomial in doc)
        assert QPolyUV.from_json(doc) == p


def test_json_rejects_malformed():
    with pytest.raises(InvalidInput):
        QPolyUV.from_json({"not": "a list"})
    with pytest.raises(InvalidInput):
        QPolyUV.from_json([{"u": 0}])
    with pytest.raises(InvalidInput):
        RPolyUV.from_json([{"u": 0, "v": 0, "c": "1/0"}])


# endregion

# region integer core against the Fraction oracles


# (class, coefficient strategy, largest v-degree); "QPolyU" is the v-free
# case, the polynomials in u that the divisions run on.
CORES = {
    "QPolyUV": (QPolyUV, wide_quaternions, 2),
    "QPolyU": (QPolyUV, wide_quaternions, 0),
    "RPolyUV": (RPolyUV, mixed_fractions, 2),
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
    cls, coeffs, max_dv = CORES[core]
    p, q = data.draw(operand_pairs(coeffs, max_dv))
    a, b = cls(p), cls(q)
    assert a.terms == p and b.terms == q
    assert (a + b).terms == reference_add(p, q)
    assert (a - b).terms == reference_add(p, reference_neg(q))
    assert (-a).terms == reference_neg(p)
    assert (a * b).terms == reference_mul(p, q)
    if cls is not RPolyUV:
        assert a.conj().terms == reference_conj(p)
    if core == "QPolyU" and b:
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


@pytest.mark.parametrize("core", CORES)
@given(data=st.data())
def test_every_route_to_a_value_gives_one_canonical_form(core, data):
    cls, coeffs, max_dv = CORES[core]
    p, q = data.draw(operand_pairs(coeffs, max_dv))
    a, b = cls(p), cls(q)
    routes = [a, (a * 2) * Fraction(1, 2), a + b - b, b + a - b]
    if core == "QPolyU" and b:
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


@given(huge_qpolys, huge_quaternions)
def test_scaling_by_one_quaternion_matches_the_product(p, c):
    # The general product by the constant polynomial, not the scalar operators, which scale through _scaled.
    const = QPolyUV.const(c)
    for result, product in ((p._scaled(c._t), p * const), (p._scaled(c._t, left=True), const * p)):
        assert type(result) is QPolyUV
        assert result._ints == product._ints
        assert_canonical(result)


@pytest.mark.parametrize("cls", [QPolyUV, RPolyUV])
def test_zero_and_bool_scalars_on_either_side(cls):
    p = cls({(0, 0): Fraction(3, 5), (2, 1): -7, (1, 0): Fraction(-1, 4)})
    zeros = [0, Fraction(0)] + ([Quaternion()] if cls is QPolyUV else [])
    for zero in zeros:
        for product in (p * zero, zero * p):
            assert type(product) is cls and product._ints == {}
    # A bool is no scalar: taken as 1 or 0 it would copy or clear p.
    for flag in (True, False):
        for call in (lambda: p * flag, lambda: flag * p):
            with pytest.raises(TypeError, match="got bool$"):
                call()


def test_real_division_by_a_rational_scales_by_its_inverse():
    r = RPolyUV({(0, 0): Fraction(1, 2), (1, 0): 3, (1, 1): Fraction(-5, 9)})
    quotient = r / Fraction(-3, 7)
    assert quotient == r * Fraction(-7, 3)
    assert type(quotient) is RPolyUV
    assert_canonical(quotient)
    assert (RPolyUV.zero() / 5)._ints == {}
    with pytest.raises(ZeroDivisionError):
        r / 0
    with pytest.raises(TypeError, match="got bool$"):
        r / True


@given(huge_rpolys)
def test_real_polynomial_survives_the_quaternion_embedding(p):
    embedded = p.to_quat()
    assert embedded._ints is p._ints  # the same map, not a copy
    w, x, y, z = embedded.components()
    assert w == p and w.terms == p.terms and not (x or y or z)
    assert w.to_json() == p.to_json() and RPolyUV.from_json(w.to_json()) == p


# endregion

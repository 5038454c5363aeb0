"""The value classes: equality by exact class and fields, hash, repr, immutability, copy and pickle."""

import copy
import pickle
from fractions import Fraction

import pytest

from quatsurf import (
    Circle3,
    CircleS3,
    PyTuple,
    QPolyUV,
    Quadric4,
    Quaternion,
    RPolyUV,
    SplitCertificate,
    SurfaceSpec,
    Vec2,
    kron,
)

U, V, ONE, I = QPolyUV.var_u(), QPolyUV.var_v(), QPolyUV.one(), QPolyUV.const(Quaternion(0, 1, 0, 0))
HALF = Fraction(1, 2)


def _quadric(h):
    return Quadric4(tuple(tuple(1 if i == j else 0 for j in range(5)) for i in range(4)) + ((0, 0, 0, 0, h),))


V_REPR = "Vec2(e1=QPolyUV({(1,0): Quaternion(1, 0, 0, 0)}), e2=QPolyUV({(0,0): Quaternion(0, 1, 0, 0)}))"
C3_REPR = (
    "Circle3(center=(Fraction(0, 1), Fraction(0, 1), Fraction(1, 1)), "
    "e1=(Fraction(1, 2), Fraction(0, 1), Fraction(0, 1)), e2=(Fraction(0, 1), Fraction(1, 2), Fraction(0, 1)))"
)
Q_REPR = (
    "Quadric4(q=((Fraction(1, 1), Fraction(0, 1), Fraction(0, 1), Fraction(0, 1), Fraction(0, 1)), "
    "(Fraction(0, 1), Fraction(1, 1), Fraction(0, 1), Fraction(0, 1), Fraction(0, 1)), "
    "(Fraction(0, 1), Fraction(0, 1), Fraction(1, 1), Fraction(0, 1), Fraction(0, 1)), "
    "(Fraction(0, 1), Fraction(0, 1), Fraction(0, 1), Fraction(1, 1), Fraction(0, 1)), "
    "(Fraction(0, 1), Fraction(0, 1), Fraction(0, 1), Fraction(0, 1), Fraction(3, 1))))"
)

# One fixed instance per class, as (build it, build an unequal one of the same class, its repr).
CASES = {
    "Vec2": (lambda: Vec2(U, I), lambda: Vec2(I, U), V_REPR),
    "Mat2": (
        lambda: kron(Vec2(U, I), Vec2(ONE, V)),
        lambda: kron(Vec2(ONE, V), Vec2(U, I)),
        "Mat2(m11=QPolyUV({(1,0): Quaternion(1, 0, 0, 0)}), m12=QPolyUV({(1,1): Quaternion(1, 0, 0, 0)}), "
        "m21=QPolyUV({(0,0): Quaternion(0, 1, 0, 0)}), m22=QPolyUV({(0,1): Quaternion(0, 1, 0, 0)}))",
    ),
    "PyTuple": (
        lambda: PyTuple(*(RPolyUV.const(c) for c in (1, 2, 3, 4, 0, HALF))),
        lambda: PyTuple(*(RPolyUV.const(c) for c in (1, 2, 3, 4, HALF, 0))),
        "PyTuple(x1=RPolyUV({(0,0): Fraction(1, 1)}), x2=RPolyUV({(0,0): Fraction(2, 1)}), "
        "x3=RPolyUV({(0,0): Fraction(3, 1)}), x4=RPolyUV({(0,0): Fraction(4, 1)}), x5=RPolyUV({}), "
        "x6=RPolyUV({(0,0): Fraction(1, 2)}))",
    ),
    "SplitCertificate": (
        lambda: SplitCertificate(Vec2(U, I), Vec2(ONE, V)),
        lambda: SplitCertificate(Vec2(ONE, V), Vec2(U, I)),
        f"SplitCertificate(x={V_REPR}, y=Vec2(e1=QPolyUV({{(0,0): Quaternion(1, 0, 0, 0)}}), "
        "e2=QPolyUV({(0,1): Quaternion(1, 0, 0, 0)})))",
    ),
    "Circle3": (
        lambda: Circle3((0, 0, 1), (HALF, 0, 0), (0, HALF, 0)),
        lambda: Circle3((0, 0, 1), (0, HALF, 0), (HALF, 0, 0)),
        C3_REPR,
    ),
    "CircleS3": (
        lambda: CircleS3((0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0)),
        lambda: CircleS3((0, 0, 0, 0), (0, 1, 0, 0), (1, 0, 0, 0)),
        "CircleS3(center=(Fraction(0, 1), Fraction(0, 1), Fraction(0, 1), Fraction(0, 1)), "
        "e1=(Fraction(1, 1), Fraction(0, 1), Fraction(0, 1), Fraction(0, 1)), "
        "e2=(Fraction(0, 1), Fraction(1, 1), Fraction(0, 1), Fraction(0, 1)))",
    ),
    "Quadric4": (lambda: _quadric(3), lambda: _quadric(2), Q_REPR),
    "SurfaceSpec": (
        lambda: SurfaceSpec.family_d(_quadric(3)),
        lambda: SurfaceSpec.family_d(_quadric(2)),
        f"SurfaceSpec(family='d', alpha=None, beta=None, quadric={Q_REPR})",
    ),
}

MATCH_ARGS = {
    "Vec2": ("e1", "e2"),
    "Mat2": ("m11", "m12", "m21", "m22"),
    "PyTuple": ("x1", "x2", "x3", "x4", "x5", "x6"),
    "SplitCertificate": ("x", "y"),
    "Circle3": ("center", "e1", "e2"),
    "CircleS3": ("center", "e1", "e2"),
    "Quadric4": ("q",),
    "SurfaceSpec": ("family", "alpha", "beta", "quadric"),
}


def _fields(value) -> tuple:
    return tuple(getattr(value, name) for name in type(value).__match_args__)


@pytest.mark.parametrize("name", CASES)
def test_equality_is_by_exact_class_and_fields(name):
    make, make_other, _ = CASES[name]
    value, again, other = make(), make(), make_other()
    assert type(value).__name__ == name
    assert value is not again and value == again and not value != again
    assert value != other and not value == other
    # A tuple of the same fields, or a subclass with the same fields, is a different value.
    assert value != _fields(value)
    sub = type(f"Sub{name}", (type(value),), {"__slots__": ()})
    assert value != sub(*_fields(value)) and sub(*_fields(value)) != value


def test_the_two_circle_classes_stay_apart():
    flat = Circle3((0, 0, 0), (1, 0, 0), (0, 1, 0))
    round_ = CircleS3((0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0))
    assert flat != round_ and round_ != flat


@pytest.mark.parametrize("name", CASES)
def test_equal_values_hash_equal(name):
    make, _, _ = CASES[name]
    assert hash(make()) == hash(make())
    assert len({make(), make(), CASES[name][1]()}) == 2


@pytest.mark.parametrize("name", CASES)
def test_repr_text(name):
    make, _, expected = CASES[name]
    assert repr(make()) == expected


def test_repr_writes_fraction_fields_past_the_digit_limit_in_hex():
    # str() refuses an int past the interpreter's digit limit; repr of a
    # value whose tuples hold such a Fraction writes its parts in hex.
    big = 10**5000
    circle = Circle3((Fraction(big), 0, 0), (1, 0, 0), (0, 1, 0))
    zeros = ", ".join(["Fraction(0, 1)"] * 2)
    assert repr(circle) == (
        f"Circle3(center=(Fraction({hex(big)}, 1), {zeros}), "
        f"e1=(Fraction(1, 1), {zeros}), e2=(Fraction(0, 1), Fraction(1, 1), Fraction(0, 1)))"
    )
    quadric = _quadric(Fraction(1, big))
    assert repr(quadric) == Q_REPR.replace("Fraction(3, 1)", f"Fraction(1, {hex(big)})")
    assert repr(SurfaceSpec.family_d(quadric)).endswith(f"Fraction(1, {hex(big)})))))")


@pytest.mark.parametrize("name", CASES)
def test_match_args(name):
    value = CASES[name][0]()
    cls = type(value)
    assert cls.__match_args__ == MATCH_ARGS[name]
    match value:
        case cls(first):
            assert first is getattr(value, MATCH_ARGS[name][0])
        case _:
            pytest.fail(f"{name} did not match its class pattern")


@pytest.mark.parametrize("name", CASES)
def test_fields_refuse_assignment_and_deletion(name):
    value = CASES[name][0]()
    before = _fields(value)
    for field in type(value).__match_args__:
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
    assert _fields(value) == before


CLONES = pytest.mark.parametrize(
    "clone", [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))], ids=["copy", "deepcopy", "pickle"]
)


@pytest.mark.parametrize("name", CASES)
@CLONES
def test_copy_and_pickle_round_trip(name, clone):
    value = CASES[name][0]()
    again = clone(value)
    assert type(again) is type(value)
    assert again == value and hash(again) == hash(value) and repr(again) == repr(value)


@CLONES
def test_a_cloned_circle_still_samples(clone):
    circle = CASES["Circle3"][0]()
    assert clone(circle).point(Fraction(1, 3)) == circle.point(Fraction(1, 3))

"""Circles, stereographic projection, cyclides, grids, exports."""

import contextlib
import io
import json
import os
import random
import sys
import tempfile
from fractions import Fraction

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from quatsurf import (
    Circle3,
    CircleS3,
    DegenerateFamily,
    InvalidInput,
    PolePoint,
    QPolyUV,
    Quadric4,
    Quaternion,
    RPolyUV,
    SurfaceSpec,
    TooFewPoints,
    UnsupportedFamily,
    coordinate_curve,
    cyclide_implicit,
    eval_c,
    eval_e,
    export_csv,
    export_obj,
    grid_params,
    is_circle_or_line,
    quartic_value,
    render_decimal,
    sample_grid,
    stereo,
    stereo_inv,
)
from quatsurf import surfaces
from quatsurf.cli import main

from helpers import (
    _reference_eval_c,
    _reference_eval_e,
    rand_circle3,
    rand_circle_s3,
    rand_fraction,
    reference_circle_or_line,
    reference_circle_point,
    reference_cyclide_implicit,
    reference_plane_circumcenter,
    reference_coordinate_curve,
    reference_export_csv,
    reference_export_obj,
    reference_grid_json,
    reference_render_decimal,
    reference_sample_grid,
    rotate3,
    rotate4,
)

XY_CIRCLE = Circle3((0, 0, 0), (1, 0, 0), (0, 1, 0))
XZ_CIRCLE = Circle3((0, 0, 0), (1, 0, 0), (0, 0, 1))
GREAT_CIRCLE = CircleS3((0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0))

# The quadric carving the R=2, r=1 ring torus out of the unit sphere, in
# coordinates (x0, x1, x2, x3, h) with x0 the pole axis: x0^2 - 4*x0*h +
# 4*h^2 - 4*x1^2 - 4*x2^2.
TORUS_QUADRIC = Quadric4(
    (
        (1, 0, 0, 0, -2),
        (0, -4, 0, 0, 0),
        (0, 0, -4, 0, 0),
        (0, 0, 0, 0, 0),
        (-2, 0, 0, 0, 4),
    )
)

# (x^2 + y^2 + z^2 + 3)^2 - 16*(x^2 + y^2), homogenized by w.
TORUS_QUARTIC = {
    (4, 0, 0, 0): Fraction(1),
    (0, 4, 0, 0): Fraction(1),
    (0, 0, 4, 0): Fraction(1),
    (2, 2, 0, 0): Fraction(2),
    (2, 0, 2, 0): Fraction(2),
    (0, 2, 2, 0): Fraction(2),
    (2, 0, 0, 2): Fraction(-10),
    (0, 2, 0, 2): Fraction(-10),
    (0, 0, 2, 2): Fraction(6),
    (0, 0, 0, 4): Fraction(9),
}


def torus_point(s, t):
    """Rational point of the R=2, r=1 torus from two tan-half-angles."""
    s, t = Fraction(s), Fraction(t)
    cs, ss = (1 - s * s) / (1 + s * s), 2 * s / (1 + s * s)
    ct, st = (1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)
    return ((2 + ct) * cs, (2 + ct) * ss, st)


fractions = st.fractions(min_value=-6, max_value=6, max_denominator=8)
points3 = st.tuples(fractions, fractions, fractions)


# region circles


def test_circle3_validation():
    with pytest.raises(InvalidInput):
        Circle3((0, 0, 0), (1, 0, 0), (1, 1, 0))
    with pytest.raises(InvalidInput):
        Circle3((0, 0, 0), (1, 0, 0), (0, 2, 0))
    with pytest.raises(InvalidInput):
        Circle3((0, 0, 0), (0, 0, 0), (0, 0, 0))


def test_circle3_points():
    assert XY_CIRCLE.point(0) == (1, 0, 0)
    assert XY_CIRCLE.point(1) == (0, 1, 0)
    assert XY_CIRCLE.point(-1) == (0, -1, 0)
    assert XY_CIRCLE.point_at_infinity() == (-1, 0, 0)
    assert XY_CIRCLE.radius_sq == 1


def test_circle3_points_stay_on_circle():
    rng = random.Random(50)
    for _ in range(10):
        circle = rand_circle3(rng)
        for t in (0, 1, Fraction(1, 3), -2, Fraction(-5, 7)):
            p = circle.point(t)
            d = tuple(a - b for a, b in zip(p, circle.center))
            assert sum(c * c for c in d) == circle.radius_sq


def test_circle_s3_validation():
    with pytest.raises(InvalidInput):
        CircleS3((1, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0))
    with pytest.raises(InvalidInput):
        CircleS3((Fraction(1, 2), 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))
    good = CircleS3((Fraction(3, 5), 0, 0, 0), (0, Fraction(4, 5), 0, 0), (0, 0, Fraction(4, 5), 0))
    assert good.radius_sq == Fraction(16, 25)


def test_circle_s3_points_have_unit_norm():
    rng = random.Random(51)
    for _ in range(10):
        circle = rand_circle_s3(rng)
        for t in (0, 1, -1, Fraction(2, 3), -5):
            assert sum(c * c for c in circle.point(t)) == 1
        assert sum(c * c for c in circle.point_at_infinity()) == 1


def wide_fraction(rng: random.Random) -> Fraction:
    """A rational of size up to 50 with a denominator of up to three digits."""
    return Fraction(rng.randint(-50_000, 50_000), rng.randint(1, 999))


def wide_circle(rng: random.Random, on_sphere: bool):
    """A random Circle3, or CircleS3 if ``on_sphere``, built from 3-digit-denominator data."""
    q = Quaternion(*stereo_inv(tuple(wide_fraction(rng) for _ in range(3))))
    s = wide_fraction(rng) or Fraction(1, 999)
    if not on_sphere:
        center = tuple(wide_fraction(rng) for _ in range(3))
        return Circle3(center, rotate3(q, (s, 0, 0)), rotate3(q, (0, s, 0)))
    p = Quaternion(*stereo_inv(tuple(wide_fraction(rng) for _ in range(3))))
    c, r = (1 - s * s) / (1 + s * s), 2 * s / (1 + s * s)
    return CircleS3(rotate4(p, q, (c, 0, 0, 0)), rotate4(p, q, (0, r, 0, 0)), rotate4(p, q, (0, 0, r, 0)))


seeds = st.randoms(use_true_random=False)
wide_params = st.one_of(st.fractions(min_value=-50, max_value=50, max_denominator=999), st.integers(-1000, 1000))


@given(seeds, st.booleans(), wide_params)
def test_circle_point_matches_fraction_reference(rng, on_sphere, t):
    circle = wide_circle(rng, on_sphere)
    assert circle.point(t) == reference_circle_point(circle, t)
    assert all(type(c) is Fraction for c in circle.point(t))


def test_circle_integer_frame_stays_out_of_equality_and_repr():
    again = Circle3(XY_CIRCLE.center, XY_CIRCLE.e1, XY_CIRCLE.e2)
    assert again == XY_CIRCLE and hash(again) == hash(XY_CIRCLE)
    assert "_frame" not in repr(XY_CIRCLE)


def test_circles_reject_float_coordinates():
    with pytest.raises(TypeError):
        Circle3((0.5, 0, 0), (1, 0, 0), (0, 1, 0))
    with pytest.raises(TypeError):
        CircleS3((0, 0, 0, 0), (1.0, 0, 0, 0), (0, 1, 0, 0))


@pytest.mark.parametrize(
    "call",
    [
        lambda: RPolyUV.var_u().eval(0.1, 0),
        lambda: QPolyUV.var_u().eval(0.5, 0),
        lambda: RPolyUV.var_u() / 0.5,
        lambda: XY_CIRCLE.point(0.5),
        lambda: coordinate_curve(SurfaceSpec.family_e(XY_CIRCLE, XZ_CIRCLE), "u", 0, [0, 0.5]),
        lambda: stereo((0.5, 0, 0, 0)),
        lambda: stereo_inv((0.5, 0, 0)),
        lambda: quartic_value(TORUS_QUARTIC, (0.5, 0, 0)),
        lambda: TORUS_QUADRIC.value((0.5, 0, 0, 0)),
        lambda: render_decimal(0.1, 3),
        lambda: export_csv([[(Fraction(1), 0.5, Fraction(0))]]),
        lambda: export_obj([[(Fraction(1), 0.5, Fraction(0))]]),
        lambda: render_decimal(Fraction(1, 3), 0.0),
        lambda: export_csv([[None]], 0.0),
        lambda: export_obj([[None]], 1e3),
    ],
    ids=["sparse-eval", "u-eval", "rpoly-div", "circle-point", "coordinate-curve", "stereo",
         "stereo-inv", "quartic-value", "quadric-value", "render-decimal", "export-csv", "export-obj",
         "render-decimal-digits", "export-csv-digits", "export-obj-digits"],
)
def test_float_arguments_are_rejected(call):
    # 0.1 is not exact; it would silently become 3602879701896397/36028797018963968.
    # A float digit count is rejected too, before it renders in floats or overflows.
    with pytest.raises(TypeError):
        call()


def test_bool_values_are_rejected():
    # bool is a subclass of int, but True is no rational value: taken as 1 it
    # would print as "1.000" or sit on a circle as the coordinate 1.
    points = [(k, 0, 0) for k in range(4)] + [(True, 1, 0)]
    calls = [
        lambda: render_decimal(True, 3),
        lambda: export_csv([[(True, Fraction(0), Fraction(0))]], 2),
        lambda: Quaternion(True),
        lambda: Quaternion(1, False),
        lambda: QPolyUV({(0, 0): True}),
        lambda: QPolyUV.var_u() * True,
        lambda: RPolyUV.const(False),
        lambda: is_circle_or_line(points),
    ]
    for call in calls:
        with pytest.raises(TypeError, match="got bool$"):
            call()
    # As an operand a bool is refused, so it equals no quaternion.
    assert (Quaternion(1) == True) is False and Quaternion(0) != False  # noqa: E712
    with pytest.raises(TypeError):
        Quaternion(1) + True


@pytest.mark.parametrize(
    "call",
    [
        lambda: render_decimal(Fraction(1, 3), True),
        lambda: export_csv([[(Fraction(1, 3), Fraction(0), Fraction(0))]], True),
        lambda: export_obj([[(Fraction(1, 3), Fraction(0), Fraction(0))]], False),
    ],
    ids=["render-decimal", "export-csv", "export-obj"],
)
def test_bool_digit_counts_are_rejected(call):
    # bool is an int subclass: True would render one digit, as '0.3'.
    with pytest.raises(TypeError, match="got bool"):
        call()


# endregion

# region surface evaluation


def test_eval_e_examples():
    assert eval_e(XY_CIRCLE, XZ_CIRCLE, 0, 0) == (2, 0, 0)
    assert eval_e(XY_CIRCLE, XZ_CIRCLE, 1, 0) == (1, 1, 0)


def test_eval_e_curves_are_translates():
    beta_at_0 = XZ_CIRCLE.point(0)
    for t in (0, 1, Fraction(1, 2), -3):
        expected = tuple(a + b for a, b in zip(XY_CIRCLE.point(t), beta_at_0))
        assert eval_e(XY_CIRCLE, XZ_CIRCLE, t, 0) == expected


def test_eval_c_examples():
    assert eval_c(GREAT_CIRCLE, GREAT_CIRCLE, 0, 0) == (1, 0, 0, 0)
    assert eval_c(GREAT_CIRCLE, GREAT_CIRCLE, 1, 0) == (0, 1, 0, 0)


def test_eval_c_unit_norm():
    rng = random.Random(52)
    alpha, beta = rand_circle_s3(rng), rand_circle_s3(rng)
    for _ in range(25):
        u0, v0 = rand_fraction(rng), rand_fraction(rng)
        assert sum(c * c for c in eval_c(alpha, beta, u0, v0)) == 1


@given(st.integers(0, 2**32), st.booleans(), wide_params, wide_params)
def test_eval_matches_fraction_reference(seed, on_sphere, u, v):
    rng = random.Random(seed)
    if on_sphere:
        alpha, beta = rand_circle_s3(rng), rand_circle_s3(rng)
        point, expected = eval_c(alpha, beta, u, v), _reference_eval_c(alpha, beta, u, v)
    else:
        alpha, beta = rand_circle3(rng), rand_circle3(rng)
        point, expected = eval_e(alpha, beta, u, v), _reference_eval_e(alpha, beta, u, v)
    assert point == expected and len(point) == alpha.dim
    assert all(type(c) is Fraction for c in point)


@pytest.mark.parametrize(
    "call",
    [
        lambda: eval_e(GREAT_CIRCLE, GREAT_CIRCLE, 0, 1),
        lambda: eval_e(XY_CIRCLE, GREAT_CIRCLE, 0, 1),
        lambda: eval_c(XY_CIRCLE, XZ_CIRCLE, 0, 1),
    ],
    ids=["e-sphere-circles", "e-mixed-circles", "c-3-space-circles"],
)
def test_eval_rejects_the_wrong_circle_kind(call):
    # Unchecked, each would return a point: a 4-vector, a truncated 3-vector, a 4-vector.
    with pytest.raises(InvalidInput, match="family"):
        call()


# endregion

# region stereographic projection


def test_stereo_examples():
    assert stereo((-1, 0, 0, 0)) == (0, 0, 0)
    assert stereo((0, 1, 0, 0)) == (1, 0, 0)
    with pytest.raises(PolePoint):
        stereo((1, 0, 0, 0))


def test_stereo_inv_examples():
    assert stereo_inv((0, 0, 0)) == (-1, 0, 0, 0)
    assert stereo_inv((1, 0, 0)) == (0, 1, 0, 0)


@given(points3)
def test_stereo_round_trip(p):
    lifted = stereo_inv(p)
    assert sum(c * c for c in lifted) == 1
    assert stereo(lifted) == tuple(Fraction(c) for c in p)


# endregion

# region quadrics and the torus cyclide


def test_quadric_validation():
    with pytest.raises(InvalidInput):
        Quadric4(((1, 0), (0, 1)))
    rows = [[Fraction(0)] * 5 for _ in range(5)]
    rows[0][1] = Fraction(1)
    with pytest.raises(InvalidInput):
        Quadric4(tuple(tuple(r) for r in rows))



def test_quadric_rejects_float_entries():
    rows = [list(row) for row in TORUS_QUADRIC.q]
    rows[1][1] = -4.0
    with pytest.raises(TypeError):
        Quadric4(tuple(tuple(r) for r in rows))


@pytest.mark.parametrize(
    "call",
    [
        lambda: TORUS_QUADRIC.value((1, 0, 0, 0, 7)),
        lambda: TORUS_QUADRIC.value((1, 0, 0)),
        lambda: stereo((0, 0, 0)),
        lambda: stereo((0, 0, 0, 0, 0)),
        lambda: stereo_inv((0, 0)),
        lambda: stereo_inv((0, 0, 0, 0)),
        lambda: quartic_value(TORUS_QUARTIC, (0, 0)),
        lambda: quartic_value(TORUS_QUARTIC, (0, 0, 0, 0)),
    ],
    ids=["quadric-value-5", "quadric-value-3", "stereo-3", "stereo-5", "stereo-inv-2", "stereo-inv-4",
         "quartic-value-2", "quartic-value-4"],
)
def test_points_of_the_wrong_length_are_rejected(call):
    # A fifth entry used to stand in for h, and a short point to end in IndexError.
    with pytest.raises(InvalidInput):
        call()


def test_quadric_rejects_sphere_multiples():
    for scale in (1, -2, Fraction(1, 3)):
        rows = tuple(
            tuple(scale * c for c in row)
            for row in ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 1, 0), (0, 0, 0, 0, -1))
        )
        with pytest.raises(DegenerateFamily):
            Quadric4(rows)


def test_torus_quartic_exact():
    assert cyclide_implicit(TORUS_QUADRIC) == TORUS_QUARTIC


def test_torus_membership():
    for s in (-2, -1, 0, 1, Fraction(1, 2)):
        for t in (-1, 0, 2, Fraction(-3, 4), Fraction(1, 3)):
            p = torus_point(s, t)
            lifted = stereo_inv(p)
            assert TORUS_QUADRIC.value(lifted) == 0
            assert quartic_value(TORUS_QUARTIC, p) == 0


# The torus (x^2 + y^2 + z^2 + 16)^2 = 100 (x^2 + y^2), tube radius 3 about a
# core circle of radius 5, in the coordinates of TORUS_QUADRIC.  Unlike the
# R=2, r=1 torus, its Villarceau circles are rational.
RATIONAL_TORUS_QUADRIC = Quadric4(
    (
        (225, 0, 0, 0, -255),
        (0, -100, 0, 0, 0),
        (0, 0, -100, 0, 0),
        (0, 0, 0, 0, 0),
        (-255, 0, 0, 0, 289),
    )
)


@pytest.mark.parametrize(
    "circle",
    [
        Circle3((0, 3, 0), (4, 0, 3), (0, 5, 0)),
        Circle3((0, -3, 0), (4, 0, 3), (0, 5, 0)),
        Circle3((5, 0, 0), (3, 0, 0), (0, 0, 3)),
    ],
    ids=["villarceau+", "villarceau-", "meridian"],
)
def test_rational_torus_circles_lie_on_its_cyclide(circle):
    quartic = cyclide_implicit(RATIONAL_TORUS_QUADRIC)
    points = [circle.point(t) for t in grid_params(41)]
    assert all(quartic_value(quartic, p) == 0 for p in points)
    assert is_circle_or_line(points)
    # Control: the same circle moved off the core plane leaves the surface.
    lifted = [(x, y, z + 1) for x, y, z in points]
    assert any(quartic_value(quartic, p) for p in lifted)


def test_generic_quadric_gives_nonzero_quartic():
    diag = Quadric4(
        (
            (1, 0, 0, 0, 0),
            (0, 1, 0, 0, 0),
            (0, 0, 0, 0, 0),
            (0, 0, 0, 0, 0),
            (0, 0, 0, 0, Fraction(-1, 4)),
        )
    )
    quartic = cyclide_implicit(diag)
    assert quartic
    assert all(sum(key) == 4 for key in quartic)


form_entries = st.one_of(st.just(Fraction(0)), st.fractions(min_value=-50, max_value=50, max_denominator=999))
SPHERE_FORM = ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 1, 0), (0, 0, 0, 0, -1))


@st.composite
def symmetric_forms(draw):
    """Symmetric 5x5 rational forms with zero rows and entries, plus a multiple of the sphere form."""
    upper = {(i, j): draw(form_entries) for i in range(5) for j in range(i, 5)}
    for i in draw(st.sets(st.integers(0, 4))):
        upper.update({(min(i, j), max(i, j)): Fraction(0) for j in range(5)})
    k = draw(form_entries)
    rows = [[upper[min(i, j), max(i, j)] for j in range(5)] for i in range(5)]
    return tuple(tuple(c + k * s for c, s in zip(row, sphere)) for row, sphere in zip(rows, SPHERE_FORM))


@given(symmetric_forms())
@example(tuple(tuple(Fraction(0) for _ in row) for row in SPHERE_FORM))
@example(tuple(tuple(Fraction(3, 2) * c for c in row) for row in SPHERE_FORM))
def test_cyclide_implicit_matches_the_25_product_reference(rows):
    # Built unchecked, so sphere multiples reach the pullback and give {} on both sides.
    quadric = object.__new__(Quadric4)
    object.__setattr__(quadric, "q", rows)
    assert cyclide_implicit(quadric) == reference_cyclide_implicit(quadric)


def _kernel(images: list[dict]) -> tuple[int, list[list[Fraction]]]:
    """Rank and kernel basis of the linear map sending basis vector k to the term map ``images[k]``."""
    keys = sorted({key for image in images for key in image})
    rows = [[Fraction(image.get(key, 0)) for image in images] for key in keys]
    pivots: list[int] = []
    for col in range(len(images)):
        r = len(pivots)
        p = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        rows[r] = [c / rows[r][col] for c in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[col]:
                rows[i] = [a - row[col] * b for a, b in zip(row, rows[r])]
        pivots.append(col)
    kernel = []
    for free in (c for c in range(len(images)) if c not in pivots):
        vec = [Fraction(int(c == free)) for c in range(len(images))]
        for i, col in enumerate(pivots):
            vec[col] = -rows[i][free]
        kernel.append(vec)
    return len(pivots), kernel


def test_only_sphere_multiples_pull_back_to_zero():
    # Quadric4 rejects sphere multiples, so cyclide_implicit never returns {} on a valid quadric.
    pairs = [(i, j) for i in range(5) for j in range(i, 5)]
    images = []
    for i, j in pairs:
        rows = [[0] * 5 for _ in range(5)]
        rows[i][j] = rows[j][i] = 1
        images.append(reference_cyclide_implicit(Quadric4(tuple(map(tuple, rows)))))
    rank, kernel = _kernel(images)
    assert rank == 14
    (vec,) = kernel
    sphere = [SPHERE_FORM[i][j] for i, j in pairs]
    scale = vec[-1] / sphere[-1]
    assert vec == [scale * c for c in sphere]


# endregion

# region coordinate curves and grids


def test_grid_params_frozen():
    assert grid_params(3) == [-1, 0, 1]
    assert grid_params(4) == [Fraction(-3, 2), Fraction(-1, 2), Fraction(1, 2), Fraction(3, 2)]
    with pytest.raises(InvalidInput):
        grid_params(0)


def test_coordinate_curve_family_e():
    spec = SurfaceSpec.family_e(XY_CIRCLE, XZ_CIRCLE)
    samples = [0, 1, -1]
    # 'which' names the frozen parameter: freezing v leaves a translate of alpha.
    curve = coordinate_curve(spec, "v", 0, samples)
    beta0 = XZ_CIRCLE.point(0)
    assert curve == [tuple(a + b for a, b in zip(XY_CIRCLE.point(t), beta0)) for t in samples]
    curve = coordinate_curve(spec, "u", 0, samples)
    alpha0 = XY_CIRCLE.point(0)
    assert curve == [tuple(a + b for a, b in zip(alpha0, XZ_CIRCLE.point(t))) for t in samples]


def test_coordinate_curve_family_c_identity_slice():
    spec = SurfaceSpec.family_c(GREAT_CIRCLE, GREAT_CIRCLE)
    # alpha(0) = 1, so freezing u = 0 projects beta's own samples.
    samples = [1, -1, Fraction(1, 2)]
    curve = coordinate_curve(spec, "u", 0, samples)
    assert curve == [stereo(GREAT_CIRCLE.point(t)) for t in samples]


def test_coordinate_curve_pole_handling():
    spec = SurfaceSpec.family_c(GREAT_CIRCLE, GREAT_CIRCLE)
    # alpha(1) * beta(-1) = i * (-i) = 1 hits the pole.
    with pytest.raises(PolePoint):
        coordinate_curve(spec, "u", 1, [0, -1])
    masked = coordinate_curve(spec, "u", 1, [0, -1], mask_poles=True)
    assert masked == [stereo(eval_c(GREAT_CIRCLE, GREAT_CIRCLE, 1, 0))]


def test_coordinate_curve_rejects_family_d():
    spec = SurfaceSpec.family_d(TORUS_QUADRIC)
    with pytest.raises(UnsupportedFamily):
        coordinate_curve(spec, "u", 0, [0, 1])
    with pytest.raises(InvalidInput):
        coordinate_curve(SurfaceSpec.family_e(XY_CIRCLE, XZ_CIRCLE), "w", 0, [0])


def test_sample_grid_family_e():
    spec = SurfaceSpec.family_e(XY_CIRCLE, XZ_CIRCLE)
    grid = sample_grid(spec, 3)
    assert len(grid) == 3 and all(len(row) == 3 for row in grid)
    assert all(cell is not None for row in grid for cell in row)
    assert grid[1][1] == (2, 0, 0)


def test_sample_grid_family_c_masks_poles():
    spec = SurfaceSpec.family_c(GREAT_CIRCLE, GREAT_CIRCLE)
    grid = sample_grid(spec, 3)
    # alpha(t) * beta(-t) = 1: the antidiagonal of the 3x3 grid is masked.
    masked = [(i, j) for i in range(3) for j in range(3) if grid[i][j] is None]
    assert masked == [(0, 2), (1, 1), (2, 0)]
    assert grid == reference_sample_grid(spec, 3)


@st.composite
def sampled_specs(draw):
    """Family e or c specs from wide circles, or a family c spec through the pole."""
    rng = draw(seeds)
    kind = draw(st.sampled_from(["e", "c", "c-great", "c-great-beta"]))
    if kind == "e":
        return SurfaceSpec.family_e(wide_circle(rng, False), wide_circle(rng, False))
    if kind == "c":
        return SurfaceSpec.family_c(wide_circle(rng, True), wide_circle(rng, True))
    # On the great circle alpha(t) * beta(-t) = 1, so "c-great" curves and grids hit the pole.
    beta = GREAT_CIRCLE if kind == "c-great" else wide_circle(rng, True)
    return SurfaceSpec.family_c(GREAT_CIRCLE, beta)


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except PolePoint as exc:
        return type(exc)


@given(
    sampled_specs(),
    st.sampled_from("uv"),
    wide_params,
    st.lists(st.one_of(fractions, st.integers(-5, 5)), max_size=8),
    st.booleans(),
    st.data(),
)
def test_coordinate_curve_matches_fraction_reference(spec, which, fixed, samples, mask_poles, data):
    if data.draw(st.booleans()):
        samples.insert(data.draw(st.integers(0, len(samples))), -fixed)
    args = (spec, which, fixed, samples)
    assert _outcome(coordinate_curve, *args, mask_poles=mask_poles) == _outcome(
        reference_coordinate_curve, *args, mask_poles=mask_poles
    )


@given(sampled_specs(), st.integers(2, 7))
def test_sample_grid_matches_fraction_reference(spec, n):
    assert sample_grid(spec, n) == reference_sample_grid(spec, n)


def gen_surface(spec: SurfaceSpec, *argv: str) -> str:
    """What ``gen-surface`` writes to standard output for ``spec``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "spec.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(spec.to_json(), handle)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["gen-surface", "--family", spec.family, "--spec", path, *argv]) == 0
    return out.getvalue()


@st.composite
def export_cases(draw):
    """A sampled spec and a digit count, or a family e spec whose every z coordinate is a tie at that count."""
    digits = draw(st.integers(0, 15))
    if draw(st.booleans()):
        return draw(sampled_specs()), digits
    rng = draw(seeds)
    # Both frames lie in the xy-plane, so z is alpha's center z everywhere:
    # (2k + 1) / (2 * 10**digits), halfway between two printable decimals.
    z = Fraction(2 * draw(st.integers(-10**6, 10**6)) + 1, 2 * 10**digits)
    s, a, b = wide_fraction(rng) or 1, wide_fraction(rng) or 1, wide_fraction(rng)
    alpha = Circle3((wide_fraction(rng), wide_fraction(rng), z), (s, 0, 0), (0, s, 0))
    beta = Circle3((wide_fraction(rng), wide_fraction(rng), 0), (a, b, 0), (-b, a, 0))
    return SurfaceSpec.family_e(alpha, beta), digits


@given(export_cases(), st.integers(2, 6))
@example((SurfaceSpec.family_c(GREAT_CIRCLE, GREAT_CIRCLE), 3), 3)
@example((SurfaceSpec.family_e(Circle3((0, 0, Fraction(1, 2)), (1, 0, 0), (0, 1, 0)), XY_CIRCLE), 0), 4)
def test_gen_surface_text_matches_fraction_reference(case, n):
    spec, digits = case
    grid = reference_sample_grid(spec, n)
    expected = {
        "obj": reference_export_obj(grid, digits),
        "csv": reference_export_csv(grid, digits),
        "json": json.dumps({"family": spec.family, "grid": reference_grid_json(grid)}, sort_keys=True, indent=2)
        + "\n",
    }
    for fmt, text in expected.items():
        assert gen_surface(spec, "--grid", str(n), "--format", fmt, "--digits", str(digits)) == text
    assert export_obj(grid, digits) == expected["obj"]
    assert export_csv(grid, digits) == expected["csv"]


@pytest.mark.parametrize("family", ["e", "c"])
def test_each_circle_is_evaluated_once_per_parameter(monkeypatch, family):
    rng = random.Random(56)
    if family == "e":
        spec = SurfaceSpec.family_e(rand_circle3(rng), rand_circle3(rng))
    else:
        spec = SurfaceSpec.family_c(rand_circle_s3(rng), rand_circle_s3(rng))
    calls = []
    for cls in (Circle3, CircleS3):
        def counted(self, t, ints=cls._ints):
            calls.append(t)
            return ints(self, t)

        monkeypatch.setattr(cls, "_ints", counted)
    for n in (2, 5, 24):
        calls.clear()
        sample_grid(spec, n)
        assert len(calls) == 2 * n
    for which in ("u", "v"):
        calls.clear()
        coordinate_curve(spec, which, Fraction(1, 2), grid_params(9), mask_poles=True)
        assert len(calls) == 9 + 1


def test_sample_grid_rejects_family_d_and_tiny_grids():
    with pytest.raises(UnsupportedFamily):
        sample_grid(SurfaceSpec.family_d(TORUS_QUADRIC), 3)
    with pytest.raises(InvalidInput):
        sample_grid(SurfaceSpec.family_e(XY_CIRCLE, XZ_CIRCLE), 1)


# endregion

# region circle recognition


def test_circle_recognition_on_unit_circle():
    points = [XY_CIRCLE.point(t) for t in (0, 1, -1, 2, Fraction(1, 2))]
    assert is_circle_or_line(points)


def test_circle_recognition_on_line():
    points = [(k, 0, 0) for k in range(5)]
    assert is_circle_or_line(points)


def test_circle_recognition_rejects_skew_points():
    points = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]
    assert not is_circle_or_line(points)


def test_circle_recognition_rejects_spherical_non_circle():
    # Five points on the unit sphere but not on one plane.
    points = [
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
        (-1, 0, 0),
        (Fraction(3, 5), Fraction(4, 5), 0),
    ]
    assert not is_circle_or_line(points)


def test_circle_recognition_too_few_points():
    with pytest.raises(TooFewPoints):
        is_circle_or_line([(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0)])
    with pytest.raises(TooFewPoints):
        is_circle_or_line([(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0), (0, 0, 0)])



def test_circle_recognition_rejects_float_points():
    # 0.6 and 0.8 are not 3/5 and 4/5 in binary, so a float answer would be wrong.
    with pytest.raises(TypeError):
        is_circle_or_line([(1, 0, 0), (0, 1, 0), (-1, 0, 0), (0, -1, 0), (0.6, 0.8, 0)])

def test_circle_recognition_sampled_subsets():
    dense = [XY_CIRCLE.point(Fraction(k, 7)) for k in range(60)]
    assert is_circle_or_line(dense)
    spoiled = dense[:-1] + [(5, 5, 5)]
    assert not is_circle_or_line(spoiled)


def test_circle_recognition_random_circles():
    rng = random.Random(53)
    for _ in range(5):
        circle = rand_circle3(rng)
        points = [circle.point(Fraction(k, 3)) for k in range(-3, 4)]
        assert is_circle_or_line(points)


def test_circle_recognition_rejects_parabola():
    assert not is_circle_or_line([(k, k * k, 0) for k in range(6)])


def test_circle_recognition_rejects_point_on_sphere_off_plane():
    # (0, 0, 1) is as far from the circle's center as the circle itself.
    points = [(1, 0, 0), (0, 1, 0), (-1, 0, 0), (0, -1, 0), (0, 0, 1)]
    assert not is_circle_or_line(points)


def test_circle_recognition_rejects_square_plus_point():
    points = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (2, 0, 0)]
    assert not is_circle_or_line(points)


def _chord_move(points, i, j, mu):
    """Move point i, ``p``, to ``p + mu*(p - q)`` on its line through point j, ``q``."""
    moved = list(points)
    moved[i] = tuple(a + mu * (a - b) for a, b in zip(points[i], points[j]))
    return moved


@pytest.mark.parametrize("family, size", [("e", 9), ("c", 64)])
def test_circle_recognition_rejects_chord_move(family, size):
    rng = random.Random(54)
    if family == "e":
        spec = SurfaceSpec.family_e(rand_circle3(rng), rand_circle3(rng))
    else:
        spec = SurfaceSpec.family_c(rand_circle_s3(rng), rand_circle_s3(rng))
    points = coordinate_curve(spec, "u", Fraction(1, 2), grid_params(size), mask_poles=True)
    assert is_circle_or_line(points)
    assert not is_circle_or_line(_chord_move(points, 3, 5, Fraction(1, 2)))


def test_circle_recognition_rejects_one_far_point_among_many():
    dense = [XY_CIRCLE.point(Fraction(k, 7)) for k in range(1000)]
    for index in (0, 250, 999):
        spoiled = list(dense)
        spoiled[index] = (5, 5, 5)
        assert not is_circle_or_line(spoiled), index


@st.composite
def curve_points(draw):
    """Five to ten distinct points of a rational circle or line, one maybe moved."""
    rng = draw(st.randoms(use_true_random=False))
    params = [Fraction(k, 3) for k in rng.sample(range(-15, 16), draw(st.integers(5, 10)))]
    if draw(st.booleans()):
        circle = rand_circle3(rng)
        points = [circle.point(t) for t in params]
    else:
        base = tuple(rand_fraction(rng) for _ in range(3))
        direction = tuple(rand_fraction(rng) for _ in range(3))
        assume(any(direction))
        points = [tuple(b + t * d for b, d in zip(base, direction)) for t in params]
    i, j = rng.sample(range(len(points)), 2)
    move = draw(st.sampled_from([None, "off-plane", "chord"]))
    if move == "off-plane":
        shift = tuple(rand_fraction(rng) for _ in range(3))
        points[i] = tuple(a + b for a, b in zip(points[i], shift))
    elif move == "chord":
        mu = rand_fraction(rng)
        assume(mu not in (0, -1))
        points = _chord_move(points, i, j, mu)
    assume(len(set(points)) == len(points))
    return points


@given(curve_points())
def test_circle_recognition_matches_exhaustive_reference(points):
    assert is_circle_or_line(points) == reference_circle_or_line(points)


def _circle_outcome(check, points):
    """The answer, or the class of the documented error it raised."""
    try:
        return check(points)
    except (TooFewPoints, InvalidInput, TypeError) as exc:
        return type(exc)


@st.composite
def weave_curves(draw):
    """Coordinate curves of 5 to 64 samples as ``weave`` checks them, some moved or spoiled.

    Family e and projected family c curves carry denominators of about ten
    to fifteen digits.  Lines put their first non-collinear point after
    several collinear ones.
    """
    rng = draw(st.randoms(use_true_random=False))
    size = draw(st.integers(5, 64))
    kind = draw(st.sampled_from(["e", "c", "line"]))
    if kind == "line":
        base = tuple(rand_fraction(rng) for _ in range(3))
        direction = tuple(rand_fraction(rng) for _ in range(3))
        assume(any(direction))
        points = [tuple(b + t * d for b, d in zip(base, direction)) for t in grid_params(size)]
        k = draw(st.integers(2, size - 1))
        points[k] = tuple(a + rand_fraction(rng) for a in points[k])
    else:
        make = SurfaceSpec.family_e if kind == "e" else SurfaceSpec.family_c
        circle = rand_circle3 if kind == "e" else rand_circle_s3
        spec = make(circle(rng), circle(rng))
        which = draw(st.sampled_from("uv"))
        points = coordinate_curve(spec, which, rand_fraction(rng), grid_params(size), mask_poles=True)
    move = draw(st.sampled_from([None, None, None, "off-plane", "chord"]))
    if move and len(points) >= 2:
        i, j = rng.sample(range(len(points)), 2)
        if move == "off-plane":
            points[i] = tuple(a + rand_fraction(rng) for a in points[i])
        else:
            points = _chord_move(points, i, j, rand_fraction(rng))
    spoils = ["duplicate", "2-vector", "4-vector", "4-vector-float", "float", "int-bool", "list"]
    spoil = draw(st.sampled_from([None] * 7 + spoils))
    if spoil and points:
        i = rng.randrange(len(points))
        if spoil == "duplicate":
            points.append(points[i])
        elif spoil == "2-vector":
            points[i] = points[i][:2]
        elif spoil == "4-vector":
            points[i] = (*points[i], 0)
        elif spoil == "4-vector-float":
            points[i] = (*points[i], 0.5)
        elif spoil == "float":
            points[i] = (0.5, *points[i][1:])
        elif spoil == "int-bool":
            points[i] = (True, False, rng.randint(-2, 2))
        else:
            points[i] = list(points[i])
    return points


@given(weave_curves())
def test_circle_recognition_matches_fraction_reference(points):
    assert _circle_outcome(is_circle_or_line, points) == _circle_outcome(reference_plane_circumcenter, points)


def test_circle_recognition_sees_a_tiny_move_on_large_denominators():
    rng = random.Random(55)
    spec = SurfaceSpec.family_c(rand_circle_s3(rng), rand_circle_s3(rng))
    points = coordinate_curve(spec, "u", Fraction(2, 3), grid_params(9), mask_poles=True)
    assert max(c.denominator for p in points for c in p) > 10**9
    assert is_circle_or_line(points)
    eps = Fraction(1, 10**30)
    for moved in (
        [points[0], points[1], (points[2][0] + eps, *points[2][1:]), *points[3:]],
        _chord_move(points, 4, 5, eps),
    ):
        assert not is_circle_or_line(moved)
        assert not reference_plane_circumcenter(moved)


def test_circle_recognition_rejects_one_point_off_a_line():
    line = [(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0)]
    assert not is_circle_or_line([*line, (0, 1, 0)])
    assert not is_circle_or_line([*line[:2], (5, 0, 1), *line[2:]])


def test_circle_recognition_equal_mixed_points_are_duplicates():
    points = [(1, 0, 0), (0, 1, 0), (-1, 0, 0), (0, -1, 0), (Fraction(3, 5), Fraction(4, 5), 0)]
    with pytest.raises(TooFewPoints, match=r"^need at least five points, no two equal$"):
        is_circle_or_line([*points, (Fraction(2, 2), 0, 0)])
    with pytest.raises(TooFewPoints):
        is_circle_or_line([*points, (Fraction(6, 10), Fraction(8, 10), Fraction(0, 3))])


UNIT_CIRCLE_POINTS = [(1, 0, 0), (0, 1, 0), (-1, 0, 0), (0, -1, 0)]


@pytest.mark.parametrize(
    "make_point, expected",
    [
        (lambda: (c for c in (Fraction(3, 5), Fraction(4, 5), 0)), True),
        (lambda: (c for c in (1, 1, 0)), False),
        (lambda: (c for c in (1, 1)), InvalidInput),
        (lambda: 5, TypeError),
        (lambda: None, TypeError),
    ],
    ids=["generator-on", "generator-off", "generator-2-vector", "int", "none"],
)
def test_circle_recognition_reads_odd_points_as_the_fraction_reference(make_point, expected):
    # A generator is drawn once, so each check gets a fresh one.
    for check in (is_circle_or_line, reference_plane_circumcenter):
        assert _circle_outcome(check, [*UNIT_CIRCLE_POINTS, make_point()]) == expected


def test_circle_recognition_coerces_each_coordinate_once(monkeypatch):
    calls = []

    def counted(value, coerce=surfaces._coerce):
        calls.append(value)
        return coerce(value)

    monkeypatch.setattr(surfaces, "_coerce", counted)
    rng = random.Random(57)
    spec = SurfaceSpec.family_e(rand_circle3(rng), rand_circle3(rng))
    for n in (5, 9, 64):
        on = coordinate_curve(spec, "u", Fraction(1, 2), grid_params(n))
        off = [*on[:-1], (on[-1][0] + 1, *on[-1][1:])]
        line = [(t, 2 * t, 0) for t in grid_params(n)]
        for points, expected in ((on, True), (off, False), (line, True)):
            calls.clear()
            assert is_circle_or_line(points) is expected
            assert len(calls) == 3 * n


def test_circle_recognition_rejects_a_4_vector():
    points = [(1, 0, 0), (0, 1, 0), (-1, 0, 0), (0, -1, 0), (Fraction(3, 5), Fraction(4, 5), 0, 0)]
    with pytest.raises(InvalidInput):
        is_circle_or_line(points)


# endregion

# region exports


def test_render_decimal():
    assert render_decimal(Fraction(1, 3), 3) == "0.333"
    assert render_decimal(Fraction(2, 3), 3) == "0.667"
    assert render_decimal(Fraction(-1, 8), 3) == "-0.125"
    assert render_decimal(Fraction(5), 2) == "5.00"
    # Round half to even at the last kept digit.
    assert render_decimal(Fraction(1, 2), 0) == "0"
    assert render_decimal(Fraction(3, 2), 0) == "2"
    assert render_decimal(Fraction(25, 1000), 2) == "0.02"
    with pytest.raises(InvalidInput):
        render_decimal(Fraction(1, 3), -2)


def test_render_decimal_holds_digits_to_the_int_digit_limit():
    # Past the limit every value is refused, before 10**digits is formed.
    limit = sys.get_int_max_str_digits()
    assert render_decimal(Fraction(7), limit) == "7." + "0" * limit
    for value in (Fraction(7), Fraction(1, 3)):
        with pytest.raises(InvalidInput, match="too many digits"):
            render_decimal(value, limit + 1)


@given(
    st.one_of(st.fractions(), st.integers(-10**20, 10**20), st.fractions(max_denominator=10**6)),
    st.integers(0, 15),
)
def test_render_decimal_matches_fraction_reference(value, digits):
    assert render_decimal(value, digits) == reference_render_decimal(value, digits)


@given(st.integers(-10**6, 10**6), st.integers(0, 15))
def test_render_decimal_ties_match_fraction_reference(k, digits):
    # (2k + 1) / (2 * 10**digits) lies exactly halfway between two printable decimals.
    value = Fraction(2 * k + 1, 2 * 10**digits)
    assert render_decimal(value, digits) == reference_render_decimal(value, digits)
    assert render_decimal(-value, digits) == reference_render_decimal(-value, digits)


def test_export_csv():
    grid = [[(Fraction(1), Fraction(0), Fraction(0)), None], [(Fraction(1, 2), Fraction(-1, 4), Fraction(2)), (Fraction(0), Fraction(0), Fraction(0))]]
    out = export_csv(grid, digits=2)
    assert out == "1.00,0.00,0.00\n0.50,-0.25,2.00\n0.00,0.00,0.00\n"


def test_export_obj():
    grid = [
        [(Fraction(0), Fraction(0), Fraction(0)), (Fraction(1), Fraction(0), Fraction(0))],
        [(Fraction(0), Fraction(1), Fraction(0)), (Fraction(1), Fraction(1), Fraction(0))],
    ]
    out = export_obj(grid, digits=1)
    lines = out.strip().split("\n")
    assert lines[:4] == ["v 0.0 0.0 0.0", "v 1.0 0.0 0.0", "v 0.0 1.0 0.0", "v 1.0 1.0 0.0"]
    assert lines[4] == "f 1 3 4 2"


@pytest.mark.parametrize("export", [export_csv, export_obj])
@pytest.mark.parametrize(
    "grid, digits, exc, match",
    [
        ([[(Fraction(1), Fraction(2))]], 2, InvalidInput, "3-vector"),
        ([[(1, 2, 3, 4), None]], 1, InvalidInput, "3-vector"),
        ([[None]], -1, InvalidInput, "nonnegative"),
        ([[None, None], [None, None]], -5, InvalidInput, "nonnegative"),
        ([[(1, 2, 3, 0.5)]], 2, TypeError, "float"),
        ([[None, (Fraction(1, 2), 0.5)]], 2, TypeError, "float"),
    ],
    ids=["2-vector", "4-vector", "masked-1x1", "masked-2x2", "4-vector-float", "2-vector-float"],
)
def test_exports_reject_bad_cells_and_digits(export, grid, digits, exc, match):
    # A fully masked grid renders no cell, and still has its digits checked;
    # every coordinate of a cell is coerced before its length is checked.
    with pytest.raises(exc, match=match):
        export(grid, digits)


def test_export_obj_skips_faces_at_masked_cells():
    grid = [
        [(Fraction(0), Fraction(0), Fraction(0)), None],
        [(Fraction(0), Fraction(1), Fraction(0)), (Fraction(1), Fraction(1), Fraction(0))],
    ]
    out = export_obj(grid, digits=1)
    assert "f " not in out
    assert out.count("v ") == 3


# endregion

# region surface specs


def test_surface_spec_validation():
    cases = [
        ("e", {"alpha": XY_CIRCLE, "beta": GREAT_CIRCLE}),
        ("c", {"alpha": XY_CIRCLE, "beta": XZ_CIRCLE}),
        ("d", {"alpha": XY_CIRCLE}),
        ("x", {}),
        # A field the family does not use: to_json would drop it, so the spec would not survive a JSON round trip.
        ("e", {"alpha": XY_CIRCLE, "beta": XZ_CIRCLE, "quadric": TORUS_QUADRIC}),
        ("c", {"alpha": GREAT_CIRCLE, "beta": GREAT_CIRCLE, "quadric": TORUS_QUADRIC}),
        ("d", {"alpha": XY_CIRCLE, "quadric": TORUS_QUADRIC}),
        ("d", {"beta": GREAT_CIRCLE, "quadric": TORUS_QUADRIC}),
    ]
    for family, fields in cases:
        with pytest.raises(InvalidInput):
            SurfaceSpec(family, **fields)


def test_surface_spec_json_round_trip():
    rng = random.Random(54)
    specs = [
        SurfaceSpec.family_e(rand_circle3(rng), rand_circle3(rng)),
        SurfaceSpec.family_c(rand_circle_s3(rng), rand_circle_s3(rng)),
        SurfaceSpec.family_d(TORUS_QUADRIC),
    ]
    for spec in specs:
        again = SurfaceSpec.from_json(spec.to_json())
        assert again == spec
        assert again.to_json() == spec.to_json()


def test_circle_json_round_trip():
    rng = random.Random(55)
    c3 = rand_circle3(rng)
    assert Circle3.from_json(c3.to_json()).to_json() == c3.to_json()
    cs = rand_circle_s3(rng)
    assert CircleS3.from_json(cs.to_json()).to_json() == cs.to_json()
    with pytest.raises(InvalidInput):
        Circle3.from_json({"center": ["0", "0", "0"]})


def test_quadric_json_round_trip():
    assert Quadric4.from_json(TORUS_QUADRIC.to_json()).to_json() == TORUS_QUADRIC.to_json()
    with pytest.raises(InvalidInput):
        Quadric4.from_json({"q": "nope"})


# endregion

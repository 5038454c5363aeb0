"""Acceptance suite: one test and one printed verdict line per criterion.

Every check is exact rational arithmetic; the only tolerances anywhere are
the wall-clock budgets on criteria 1 and 2, which are asserted, not advisory.
Each test prints ``[acceptance] criterion N (...): PASS/FAIL`` on the real
terminal so the verdicts survive pytest's capture.
"""

import json
import random
import time
from fractions import Fraction

import pytest

from quatsurf import (
    Circle3,
    CircleS3,
    Mat2,
    PyTuple,
    QPolyUV,
    Quadric4,
    Quaternion,
    RPolyUV,
    SplitCertificate,
    SurfaceSpec,
    Vec2,
    cyclide_implicit,
    eval_c,
    is_circle_or_line,
    is_degenerate,
    kron,
    left_div_rem,
    quartic_value,
    right_div_rem,
    sample_grid,
    split,
    stereo_inv,
    tuple_from_pair,
    tuple_to_matrix,
    tuple_to_sphere_map,
)
from quatsurf.cli import main

from helpers import (
    Q3,
    q3poly,
    q3poly_add,
    q3poly_mul,
    q3poly_pow,
    rand_circle3,
    rand_circle_s3,
    rand_fraction,
    rand_nonzero_qpolyu,
    rand_nonzero_qpolyuv,
    rand_qpolyu,
    rand_qpolyuv,
    rand_quat,
    rand_rpolyuv,
    rand_vec2,
)

TORUS_QUADRIC = Quadric4(
    (
        (1, 0, 0, 0, -2),
        (0, -4, 0, 0, 0),
        (0, 0, -4, 0, 0),
        (0, 0, 0, 0, 0),
        (-2, 0, 0, 0, 4),
    )
)

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


def report(capsys, number: int, label: str, failures: list, extra: str = "") -> None:
    verdict = "PASS" if not failures else "FAIL"
    suffix = f" {extra}" if extra else ""
    with capsys.disabled():
        print(f"[acceptance] criterion {number} ({label}): {verdict}{suffix}")
    assert not failures, f"criterion {number}: {failures[:5]}"


def grid_curves(grid):
    """Rows and columns of a sampled grid, masked cells dropped."""
    curves = [[cell for cell in row if cell is not None] for row in grid]
    for j in range(len(grid[0])):
        curves.append([row[j] for row in grid if row[j] is not None])
    return curves


def test_criterion_1_two_sided_division(capsys):
    rng = random.Random(101)
    failures = []
    start = time.perf_counter()
    for k in range(1000):
        a = rand_qpolyu(rng, max_deg=6, max_num=1000, max_den=1000)
        b = rand_nonzero_qpolyu(rng, max_deg=6, max_num=1000, max_den=1000)
        q, r = left_div_rem(a, b)
        if b * q + r != a or r.deg_u >= b.deg_u:
            failures.append(("left", k))
        q, r = right_div_rem(a, b)
        if q * b + r != a or r.deg_u >= b.deg_u:
            failures.append(("right", k))
    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        failures.append(("budget", elapsed))
    report(capsys, 1, "two-sided division, 1000 pairs", failures, f"in {elapsed:.2f}s (budget 5s)")


def test_criterion_2_split_round_trips(capsys):
    rng = random.Random(102)
    failures = []
    start = time.perf_counter()
    for k in range(500):
        x = Vec2(rand_qpolyuv(rng, 2, 0), rand_qpolyuv(rng, 2, 0))
        y = rand_vec2(rng, 2, 1)
        matrix = kron(x, y)
        try:
            cert = split(matrix)
        except Exception as exc:
            failures.append((k, repr(exc)))
            continue
        if kron(cert.x, cert.y) != matrix:
            failures.append((k, "bad reconstruction"))
    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        failures.append(("budget", elapsed))
    report(capsys, 2, "500 split round trips", failures, f"in {elapsed:.2f}s (budget 30s)")


def test_criterion_3_routes_agree(capsys):
    rng = random.Random(103)
    failures = []
    hits = misses = 0
    for k in range(500):
        t = tuple_from_pair(rand_qpolyuv(rng, 1, 1), rand_qpolyuv(rng, 1, 1))
        if k % 2:
            comps = list(t.components())
            slot = rng.randrange(6)
            comps[slot] = comps[slot] + rand_rpolyuv(rng, 2, 2)
            t = PyTuple(*comps)
        lhs = RPolyUV.zero()
        for p in t.components()[:5]:
            lhs = lhs + p * p
        identity = lhs == t.x6 * t.x6
        matrix_route = is_degenerate(tuple_to_matrix(t))
        if identity is not matrix_route:
            failures.append((k, identity, matrix_route))
        hits += identity
        misses += not identity
    if hits < 100 or misses < 100:
        failures.append(("unbalanced corpus", hits, misses))
    report(capsys, 3, "identity vs matrix on 500 tuples", failures, f"({hits} true / {misses} false)")


def test_criterion_4_degree_bound(capsys):
    rng = random.Random(104)
    failures = []
    for k in range(200):
        a = rand_qpolyuv(rng, 1, 1)
        b = rand_qpolyuv(rng, 1, 1)
        t = tuple_from_pair(a, b)
        for p in t.components():
            if p.deg_u > 2 or p.deg_v > 2:
                failures.append((k, p.deg_u, p.deg_v))
    report(capsys, 4, "degree <= 2 per variable, 200 pairs", failures)


def test_criterion_5_translate_curves_are_circles(capsys):
    rng = random.Random(105)
    failures = []
    for k in range(20):
        spec = SurfaceSpec.family_e(rand_circle3(rng), rand_circle3(rng))
        grid = sample_grid(spec, 9)
        for n, curve in enumerate(grid_curves(grid)):
            if len(curve) != 9 or not is_circle_or_line(curve):
                failures.append((k, n))
    report(capsys, 5, "family e grid curves, 20 surfaces", failures)


def test_criterion_6_clifford_curves_project_to_circles(capsys):
    rng = random.Random(106)
    failures = []
    params = [Fraction(2 * k - 8, 2) for k in range(9)]
    skipped = 0
    for k in range(20):
        alpha, beta = rand_circle_s3(rng), rand_circle_s3(rng)
        spec = SurfaceSpec.family_c(alpha, beta)
        for u0 in params[:3]:
            for v0 in params[:3]:
                if sum(c * c for c in eval_c(alpha, beta, u0, v0)) != 1:
                    failures.append((k, "norm", u0, v0))
        grid = sample_grid(spec, 9)
        for n, curve in enumerate(grid_curves(grid)):
            if len(curve) < 5:
                skipped += 1
            elif not is_circle_or_line(curve):
                failures.append((k, n))
    report(capsys, 6, "family c projected curves, 20 surfaces", failures, f"({skipped} curves skipped)")


def test_criterion_7_torus_cyclide(capsys):
    failures = []
    quartic = cyclide_implicit(TORUS_QUADRIC)

    if set(quartic) != set(TORUS_QUARTIC):
        failures.append("support mismatch")
    else:
        scale = quartic[(4, 0, 0, 0)] / TORUS_QUARTIC[(4, 0, 0, 0)]
        if not scale or any(quartic[k] != scale * c for k, c in TORUS_QUARTIC.items()):
            failures.append("not proportional to the reference quartic")

    rng = random.Random(107)
    for k in range(200):
        s, t = rand_fraction(rng, 9, 7), rand_fraction(rng, 9, 7)
        cs, ss = (1 - s * s) / (1 + s * s), 2 * s / (1 + s * s)
        ct, st = (1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)
        p = ((2 + ct) * cs, (2 + ct) * ss, st)
        if TORUS_QUADRIC.value(stereo_inv(p)) != 0 or quartic_value(quartic, p) != 0:
            failures.append(("point", k))

    # Villarceau circles: numerators of the rational parametrizations through
    # (0, 1, 0) with axis directions (+-sqrt(3), 0, 1).
    y_poly = q3poly(3, 0, -1)
    z_poly = q3poly(0, 2)
    w_poly = q3poly(1, 0, 1)
    for sign in (1, -1):
        x_poly = q3poly(0, Q3(0, 2 * sign))
        coords = {"x": x_poly, "y": y_poly, "z": z_poly, "w": w_poly}
        total = {}
        for (dx, dy, dz, dw), c in quartic.items():
            term = q3poly(c)
            for name, d in (("x", dx), ("y", dy), ("z", dz), ("w", dw)):
                term = q3poly_mul(term, q3poly_pow(coords[name], d))
            total = q3poly_add(total, term)
        if total:
            failures.append(("villarceau", sign, total))
    report(capsys, 7, "torus cyclide and villarceau circles", failures)


def test_criterion_8_sphere_map_is_exact(capsys):
    rng = random.Random(108)
    failures = []
    for k in range(100):
        t = tuple_from_pair(rand_nonzero_qpolyuv(rng, 1, 1), rand_qpolyuv(rng, 1, 1))
        for _ in range(25):
            for _ in range(50):
                u0, v0 = rand_fraction(rng, 8, 5), rand_fraction(rng, 8, 5)
                if t.x6.eval(u0, v0):
                    break
            else:
                failures.append((k, "no point off the base locus"))
                break
            point = tuple_to_sphere_map(t, u0, v0)
            if sum(c * c for c in point) != 1:
                failures.append((k, u0, v0))
    report(capsys, 8, "sphere map on 100 tuples x 25 points", failures)


def test_criterion_9_json_and_determinism(capsys, tmp_path):
    rng = random.Random(109)
    failures = []

    def check(obj, from_json, tag):
        doc = obj.to_json()
        again = from_json(doc)
        if again != obj or json.dumps(again.to_json(), sort_keys=True) != json.dumps(doc, sort_keys=True):
            failures.append((tag, doc))

    for _ in range(30):
        check(rand_quat(rng), Quaternion.from_json, "quat")
        check(rand_qpolyu(rng), QPolyUV.from_json, "qpolyu")
        check(rand_qpolyuv(rng), QPolyUV.from_json, "qpolyuv")
        check(rand_rpolyuv(rng), RPolyUV.from_json, "rpolyuv")
        v = rand_vec2(rng)
        check(v, Vec2.from_json, "vec2")
        check(Mat2(*(rand_qpolyuv(rng) for _ in range(4))), Mat2.from_json, "mat2")
        t = tuple_from_pair(rand_qpolyuv(rng, 1, 1), rand_qpolyuv(rng, 1, 1))
        check(t, PyTuple.from_json, "tuple")
        cert = split(kron(Vec2(rand_qpolyuv(rng, 2, 0), rand_qpolyuv(rng, 2, 0)), v))
        check(cert, SplitCertificate.from_json, "certificate")
    for _ in range(10):
        check(rand_circle3(rng), Circle3.from_json, "circle3")
        check(rand_circle_s3(rng), CircleS3.from_json, "circle_s3")
        check(SurfaceSpec.family_e(rand_circle3(rng), rand_circle3(rng)), SurfaceSpec.from_json, "spec_e")
        check(SurfaceSpec.family_c(rand_circle_s3(rng), rand_circle_s3(rng)), SurfaceSpec.from_json, "spec_c")
    check(TORUS_QUADRIC, Quadric4.from_json, "quadric")
    check(SurfaceSpec.family_d(TORUS_QUADRIC), SurfaceSpec.from_json, "spec_d")

    def write(name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    u, v_ = QPolyUV.var_u(), QPolyUV.var_v()
    one = QPolyUV.const(1)
    m = write("m.json", kron(Vec2(one, u), Vec2(one, v_)).to_json())
    t = write("t.json", tuple_from_pair(u, v_).to_json())
    a = write("a.json", (u + Quaternion(0, 1)).to_json())
    b = write("b.json", v_.to_json())
    e = write("e.json", SurfaceSpec.family_e(rand_circle3(rng), rand_circle3(rng)).to_json())
    c = write("c.json", SurfaceSpec.family_c(rand_circle_s3(rng), rand_circle_s3(rng)).to_json())
    d = write("d.json", SurfaceSpec.family_d(TORUS_QUADRIC).to_json())
    invocations = [
        ("split", "--in", m, "--normalize"),
        ("degenerate", "--in", m),
        ("verify-tuple", "--in", t),
        ("tuple-from-pair", "--a", a, "--b", b),
        ("gen-surface", "--family", "e", "--spec", e, "--grid", "5"),
        ("gen-surface", "--family", "e", "--spec", e, "--grid", "5", "--format", "obj", "--digits", "9"),
        ("gen-surface", "--family", "e", "--spec", e, "--grid", "4", "--format", "csv"),
        ("gen-surface", "--family", "d", "--spec", d),
        ("check-circles", "--family", "c", "--spec", c, "--samples", "9"),
    ]
    for argv in invocations:
        runs = []
        for _ in range(2):
            rc = main(list(argv))
            captured = capsys.readouterr()
            runs.append((rc, captured.out, captured.err))
        if runs[0] != runs[1] or runs[0][0] != 0:
            failures.append(("cli", argv[0], runs[0][0]))
    report(capsys, 9, "json round trips and cli determinism", failures)

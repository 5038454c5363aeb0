"""End-to-end runs of the command-line interface through ``main``."""

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quatsurf
from quatsurf import (
    CircleS3,
    Mat2,
    PyTuple,
    QPolyUV,
    RPolyUV,
    SplitCertificate,
    SurfaceSpec,
    Vec2,
    kron,
    tuple_from_pair,
    tuple_to_matrix,
)
from quatsurf import cli
from quatsurf.cli import main
from quatsurf.quat import I, Quaternion

from helpers import rand_circle3, rand_circle_s3, rand_qpolyuv, rand_rpolyuv, rand_vec2

import random

U = QPolyUV.var_u()
V = QPolyUV.var_v()


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def write_json(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.fixture
def e_spec_file(tmp_path):
    rng = random.Random(60)
    spec = SurfaceSpec.family_e(rand_circle3(rng), rand_circle3(rng))
    return write_json(tmp_path / "e.json", spec.to_json())


@pytest.fixture
def c_spec_file(tmp_path):
    rng = random.Random(61)
    spec = SurfaceSpec.family_c(rand_circle_s3(rng), rand_circle_s3(rng))
    return write_json(tmp_path / "c.json", spec.to_json())


def test_split_roundtrip(tmp_path, capsys):
    matrix = kron(Vec2(QPolyUV.const(1), U), Vec2(QPolyUV.const(1), V))
    path = write_json(tmp_path / "m.json", matrix.to_json())
    rc, out, err = run(capsys, "split", "--in", path)
    assert rc == 0 and err == ""
    cert = SplitCertificate.from_json(json.loads(out))
    assert kron(cert.x, cert.y) == matrix


def test_split_normalize_flag(tmp_path, capsys):
    matrix = kron(Vec2(QPolyUV.const(I), QPolyUV.zero()), Vec2(QPolyUV.const(1), QPolyUV.const(1)))
    path = write_json(tmp_path / "m.json", matrix.to_json())
    rc, out, _ = run(capsys, "split", "--in", path, "--normalize")
    assert rc == 0
    cert = SplitCertificate.from_json(json.loads(out))
    assert kron(cert.x, cert.y) == matrix
    first = next(e for e in (cert.x.e1, cert.x.e2) if not e.is_zero)
    assert first.lead_coeff() == Quaternion(1)


def test_split_rejects_nondegenerate(tmp_path, capsys):
    matrix = Mat2(QPolyUV.const(1), QPolyUV.zero(), QPolyUV.zero(), QPolyUV.const(1))
    path = write_json(tmp_path / "m.json", matrix.to_json())
    rc, out, err = run(capsys, "split", "--in", path)
    assert rc == 1 and out == ""
    diagnostic = json.loads(err)
    assert diagnostic["error"] == "NotDegenerate"


def test_degenerate_command(tmp_path, capsys):
    triple = PyTuple(*(RPolyUV.const(c) for c in (3, 4, 0, 0, 0, 5)))
    path = write_json(tmp_path / "m.json", tuple_to_matrix(triple).to_json())
    rc, out, _ = run(capsys, "degenerate", "--in", path)
    assert rc == 0
    assert json.loads(out) == {"degenerate": True}

    eye = Mat2(QPolyUV.const(1), QPolyUV.zero(), QPolyUV.zero(), QPolyUV.const(1))
    path = write_json(tmp_path / "eye.json", eye.to_json())
    rc, out, _ = run(capsys, "degenerate", "--in", path)
    assert rc == 0
    assert json.loads(out) == {"degenerate": False}


def test_verify_tuple_command(tmp_path, capsys):
    good = PyTuple(*(RPolyUV.const(c) for c in (3, 4, 0, 0, 0, 5)))
    path = write_json(tmp_path / "t.json", good.to_json())
    rc, out, _ = run(capsys, "verify-tuple", "--in", path)
    assert rc == 0
    assert json.loads(out) == {"matrix_degenerate": True, "pythagorean": True}

    bad = PyTuple(*(RPolyUV.const(c) for c in (1, 0, 0, 0, 0, 0)))
    path = write_json(tmp_path / "bad.json", bad.to_json())
    rc, out, _ = run(capsys, "verify-tuple", "--in", path)
    assert rc == 0
    assert json.loads(out) == {"matrix_degenerate": False, "pythagorean": False}


def test_tuple_from_pair_command(tmp_path, capsys):
    a, b = U + I, V
    pa = write_json(tmp_path / "a.json", a.to_json())
    pb = write_json(tmp_path / "b.json", b.to_json())
    rc, out, _ = run(capsys, "tuple-from-pair", "--a", pa, "--b", pb)
    assert rc == 0
    assert PyTuple.from_json(json.loads(out)) == tuple_from_pair(a, b)


def test_gen_surface_json_family_e(e_spec_file, capsys):
    rc, out, _ = run(capsys, "gen-surface", "--family", "e", "--spec", e_spec_file, "--grid", "3")
    assert rc == 0
    doc = json.loads(out)
    assert doc["family"] == "e"
    assert len(doc["grid"]) == 3 and all(len(row) == 3 for row in doc["grid"])
    assert all(len(cell) == 3 for row in doc["grid"] for cell in row)


def test_gen_surface_json_family_c_masks(tmp_path, capsys):
    great = CircleS3((0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0))
    spec = SurfaceSpec.family_c(great, great)
    path = write_json(tmp_path / "c.json", spec.to_json())
    rc, out, _ = run(capsys, "gen-surface", "--family", "c", "--spec", path, "--grid", "3")
    assert rc == 0
    grid = json.loads(out)["grid"]
    nulls = [(i, j) for i in range(3) for j in range(3) if grid[i][j] is None]
    assert nulls == [[0, 2], [1, 1], [2, 0]] or nulls == [(0, 2), (1, 1), (2, 0)]


def test_gen_surface_obj_and_csv(e_spec_file, tmp_path, capsys):
    obj_path = tmp_path / "out.obj"
    rc, out, _ = run(
        capsys,
        "gen-surface", "--family", "e", "--spec", e_spec_file,
        "--grid", "4", "--format", "obj", "--digits", "6", "--out", str(obj_path),
    )
    assert rc == 0 and out == ""
    body = obj_path.read_text(encoding="utf-8")
    assert body.count("v ") == 16
    assert body.count("f ") == 9

    rc, out, _ = run(
        capsys,
        "gen-surface", "--family", "e", "--spec", e_spec_file,
        "--grid", "4", "--format", "csv", "--digits", "6",
    )
    assert rc == 0
    lines = out.strip().split("\n")
    assert len(lines) == 16 and all(len(line.split(",")) == 3 for line in lines)


def test_gen_surface_family_d(tmp_path, capsys):
    from test_surfaces import TORUS_QUADRIC, TORUS_QUARTIC

    path = write_json(tmp_path / "d.json", SurfaceSpec.family_d(TORUS_QUADRIC).to_json())
    rc, out, _ = run(capsys, "gen-surface", "--family", "d", "--spec", path)
    assert rc == 0
    doc = json.loads(out)
    assert doc["family"] == "d"
    terms = {
        (t["x"], t["y"], t["z"], t["w"]): t["c"] for t in doc["quartic"]
    }
    assert terms == {k: str(v) for k, v in TORUS_QUARTIC.items()}

    rc, out, err = run(capsys, "gen-surface", "--family", "d", "--spec", path, "--format", "csv")
    assert rc == 1
    assert json.loads(err)["error"] == "UnsupportedFamily"


def test_gen_surface_family_mismatch(e_spec_file, capsys):
    rc, _, err = run(capsys, "gen-surface", "--family", "c", "--spec", e_spec_file)
    assert rc == 1
    assert json.loads(err)["error"] == "InvalidInput"


def test_check_circles_family_e(e_spec_file, capsys):
    rc, out, _ = run(capsys, "check-circles", "--family", "e", "--spec", e_spec_file)
    assert rc == 0
    doc = json.loads(out)
    assert doc["all_pass"] is True
    assert len(doc["curves"]) == 6
    assert all(entry["circle"] is True for entry in doc["curves"])
    assert {entry["which"] for entry in doc["curves"]} == {"u", "v"}


def test_check_circles_family_c(c_spec_file, capsys):
    rc, out, _ = run(capsys, "check-circles", "--family", "c", "--spec", c_spec_file, "--samples", "9")
    assert rc == 0
    doc = json.loads(out)
    assert doc["all_pass"] is True
    assert all(entry["circle"] in (True, None) for entry in doc["curves"])


def test_missing_file_is_clean_error(capsys):
    rc, out, err = run(capsys, "degenerate", "--in", "/nonexistent/m.json")
    assert rc == 1 and out == ""
    assert json.loads(err)["error"] == "OSError"


def test_malformed_json_is_clean_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    # Not JSON; not UTF-8; an integer literal over the interpreter's digit limit.
    for content in (b"{not json", b"\xff\xfe[", b"[" + b"1" * 5000 + b"]"):
        path.write_bytes(content)
        rc, _, err = run(capsys, "degenerate", "--in", str(path))
        assert rc == 1
        assert json.loads(err)["error"] == "InvalidInput"


CIRCLE_DOC = {"center": ["0", "0", "0"], "e1": ["1", "0", "0"], "e2": ["0", "1", "0"]}


def _monomial(du, c):
    return [{"u": du, "v": 0, "c": [c, "0", "0", "0"]}]


# Each output holds a number past the interpreter's 4300-digit int-to-str limit.
@pytest.mark.parametrize(
    "argv",
    [
        lambda tmp: [
            "tuple-from-pair",
            "--a", write_json(tmp / "a.json", _monomial(0, "1" * 2500)),
            "--b", write_json(tmp / "b.json", _monomial(1, "1")),
        ],
        lambda tmp: [
            "split",
            "--in", write_json(tmp / "m.json", [[_monomial(0, "1e-2500"), _monomial(0, "1e2000")]] * 2),
        ],
        lambda tmp: [
            "gen-surface", "--family", "e", "--format", "csv", "--digits", "5000", "--grid", "2",
            "--spec", write_json(tmp / "s.json", {"family": "e", "alpha": CIRCLE_DOC, "beta": CIRCLE_DOC}),
        ],
    ],
    ids=["tuple-from-pair", "split", "gen-surface"],
)
def test_numbers_too_long_to_print_are_clean_errors(tmp_path, capsys, argv):
    rc, out, err = run(capsys, *argv(tmp_path))
    assert rc == 1 and out == ""
    assert json.loads(err)["error"] == "InvalidInput"
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "family, doc",
    [
        ("e", {"family": "e", "alpha": dict(CIRCLE_DOC, center="000"), "beta": CIRCLE_DOC}),
        ("d", {"family": "d", "quadric": {"q": ["20000", "00000", "00000", "00000", "00000"]}}),
        ("e", {"family": "e", "alpha": dict(CIRCLE_DOC, center=5), "beta": CIRCLE_DOC}),
        ("d", {"family": "d", "quadric": {"q": [1, 2, 3, 4, 5]}}),
    ],
    ids=["string-vector", "string-rows", "integer-vector", "integer-rows"],
)
def test_malformed_surface_is_clean_error(tmp_path, capsys, family, doc):
    # A string must not be read one character at a time, nor a number raise TypeError.
    path = write_json(tmp_path / "s.json", doc)
    rc, out, err = run(capsys, "gen-surface", "--family", family, "--spec", path)
    assert rc == 1 and out == ""
    assert json.loads(err)["error"] == "InvalidInput"
    assert len(err.splitlines()) == 1


def test_exponent_literal_past_the_digit_limit_is_clean_error(tmp_path, capsys):
    # Fraction would expand "1e5000" to a 5001-digit integer and compute on it.
    doc = [[_monomial(0, "1e5000"), _monomial(0, "1")], [_monomial(0, "1"), _monomial(0, "1")]]
    rc, out, err = run(capsys, "degenerate", "--in", write_json(tmp_path / "m.json", doc))
    assert rc == 1 and out == ""
    assert json.loads(err)["error"] == "InvalidInput"
    assert len(err.splitlines()) == 1


def test_wrong_shape_is_clean_error(tmp_path, capsys):
    path = write_json(tmp_path / "t.json", {"tuple": []})
    rc, _, err = run(capsys, "verify-tuple", "--in", str(path))
    assert rc == 1
    assert json.loads(err)["error"] == "InvalidInput"


def assert_usage_error(result):
    """Exit 2, nothing on stdout, one JSON line on stderr."""
    rc, out, err = result
    assert rc == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == "UsageError"


def test_usage_errors_exit_2(capsys):
    assert_usage_error(run(capsys, "split"))
    assert_usage_error(run(capsys, "no-such-command"))
    assert_usage_error(run(capsys))
    assert_usage_error(run(capsys, "gen-surface", "--family", "q", "--spec", "x"))
    assert_usage_error(run(capsys, "split", "--in", "m.json", "--no-such-flag"))


_NAMES = ("split", "degenerate", "verify-tuple", "tuple-from-pair", "gen-surface", "check-circles")


def test_help_is_not_a_usage_error(capsys):
    rc, out, err = run(capsys, "--help")
    assert rc == 0 and out.startswith("usage: quatsurf") and err == ""
    assert set(_NAMES) <= set(out.split())
    for name in _NAMES:
        rc, out, err = run(capsys, name, "--help")
        assert rc == 0 and out.startswith(f"usage: quatsurf {name} ") and err == ""


def test_negative_digits_is_usage_error(e_spec_file, capsys):
    assert_usage_error(run(
        capsys, "gen-surface", "--family", "e", "--spec", e_spec_file,
        "--format", "csv", "--digits", "-2",
    ))


def test_too_few_samples_is_usage_error(e_spec_file, capsys):
    # Below five samples no curve can be checked, so no report may claim success.
    assert_usage_error(run(
        capsys, "check-circles", "--family", "e", "--spec", e_spec_file,
        "--samples", "3", "--curves", "1",
    ))
    rc, out, _ = run(capsys, "check-circles", "--family", "e", "--spec", e_spec_file, "--samples", "5")
    assert rc == 0 and json.loads(out)["all_pass"] is True


@pytest.mark.parametrize(
    "argv",
    [("gen-surface", "--family", "e", "--grid", "1"), ("check-circles", "--family", "e", "--curves", "0")],
    ids=["grid", "curves"],
)
def test_grid_and_curve_counts_are_usage_errors(e_spec_file, capsys, argv):
    assert_usage_error(run(capsys, *argv, "--spec", e_spec_file))


def test_deeply_nested_json_is_clean_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000, encoding="utf-8")
    rc, out, err = run(capsys, "degenerate", "--in", str(path))
    assert rc == 1 and out == ""
    assert json.loads(err)["error"] == "InvalidInput"
    assert len(err.splitlines()) == 1


def test_boolean_exponent_is_clean_error(tmp_path, capsys):
    term = {"u": True, "v": 0, "c": ["1", "0", "0", "0"]}
    a = write_json(tmp_path / "a.json", [term])
    b = write_json(tmp_path / "b.json", QPolyUV.one().to_json())
    rc, out, err = run(capsys, "tuple-from-pair", "--a", a, "--b", b)
    assert rc == 1 and out == ""
    assert json.loads(err)["error"] == "InvalidInput"
    doc = PyTuple(*(RPolyUV.const(c) for c in (3, 4, 0, 0, 0, 5))).to_json()
    doc[0] = [{"u": 0, "v": True, "c": "3"}]
    path = write_json(tmp_path / "t.json", doc)
    rc, out, err = run(capsys, "verify-tuple", "--in", path)
    assert rc == 1 and out == ""
    assert json.loads(err)["error"] == "InvalidInput"


def test_outputs_are_deterministic(e_spec_file, c_spec_file, capsys):
    invocations = [
        ("gen-surface", "--family", "e", "--spec", e_spec_file, "--grid", "5"),
        ("gen-surface", "--family", "e", "--spec", e_spec_file, "--grid", "5", "--format", "obj"),
        ("check-circles", "--family", "c", "--spec", c_spec_file),
    ]
    for argv in invocations:
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second
        assert first[0] == 0


def test_module_entry_point(tmp_path):
    eye = Mat2(QPolyUV.const(1), QPolyUV.zero(), QPolyUV.zero(), QPolyUV.const(1))
    path = write_json(tmp_path / "eye.json", eye.to_json())
    proc = subprocess.run(
        [sys.executable, "-m", "quatsurf.cli", "degenerate", "--in", path],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"degenerate": False}
    proc = subprocess.run([sys.executable, "-m", "quatsurf.cli", "split"], capture_output=True, text=True)
    assert proc.returncode == 2 and proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert json.loads(proc.stderr)["error"] == "UsageError"


def _readme_split_example() -> tuple[list, dict]:
    """The README's ``((1, v), (u, uv))`` matrix and the certificate it says ``split`` answers."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    after = readme.split("the rank-one matrix\n`((1, v), (u, uv))` is", 1)[1]
    matrix, certificate = (block.split("```", 1)[0] for block in after.split("```json\n")[1:3])
    return json.loads(matrix), json.loads(certificate)


def test_readme_split_example_is_what_the_cli_prints(tmp_path):
    # Raw split output may change between versions; the documented example
    # must still be exactly what a fresh process prints for it.
    matrix, certificate = _readme_split_example()
    path = write_json(tmp_path / "m.json", matrix)
    src = os.path.dirname(os.path.dirname(quatsurf.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "quatsurf.cli", "split", "--in", path],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout == json.dumps(certificate, sort_keys=True, indent=2) + "\n"


def test_fresh_import_loads_no_heavy_stdlib_modules():
    # -S keeps site hooks, which may preload modules of their own, out of the check.
    src = os.path.dirname(os.path.dirname(quatsurf.__file__))
    heavy = ("dataclasses", "inspect", "typing", "ast", "dis", "tokenize")
    proc = subprocess.run(
        [sys.executable, "-S", "-c", f"import quatsurf.cli, sys; print([m for m in {heavy!r} if m in sys.modules])"],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout.strip() == "[]"


# Arbitrary small JSON documents for every subcommand: a valid document of
# the kind the subcommand reads, in one run of three with one node (the
# root included) swapped for a random tree.  Integers stay small, because
# degree and term-count limits are still open.
_TREES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3) | st.just(0.5)
    | st.sampled_from(["0", "1", "-1/2", "1/0", "x", "", "000", "e", "c", "d"]),
    lambda children: st.lists(children, max_size=6) | st.dictionaries(
        st.sampled_from(["u", "v", "c", "x", "y", "family", "alpha", "beta", "quadric", "q", "center", "e1", "e2"]),
        children,
        max_size=4,
    ),
    max_leaves=20,
)


def _seeded(build):
    return st.integers(0, 2**16).map(lambda seed: build(random.Random(seed)))


def _quadric_doc(rng):
    q = [[rng.randint(-2, 2) for _ in range(5)] for _ in range(5)]
    return {"family": "d", "quadric": {"q": [[str(q[min(i, j)][max(i, j)]) for j in range(5)] for i in range(5)]}}


_MATRICES = _seeded(lambda r: kron(rand_vec2(r, max_dv=0), rand_vec2(r)).to_json()) | _seeded(
    lambda r: Mat2(*(rand_qpolyuv(r) for _ in range(4))).to_json()
)
_TUPLES = _seeded(lambda r: tuple_from_pair(rand_qpolyuv(r), rand_qpolyuv(r)).to_json()) | _seeded(
    lambda r: [rand_rpolyuv(r).to_json() for _ in range(6)]
)
_E_SURFACES = _seeded(lambda r: SurfaceSpec.family_e(rand_circle3(r), rand_circle3(r)).to_json())
_C_SURFACES = _seeded(lambda r: SurfaceSpec.family_c(rand_circle_s3(r), rand_circle_s3(r)).to_json())
_COMMANDS = [
    (("split", "--in", "{}"), _MATRICES),
    (("split", "--in", "{}", "--normalize"), _MATRICES),
    (("degenerate", "--in", "{}"), _MATRICES),
    (("verify-tuple", "--in", "{}"), _TUPLES),
    (("tuple-from-pair", "--a", "{}", "--b", "{}"), _seeded(lambda r: rand_qpolyuv(r).to_json())),
    (("gen-surface", "--family", "e", "--spec", "{}", "--grid", "3"), _E_SURFACES),
    (("gen-surface", "--family", "c", "--spec", "{}", "--grid", "3", "--format", "obj"), _C_SURFACES),
    (("gen-surface", "--family", "d", "--spec", "{}"), _seeded(_quadric_doc)),
    (("check-circles", "--family", "e", "--spec", "{}", "--curves", "1"), _E_SURFACES),
    (("check-circles", "--family", "c", "--spec", "{}", "--curves", "1"), _C_SURFACES),
]


def _slots(node):
    """Every (container, key) position inside a JSON tree."""
    children = enumerate(node) if isinstance(node, list) else node.items() if isinstance(node, dict) else ()
    for key, child in list(children):
        yield node, key
        yield from _slots(child)


# At least 300 examples, more under a deeper hypothesis profile.
@settings(max_examples=max(300, settings.default.max_examples))
@given(st.data())
def test_any_json_document_ends_cleanly(data):
    argv, documents = data.draw(st.sampled_from(_COMMANDS))
    holder = [data.draw(documents)]
    if data.draw(st.integers(0, 2)) == 0:
        container, key = data.draw(st.sampled_from(list(_slots(holder))))
        container[key] = data.draw(_TREES)
    doc = holder[0]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main([path if arg == "{}" else arg for arg in argv])
    assert rc in (0, 1, 2)
    if rc == 1:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and "error" in json.loads(lines[0])


def _subparsers(parser):
    """The subcommand name -> parser map that ``parser`` registered."""
    (action,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


class _UsageMessage(Exception):
    pass


def test_one_subcommand_parses_as_the_full_tree(monkeypatch):
    # Only the full tree ever prints the top-level help and the list of
    # choices; a one-subcommand parser fed the rest of argv must match the
    # full tree fed all of it everywhere else.
    def error(self, message):
        raise _UsageMessage(message)

    monkeypatch.setattr(cli._Parser, "error", error)
    full = cli.build_parser()
    assert tuple(_subparsers(full)) == _NAMES
    for name in _NAMES:
        assert cli._command_parser(name).format_help() == _subparsers(full)[name].format_help()
    for argv, _ in _COMMANDS:
        argv = ["doc.json" if arg == "{}" else arg for arg in argv]
        one = cli._command_parser(argv[0])
        parsed = vars(full.parse_args(argv))
        assert parsed.pop("command") == argv[0]
        assert vars(one.parse_args(argv[1:])) == parsed
        # A missing first flag (--in for the matrix and tuple commands), an
        # unknown flag, a grid below its floor or a flag the command lacks,
        # an argument after "--", and a stray positional.
        bads = (
            argv[:1] + argv[3:],
            argv + ["--no-such-flag"],
            argv + ["--grid", "1"],
            argv + ["--", "x"],
            argv[:1] + ["stray"] + argv[1:],
        )
        for bad in bads:
            messages = []
            for parser, args in ((one, bad[1:]), (full, bad)):
                with pytest.raises(_UsageMessage) as caught:
                    parser.parse_args(args)
                messages.append(str(caught.value))
            assert messages[0] == messages[1]


def test_main_builds_only_the_subcommand_it_runs(monkeypatch, tmp_path, capsys):
    built = []

    def spy(builder):
        def build(*args):
            built.append(builder.__name__)
            return builder(*args)

        return build

    monkeypatch.setattr(cli, "build_parser", spy(cli.build_parser))
    monkeypatch.setattr(cli, "_command_parser", spy(cli._command_parser))
    eye = Mat2(QPolyUV.const(1), QPolyUV.zero(), QPolyUV.zero(), QPolyUV.const(1))
    path = write_json(tmp_path / "eye.json", eye.to_json())
    rc, out, err = run(capsys, "split", "--in", path)
    assert rc == 1 and json.loads(err)["error"] == "NotDegenerate"
    assert built == ["_command_parser"]
    for name in _NAMES:
        built.clear()
        assert run(capsys, name, "--no-such-flag")[0] == 2
        assert built == ["_command_parser"]
    for argv in ((), ("--help",), ("--", "split"), ("bogus",)):
        built.clear()
        assert run(capsys, *argv)[0] in (0, 2)
        assert built == ["build_parser"]
    # argv from sys.argv, a tuple and a generator all reach the same parser.
    monkeypatch.setattr(sys, "argv", ["quatsurf", "degenerate", "--in", path])
    argvs = (None, ("degenerate", "--in", path), (arg for arg in ("degenerate", "--in", path)))
    for argv in argvs:
        built.clear()
        rc = main() if argv is None else main(argv)
        assert rc == 0 and json.loads(capsys.readouterr().out) == {"degenerate": False}
        assert built == ["_command_parser"]


# Every kind of value cli._dump writes itself, nested: ints past 64 bits of
# either sign, and text with quotes, backslashes, control characters and
# characters outside ASCII and outside the basic plane.
_TEXT = st.text(st.sampled_from('"\\/\x00\x1f\x7f\n\t\u2028é€\U0001f600') | st.characters())
_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(min_value=2**64) | st.integers(max_value=-(2**64)) | _TEXT,
    lambda children: st.lists(children) | st.lists(children).map(tuple) | st.dictionaries(_TEXT, children),
    max_leaves=30,
)


@given(_VALUES)
def test_dump_writes_what_json_dumps_writes(value):
    assert cli._dump(value) == json.dumps(value, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize(
    "value",
    [0.1, -0.0, 1e300, float("nan"), [1.5, {"x": [2.5e-8]}], {"a": {1: [True], 2.5: None}}, [{3: "x", 1: []}]],
)
def test_dump_hands_other_values_to_json(value):
    assert cli._dump(value) == json.dumps(value, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("value", [Fraction(1, 2), [{"a": Fraction(1, 2)}], {"a": 1, 2: "b"}])
def test_dump_raises_the_type_error_json_raises(value):
    with pytest.raises(TypeError) as expected:
        json.dumps(value, sort_keys=True, indent=2)
    with pytest.raises(TypeError) as caught:
        cli._dump(value)
    assert str(caught.value) == str(expected.value)

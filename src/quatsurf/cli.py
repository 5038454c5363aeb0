"""Command-line front end for batch runs over exact quaternion geometry.

Subcommands:

* ``split``: factor a degenerate matrix file into a certificate.
* ``degenerate``: decide degeneracy of a matrix file.
* ``verify-tuple``: check a 6-tuple file both ways (identity and matrix).
* ``tuple-from-pair``: build a 6-tuple from two polynomial files.
* ``gen-surface``: sample a surface to OBJ/CSV/JSON.
* ``check-circles``: test sampled coordinate curves for circularity.

All exact data travels as JSON with rationals rendered as "p/q" strings; the
mesh exports are the one place decimals appear, with the digit count under a
flag.  Outputs are deterministic for fixed inputs: nothing is timestamped and
nothing is random.  Exit codes: 0 on success, 1 on a domain error and 2 on
a usage error, each with a one-line JSON diagnostic on standard error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import InvalidInput, QuatsurfError, TooFewPoints
from .pythagorean import PyTuple, is_pythagorean, tuple_from_pair, tuple_to_matrix
from .qmat import Mat2, is_degenerate
from .qpoly import QPolyUV
from .quat import rational_to_str
from .split import split, split_normalize
from .surfaces import (
    SurfaceSpec,
    _cell_grid,
    _grid_csv,
    _grid_json,
    _grid_obj,
    coordinate_curve,
    cyclide_implicit,
    grid_params,
    is_circle_or_line,
    quartic_to_json,
)


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except ValueError as exc:
        # JSONDecodeError, UnicodeDecodeError and integer literals over the
        # interpreter's digit limit are all ValueErrors.
        raise InvalidInput(f"{path}: invalid JSON ({exc})") from exc
    except RecursionError:
        raise InvalidInput(f"{path}: JSON nested too deeply") from None


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _emit(payload: str, out_path: str | None) -> None:
    if out_path is None or out_path == "-":
        sys.stdout.write(payload)
        return
    with open(out_path, "w", encoding="utf-8") as handle:
        handle.write(payload)


def _diagnostic(error: str, message: str) -> str:
    return json.dumps({"error": error, "message": message}, sort_keys=True) + "\n"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """A usage error: exit 2 with a one-line JSON diagnostic on standard error."""
        self.exit(2, _diagnostic("UsageError", message))


def _int_at_least(lo: int):
    """An argparse type for integers no smaller than ``lo``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be at least {lo}, got {value}")
        return value

    return parse


def _cmd_split(args) -> int:
    """Factor the input matrix; fails cleanly when it is not degenerate."""
    matrix = Mat2.from_json(_load_json(args.infile))
    certificate = split(matrix)
    if args.normalize:
        certificate = split_normalize(certificate)
    _emit(_dump(certificate.to_json()), args.out)
    return 0


def _cmd_degenerate(args) -> int:
    matrix = Mat2.from_json(_load_json(args.infile))
    _emit(_dump({"degenerate": is_degenerate(matrix)}), args.out)
    return 0


def _cmd_verify_tuple(args) -> int:
    """Report the Hermitian matrix's degeneracy and the sum-of-squares identity, each by its own route."""
    t = PyTuple.from_json(_load_json(args.infile))
    degenerate = is_degenerate(tuple_to_matrix(t))
    _emit(_dump({"matrix_degenerate": degenerate, "pythagorean": is_pythagorean(t)}), args.out)
    return 0


def _cmd_tuple_from_pair(args) -> int:
    a = QPolyUV.from_json(_load_json(args.a))
    b = QPolyUV.from_json(_load_json(args.b))
    _emit(_dump(tuple_from_pair(a, b).to_json()), args.out)
    return 0


def _require_family(spec: SurfaceSpec, wanted: str) -> None:
    if spec.family != wanted:
        raise InvalidInput(
            f"surface file describes family {spec.family!r}, not {wanted!r}"
        )


def _cmd_gen_surface(args) -> int:
    """Export a surface: a point grid for e/c, the implicit quartic for d.

    JSON output keeps everything rational; OBJ and CSV render decimals and
    need a parametrized family, so requesting them for family d is an error.
    """
    spec = SurfaceSpec.from_json(_load_json(args.spec))
    _require_family(spec, args.family)
    if args.format == "json":
        if spec.family == "d":
            body = {"family": "d", "quartic": quartic_to_json(cyclide_implicit(spec.quadric))}
        else:
            body = {"family": spec.family, "grid": _grid_json(_cell_grid(spec, args.grid))}
        _emit(_dump(body), args.out)
        return 0
    render = _grid_obj if args.format == "obj" else _grid_csv
    _emit(render(_cell_grid(spec, args.grid), args.digits), args.out)
    return 0


def _cmd_check_circles(args) -> int:
    """Sample coordinate curves in both directions and test each for circularity.

    A curve thinned below five points by pole masking is reported as null
    rather than failed; ``all_pass`` means no curve came back false.
    """
    spec = SurfaceSpec.from_json(_load_json(args.spec))
    _require_family(spec, args.family)
    fixed_values = grid_params(args.curves)
    samples = grid_params(args.samples)
    report = []
    for which in ("u", "v"):
        for fixed in fixed_values:
            points = coordinate_curve(spec, which, fixed, samples, mask_poles=True)
            try:
                verdict = is_circle_or_line(points)
            except TooFewPoints:
                verdict = None
            report.append(
                {"which": which, "fixed": rational_to_str(fixed), "circle": verdict}
            )
    body = {
        "curves": report,
        "all_pass": all(entry["circle"] is not False for entry in report),
    }
    _emit(_dump(body), args.out)
    return 0


def _add_out(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default=None, metavar="FILE", help="output file (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="quatsurf",
        description="exact quaternion polynomial factorization and circle-woven surfaces",
    )
    commands = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = commands.add_parser("split", help="factor a degenerate matrix into a rank-one certificate")
    p.add_argument("--in", dest="infile", required=True, metavar="M.json", help="2x2 matrix file")
    p.add_argument(
        "--normalize",
        action="store_true",
        help="output the normalized certificate, the stable form; without it the output is a verified "
        "certificate whose form may change between versions",
    )
    _add_out(p)
    p.set_defaults(func=_cmd_split)

    p = commands.add_parser("degenerate", help="decide whether a matrix is degenerate")
    p.add_argument("--in", dest="infile", required=True, metavar="M.json", help="2x2 matrix file")
    _add_out(p)
    p.set_defaults(func=_cmd_degenerate)

    p = commands.add_parser("verify-tuple", help="check a 6-tuple by identity and by matrix")
    p.add_argument("--in", dest="infile", required=True, metavar="T.json", help="6-tuple file")
    _add_out(p)
    p.set_defaults(func=_cmd_verify_tuple)

    p = commands.add_parser("tuple-from-pair", help="build a 6-tuple from two polynomials")
    p.add_argument("--a", required=True, metavar="A.json", help="first polynomial file")
    p.add_argument("--b", required=True, metavar="B.json", help="second polynomial file")
    _add_out(p)
    p.set_defaults(func=_cmd_tuple_from_pair)

    p = commands.add_parser("gen-surface", help="sample a surface to OBJ, CSV or JSON")
    p.add_argument("--family", required=True, choices=("e", "c", "d"))
    p.add_argument("--spec", required=True, metavar="S.json", help="surface file")
    p.add_argument(
        "--grid", type=_int_at_least(2), default=9, metavar="N",
        help="grid size per axis, at least 2 (default 9)",
    )
    p.add_argument("--format", choices=("obj", "csv", "json"), default="json")
    p.add_argument("--digits", type=_int_at_least(0), default=12, help="decimal digits for obj/csv (default 12)")
    _add_out(p)
    p.set_defaults(func=_cmd_gen_surface)

    p = commands.add_parser("check-circles", help="test sampled coordinate curves for circularity")
    p.add_argument("--family", required=True, choices=("e", "c"))
    p.add_argument("--spec", required=True, metavar="S.json", help="surface file")
    p.add_argument(
        "--curves", type=_int_at_least(1), default=3, metavar="K",
        help="curves per direction, at least 1 (default 3)",
    )
    p.add_argument(
        "--samples", type=_int_at_least(5), default=7, metavar="P",
        help="samples per curve, at least 5 (default 7)",
    )
    _add_out(p)
    p.set_defaults(func=_cmd_check_circles)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (QuatsurfError, ZeroDivisionError) as exc:
        sys.stderr.write(_diagnostic(type(exc).__name__, str(exc) or "division by zero"))
        return 1
    except OSError as exc:
        sys.stderr.write(_diagnostic("OSError", str(exc)))
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

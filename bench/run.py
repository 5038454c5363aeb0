#!/usr/bin/env python3
"""quatsurf benchmark: one seeded workload, timed end to end or traced by layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload factor --seed 1 --seconds 30 --trace 0

Workloads (see bench/README.md for why each exists):

* ``factor``  split + split_normalize on rank-one matrices kron(x, y)
* ``decide``  is_degenerate, is_pythagorean and tuple_from_pair
* ``weave``   coordinate_curve + is_circle_or_line on family e and c curves
* ``cli``     quatsurf.cli.main(argv) in process over JSON files on disk

Each workload is a closed loop with one caller in one thread.  Every answer
is checked against a reference known from how the input was built (for
``cli``: committed sha256 of stdout and exit code, bench/cli_refs.json).
With ``--trace 0`` the run measures for ``--seconds`` seconds with tracing
off and reports the end-to-end metrics, with times put on a reference host
by a calibration loop run between operations (see ``HostClock``; the raw
wall times are printed too).  With ``--trace 1`` it runs a fixed
number of operations, each once untraced and once traced, and reports the
per-layer metrics.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record goes
to ``.bench_out/`` at the checkout root.  The program is imported from
``src/`` of the checkout and nowhere else.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from fractions import Fraction
from itertools import islice
from pathlib import Path
from time import perf_counter

import corpus
import oracle as O

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORK = ROOT / ".bench_work"
CLI_REFS = BENCH / "cli_refs.json"

WORKLOADS = ("factor", "decide", "weave", "cli")

END_TO_END = [
    ("ops_per_s", "op/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
]

#: Fresh interpreters timed for ``setup_s``, after one untimed warm start.
#: They are spread over the run, because host speed shifts within seconds.
SETUP_REPEATS = 15

#: Rough untraced milliseconds per operation on a 2-vCPU host with CPython
#: 3.11, used only to size the traced run: each of its operations runs twice,
#: and its operation count must not depend on timing, so counts repeat exactly.
NOMINAL_MS = {"factor": 60.0, "decide": 4.0, "weave": 100.0, "cli": 32.0}

#: Operations the seed code is documented to answer wrongly (corpus.COPLANAR_DEFECT)
#: are kept out of the measured loop, which counts only cases the program must
#: get right.  The first this many of a seed's stream run apart, after the
#: loop, as a probe that records how many the program still gets wrong.
DEFECT_PROBE_SIZE = 16

#: End-to-end times are given on a reference host, one on which the
#: calibration loop takes exactly this long.
REF_CALIB_S = 1e-3

#: Longest gap between calibration samples.  On a shared machine host speed
#: switches between states within a second and drifts over minutes; a sample
#: every 50 ms keeps one next to every operation for about 2% of the run.
CALIB_EVERY_S = 0.05


# region program under test


def import_program():
    """Import quatsurf from ``src/`` of this checkout, or exit 2 without a result."""
    if not (SRC / "quatsurf" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no program at {SRC / 'quatsurf'}; run from a full checkout\n")
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import quatsurf
    import quatsurf.cli

    if Path(quatsurf.__file__).resolve().parent != (SRC / "quatsurf").resolve():
        sys.stderr.write(f"bench: quatsurf resolved to {quatsurf.__file__}, not this checkout\n")
        raise SystemExit(2)
    return quatsurf


def to_qpoly(Q, p: dict):
    return Q.QPolyUV({k: Q.Quaternion(*c) for k, c in p.items()})


def from_qpoly(p) -> dict:
    return {k: q.components() for k, q in p.terms.items()}


def to_mat(Q, m: list):
    return Q.Mat2(*(to_qpoly(Q, e) for e in m))


def to_tuple(Q, t: list):
    return Q.PyTuple(*(Q.RPolyUV(p) for p in t))


def to_spec(Q, op: dict):
    circle = Q.Circle3 if op["family"] == "e" else Q.CircleS3
    alpha, beta = (circle(c["center"], c["e1"], c["e2"]) for c in (op["alpha"], op["beta"]))
    return Q.SurfaceSpec(op["family"], alpha=alpha, beta=beta)


# endregion

# region operations


class Outcome:
    """What one operation did: program time, and whether its answer matched."""

    __slots__ = ("seconds", "ok", "detail", "known_defect", "stdout_bytes")

    def __init__(self):
        self.seconds = 0.0
        self.ok = True
        self.detail = ""
        self.known_defect = None
        self.stdout_bytes = 0

    def call(self, fn, *args, **kwargs):
        """Time one call into the program; return (result, exception)."""
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # any failure is recorded, never fatal to the run
            self.seconds += perf_counter() - start
            return None, exc
        self.seconds += perf_counter() - start
        return result, None

    def fail(self, detail: str, known_defect: str | None = None) -> "Outcome":
        self.ok = False
        self.detail = detail
        self.known_defect = known_defect
        return self


def _unexpected(exc) -> str:
    return f"raised {type(exc).__name__}: {exc}"


def run_factor(Q, op, prepared) -> Outcome:
    out = Outcome()
    cert, exc = out.call(lambda m: Q.split_normalize(Q.split(m)), prepared)
    if exc is not None:
        return out.fail(_unexpected(exc))
    x = [from_qpoly(cert.x.e1), from_qpoly(cert.x.e2)]
    y = [from_qpoly(cert.y.e1), from_qpoly(cert.y.e2)]
    if corpus.kron(x, y) != op["m"]:
        return out.fail("kron(cert.x, cert.y) != m")
    first = x[0] or x[1]
    if not first or O.lead_coeff(first) != O.Q_ONE:
        return out.fail("certificate is not normalized")
    return out


def run_decide(Q, op, prepared) -> Outcome:
    out = Outcome()
    kind = op["kind"]
    if kind == "tuple_from_pair":
        t, exc = out.call(Q.tuple_from_pair, *prepared)
        if exc is not None:
            return out.fail(_unexpected(exc))
        if [dict(p.terms) for p in t.components()] != op["expect"]:
            return out.fail("tuple differs from the pair's construction")
        return out
    fn = Q.is_degenerate if kind in ("degenerate", "full_rank") else Q.is_pythagorean
    verdict, exc = out.call(fn, prepared)
    if exc is not None:
        return out.fail(_unexpected(exc))
    if verdict is not op["expect"]:
        return out.fail(f"{kind}: answered {verdict!r}, expected {op['expect']!r}")
    return out


def run_weave(Q, op, prepared) -> Outcome:
    out = Outcome()
    points, exc = out.call(Q.coordinate_curve, prepared, op["which"], op["fixed"], op["samples"], mask_poles=True)
    if exc is not None:
        return out.fail(_unexpected(exc))
    if [tuple(p) for p in points] != op["points"]:
        return out.fail("coordinate_curve points differ from the circles' parametrization")
    perturb = op["perturb"]
    if perturb is not None:
        points = list(points)
        points[perturb["index"]] = perturb["point"]
    verdict, exc = out.call(Q.is_circle_or_line, points)
    expect = op["expect"]
    if expect == "TooFewPoints":
        if not isinstance(exc, Q.TooFewPoints):
            return out.fail(f"expected TooFewPoints, got {verdict!r}" if exc is None else _unexpected(exc))
        return out
    if exc is not None:
        return out.fail(_unexpected(exc))
    if verdict is not expect:
        label = perturb["kind"] if perturb else "circle"
        # Only the documented wrong answer is excused: a non-circle accepted.
        excused = op["defect"] if verdict is True and expect is False else None
        return out.fail(f"{op['kind']} {label}: answered {verdict!r}, expected {expect!r}", excused)
    return out


class CliRunner:
    """Writes each pool entry's files to its own directory and runs main(argv) in process."""

    def __init__(self, workdir: Path, refs: list | None):
        self.main_module = sys.modules["quatsurf.cli"]
        self.workdir = workdir
        self.refs = refs

    def prepare(self, op) -> list[str]:
        folder = self.workdir / f"op{op['index']}"
        folder.mkdir(parents=True, exist_ok=True)
        paths = {}
        for name, doc in op["files"].items():
            path = folder / name
            path.write_text(json.dumps(doc), encoding="utf-8")
            paths["{" + name + "}"] = str(path)
        return [paths.get(arg, arg) for arg in op["argv"]]

    def invoke(self, out: Outcome, argv: list[str]):
        """Run main(argv) with stdout and stderr captured; return (exit code, stdout, exception)."""
        stdout, stderr = io.StringIO(), io.StringIO()

        def main():
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                return self.main_module.main(argv)

        rc, exc = out.call(main)
        return rc, stdout.getvalue(), exc

    def run(self, op, argv) -> Outcome:
        out = Outcome()
        rc, text, exc = self.invoke(out, argv)
        data = text.encode("utf-8")
        out.stdout_bytes = len(data)
        if exc is not None:
            return out.fail(_unexpected(exc))
        digest, want_sha, want_rc = self.refs[op["index"]]
        if digest != corpus.cli_entry_digest(op):
            return out.fail(f"pool entry {op['index']} no longer matches its reference input")
        if rc != want_rc or hashlib.sha256(data).hexdigest() != want_sha:
            return out.fail(f"{op['kind']}: exit {rc} or stdout differs from the reference")
        return out

    def cleanup(self, op) -> None:
        shutil.rmtree(self.workdir / f"op{op['index']}", ignore_errors=True)


def load_cli_refs() -> list:
    with open(CLI_REFS, encoding="utf-8") as handle:
        doc = json.load(handle)
    if doc["pool_seed"] != corpus.CLI_POOL_SEED:
        raise SystemExit("bench: cli_refs.json was made for another pool seed")
    if len(doc["refs"]) != corpus.CLI_POOL_SIZE:
        raise SystemExit(f"bench: cli_refs.json holds {len(doc['refs'])} entries, not {corpus.CLI_POOL_SIZE}")
    return doc["refs"]


class Workload:
    """Turns plain operations into program inputs, runs them and checks the answers."""

    def __init__(self, Q, name: str, workdir: Path):
        self.Q = Q
        self.name = name
        self.cli = None
        if name == "cli":
            self.cli = CliRunner(workdir, load_cli_refs())

    def operations(self, seed: int, defect: bool = False):
        """The seed's stream, without (or only) documented-defect operations."""
        return (op for op in corpus.operations(self.name, seed) if bool(op.get("defect")) is defect)

    def prepare(self, op):
        Q, name = self.Q, self.name
        if name == "factor":
            return to_mat(Q, op["m"])
        if name == "decide":
            if op["kind"] == "tuple_from_pair":
                return to_qpoly(Q, op["a"]), to_qpoly(Q, op["b"])
            return to_mat(Q, op["m"]) if "m" in op else to_tuple(Q, op["t"])
        if name == "weave":
            return to_spec(Q, op)
        return self.cli.prepare(op)

    def run(self, op, prepared) -> Outcome:
        if self.name == "factor":
            return run_factor(self.Q, op, prepared)
        if self.name == "decide":
            return run_decide(self.Q, op, prepared)
        if self.name == "weave":
            return run_weave(self.Q, op, prepared)
        return self.cli.run(op, prepared)

    def done(self, op) -> None:
        if self.cli is not None:
            self.cli.cleanup(op)


# endregion

# region measurement helpers


def calibrate() -> float:
    """Seconds for a fixed stdlib-only Fraction loop; tracks host speed, not the program.

    Garbage collection is off during the loop, so a collection that the
    program's heap triggers is not charged to the host.
    """
    gc.disable()
    try:
        start = perf_counter()
        acc = Fraction(0)
        for k in range(1, 120):
            acc += Fraction(k, k * k + 1) * Fraction(2 * k + 1, 3 * k + 2)
        return perf_counter() - start
    finally:
        gc.enable()


class HostClock:
    """Calibration samples taken between operations, to put times on the reference host.

    A time measured between sample ``mark`` and the next one is scaled by
    ``REF_CALIB_S`` over the mean of those two samples: the program's Python
    arithmetic slows down with the host as the calibration loop does, so the
    scaled time no longer depends on the state the host was in.
    """

    def __init__(self):
        self.loops: list[float] = []
        self._taken = float("-inf")

    def sample(self) -> int:
        self.loops.append(calibrate())
        self._taken = perf_counter()
        return len(self.loops) - 1

    def tick(self) -> int:
        """The latest sample, taken afresh if older than CALIB_EVERY_S."""
        if perf_counter() - self._taken >= CALIB_EVERY_S:
            return self.sample()
        return len(self.loops) - 1

    def scale(self, mark: int) -> float:
        return 2.0 * REF_CALIB_S / (self.loops[mark] + self.loops[mark + 1])

    def median_ms(self) -> float:
        return statistics.median(self.loops) * 1000.0


def start_interpreter() -> float:
    """Wall seconds for a fresh interpreter to import quatsurf.cli."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    # The warm start must leave .pyc files behind, as an installed package has.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    start = perf_counter()
    # No timeout: with one, the wait polls with growing sleeps, which rounds
    # the measured time up to the next poll.
    subprocess.run([sys.executable, "-c", "import quatsurf.cli"], cwd=ROOT, env=env, check=True)
    return perf_counter() - start


def percentile_ms(samples: list[float], pct: int) -> float:
    if len(samples) < 2:
        return samples[0] * 1000.0
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1] * 1000.0


def git_commit() -> str | None:
    """The checked-out commit, or None outside a git work tree."""
    # The ceiling stops git from taking the commit of a repository above ROOT.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "quatsurf").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(args, workload: Workload, generated: int, clock: HostClock) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "corpus_size": generated,
        "cli_pool_size": corpus.CLI_POOL_SIZE if workload.cli else 0,
        "host.calib_ms": clock.median_ms(),
    }


# endregion

# region runs


class Tally:
    """Operations checked, and the ones whose answer was wrong."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[dict] = []

    def add(self, op, index: int, outcome: Outcome) -> None:
        self.attempted += 1
        if not outcome.ok:
            self.failures.append({"op": index, "kind": op["kind"], "detail": outcome.detail})


def defect_probe(workload: Workload, seed: int) -> dict | None:
    """Run the seed's first documented-defect operations, untimed, and record how they fare.

    The documented wrong answer is counted, not failed; any other failure (an
    exception, points that differ from the parametrization) is listed in
    ``failures`` and makes the run incorrect.
    """
    if workload.name != "weave":
        return None
    probe = {"defect": corpus.COPLANAR_DEFECT, "ops": 0, "answered_wrong": 0, "failures": []}
    for index, op in enumerate(islice(workload.operations(seed, defect=True), DEFECT_PROBE_SIZE)):
        outcome = workload.run(op, workload.prepare(op))
        probe["ops"] += 1
        if outcome.known_defect:
            probe["answered_wrong"] += 1
        elif not outcome.ok:
            probe["failures"].append({"op": index, "kind": op["kind"], "detail": outcome.detail})
    return probe


def latency_summary(times: list[float]) -> dict:
    return {
        "ops_per_s": len(times) / sum(times),
        "latency_p50_ms": statistics.median(times) * 1000.0,
        "latency_p90_ms": percentile_ms(times, 90),
    }


def timed_run(workload: Workload, args) -> tuple[dict, Tally, dict]:
    """Closed loop for ``--seconds`` of wall time with tracing off."""
    start_interpreter()  # writes .pyc files; not timed
    clock = HostClock()
    setup: list[tuple[float, int]] = []  # (wall seconds, calibration mark)
    latencies: list[tuple[float, int]] = []
    tally = Tally()
    ops = workload.operations(args.seed)
    next_setup = 0.0
    deadline = perf_counter() + args.seconds
    while perf_counter() < deadline:
        if len(setup) < SETUP_REPEATS and perf_counter() >= next_setup:
            mark = clock.sample()
            setup.append((start_interpreter(), mark))
            next_setup = perf_counter() + args.seconds / SETUP_REPEATS
        op = next(ops, None)
        if op is None:
            break
        prepared = workload.prepare(op)
        mark = clock.tick()
        outcome = workload.run(op, prepared)
        workload.done(op)
        latencies.append((outcome.seconds, mark))
        tally.add(op, len(latencies) - 1, outcome)
    while len(setup) < SETUP_REPEATS:
        mark = clock.sample()
        setup.append((start_interpreter(), mark))
    clock.sample()  # closes the interval after the last operation or start

    def on_reference_host(timed):
        # Each time lies between calibration samples ``mark`` and ``mark + 1``.
        return [t * clock.scale(mark) for t, mark in timed]

    metrics = latency_summary(on_reference_host(latencies))
    metrics["setup_s"] = statistics.median(on_reference_host(setup))
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall = latency_summary([t for t, _ in latencies])
    wall["setup_s"] = statistics.median(t for t, _ in setup)
    extra = {
        "env": environment(args, workload, len(latencies), clock),
        "samples": len(latencies),
        "wall": wall,
        "error_rate": len(tally.failures) / tally.attempted,
        "error_rate_base": tally.attempted,
    }
    return metrics, tally, extra


def traced_run(workload: Workload, args) -> tuple[dict, Tally, dict]:
    """A fixed operation count, each operation untraced and traced in alternating order."""
    from tracer import Tracer

    tracer = Tracer()
    count = max(4, round(args.seconds * 1000.0 / (2.0 * NOMINAL_MS[workload.name])))
    tally = Tally()
    plain = traced = 0.0
    clock = HostClock()
    bytes_out = 0
    ops = workload.operations(args.seed)
    generated = 0
    for index in range(count):
        op = next(ops, None)
        if op is None:
            break
        generated += 1
        prepared = workload.prepare(op)
        clock.tick()
        outcomes = {}
        for traced_pass in ((False, True) if index % 2 == 0 else (True, False)):
            if traced_pass:
                with tracer.operation(index, op["kind"]):
                    outcomes[True] = workload.run(op, prepared)
            else:
                outcomes[False] = workload.run(op, prepared)
        traced += outcomes[True].seconds
        plain += outcomes[False].seconds
        bytes_out += outcomes[True].stdout_bytes
        tally.add(op, index, outcomes[True] if not outcomes[True].ok else outcomes[False])
        workload.done(op)
    metrics = tracer.layer_metrics(tally.attempted)
    metrics["cli.bytes_out"] = bytes_out / max(tally.attempted, 1)
    metrics["trace.overhead_ratio"] = traced / plain if plain else 1.0
    metrics["host.calib_ms"] = clock.median_ms()
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write_spans(spans_path)
    extra = {
        "env": environment(args, workload, generated, clock),
        "spans": str(spans_path.relative_to(ROOT)),
        "span_count": len(tracer.spans),
        "error_rate": len(tally.failures) / max(tally.attempted, 1),
        "error_rate_base": tally.attempted,
    }
    return metrics, tally, extra


# endregion


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="quatsurf benchmark (see module docstring)")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured wall time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    Q = import_program()
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        workload = Workload(Q, args.workload, workdir)
        run = traced_run if args.trace else timed_run
        values, tally, extra = run(workload, args)
        probe = defect_probe(workload, args.seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    if args.trace:
        from tracer import LAYER_METRICS

        units = dict(LAYER_METRICS)
    else:
        units = dict(END_TO_END)
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    result = {
        "correct": not tally.failures and not (probe and probe["failures"]),
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": metrics,
    }
    record = dict(result, **extra, failures=tally.failures, defect_probe=probe)
    OUT.mkdir(exist_ok=True)
    record_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    print("env " + json.dumps(extra["env"], sort_keys=True))
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"error_rate {extra['error_rate']:.6g} ratio (base {extra['error_rate_base']} operations)")
    if "samples" in extra:
        print(f"latency samples {extra['samples']}")
        for name, value in extra["wall"].items():
            print(f"wall.{name} {value:.6g} {units[name]} (host as found, not scaled)")
    print(f"failed {len(tally.failures)} of {tally.attempted}")
    for failure in tally.failures[:5]:
        print("failure " + json.dumps(failure, sort_keys=True))
    if probe:
        print(f"defect probe: {probe['answered_wrong']} of {probe['ops']} answered wrong ({probe['defect']})")
        for failure in probe["failures"][:5]:
            print("probe failure " + json.dumps(failure, sort_keys=True))
    print(f"record {record_path.relative_to(ROOT)}")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

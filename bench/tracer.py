"""Outside-in tracer: spans and counts around quatsurf's public functions.

While an operation is traced, the public functions listed in ``SPANS`` are
replaced by wrappers that record a span (name, parent span, operation id,
start, end) in memory, and the hot quaternion kernels in ``COUNTS`` by
wrappers that only count calls.  Nothing inside the package changes: the
wrappers are bound into every ``quatsurf`` module namespace that holds the
original object (``split.py``, ``pythagorean.py`` and ``cli.py`` import
functions by name), or onto the class for methods, and removed again when the
operation ends, so untraced calls run the original code.

A span's self time is its duration minus the durations of its direct child
spans; calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# Span name -> (module, class or None, attribute) of every callable it covers.
# A name's first part is its layer.
SPANS = {
    "qpoly.mul": [
        ("qpoly", "QPolyU", "__mul__"), ("qpoly", "QPolyU", "__rmul__"),
        ("qpoly", "QPolyUV", "__mul__"), ("qpoly", "QPolyUV", "__rmul__"),
        ("qpoly", "RPolyUV", "__mul__"), ("qpoly", "RPolyUV", "__rmul__"),
    ],
    "qpoly.div": [("qpoly", None, "left_div_rem"), ("qpoly", None, "right_div_rem")],
    "qmat.is_degenerate": [("qmat", None, "is_degenerate")],
    "qmat.kron": [("qmat", None, "kron")],
    "qmat.col_op": [("qmat", None, "col_op")],
    "split.split": [("split", None, "split")],
    "split.split_normalize": [("split", None, "split_normalize")],
    "pythagorean.is_pythagorean": [("pythagorean", None, "is_pythagorean")],
    "pythagorean.tuple_from_pair": [("pythagorean", None, "tuple_from_pair")],
    "surfaces.circle": [("surfaces", None, "is_circle_or_line")],
    "surfaces.sample": [("surfaces", None, "coordinate_curve"), ("surfaces", None, "sample_grid")],
    "surfaces.export": [
        ("surfaces", None, "export_obj"),
        ("surfaces", None, "export_csv"),
        ("surfaces", None, "quartic_to_json"),
    ],
    "surfaces.cyclide": [("surfaces", None, "cyclide_implicit")],
    "cli.main": [("cli", None, "main")],
    "cli.decode": [
        ("qmat", "Mat2", "from_json"),
        ("qpoly", "QPolyUV", "from_json"),
        ("pythagorean", "PyTuple", "from_json"),
        ("surfaces", "SurfaceSpec", "from_json"),
    ],
    "cli.encode": [("split", "SplitCertificate", "to_json"), ("pythagorean", "PyTuple", "to_json")],
}

# Kernels too hot for a span each: counted only.
COUNTS = {
    "quat.mul": [("quat", "Quaternion", "__mul__"), ("quat", "Quaternion", "__rmul__")],
    "quat.inverse": [("quat", "Quaternion", "inverse")],
}

# (name, unit) of the per-layer metrics the traced run reports, per workload operation.
LAYER_METRICS = [
    ("quat.mul_calls", "calls/op"),
    ("quat.inverse_calls", "calls/op"),
    ("qpoly.mul_calls", "calls/op"),
    ("qpoly.mul_ms", "ms/op"),
    ("qpoly.div_calls", "calls/op"),
    ("qpoly.div_ms", "ms/op"),
    ("qmat.is_degenerate_calls", "calls/op"),
    ("qmat.is_degenerate_ms", "ms/op"),
    ("qmat.kron_ms", "ms/op"),
    ("split.calls", "calls/op"),
    ("split.self_ms", "ms/op"),
    ("split.steps_per_call", "steps/call"),
    ("split.step_accept_ratio", "ratio"),
    ("pythagorean.is_pythagorean_ms", "ms/op"),
    ("pythagorean.self_ms", "ms/op"),
    ("pythagorean.tuple_from_pair_ms", "ms/op"),
    ("surfaces.circle_calls", "calls/op"),
    ("surfaces.circle_ms", "ms/op"),
    ("surfaces.points_checked", "points/op"),
    ("surfaces.sample_ms", "ms/op"),
    ("surfaces.export_ms", "ms/op"),
    ("surfaces.cyclide_ms", "ms/op"),
    ("cli.main_ms", "ms/op"),
    ("cli.self_ms", "ms/op"),
    ("cli.decode_ms", "ms/op"),
    ("cli.encode_ms", "ms/op"),
    ("cli.bytes_out", "B/op"),
    ("trace.overhead_ratio", "ratio"),
    ("host.calib_ms", "ms"),
]


def _module(short: str):
    # ``quatsurf.split`` as an attribute is the function, so modules come from importlib.
    return importlib.import_module(f"quatsurf.{short}")


class Tracer:
    """Records spans and counts for the operations run inside :meth:`operation`."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent, op, start, end]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op = None
        self._patches = self._plan()

    def _plan(self) -> list[tuple]:
        """Every (owner, attribute, original, wrapper) rebinding to make while tracing."""
        namespaces = [m for name, m in sorted(sys.modules.items()) if name == "quatsurf" or name.startswith("quatsurf.")]
        patches = []
        seen = set()
        for table, wrap in ((SPANS, self._span), (COUNTS, self._count)):
            for name, targets in table.items():
                for module, cls, attr in targets:
                    owner = getattr(_module(module), cls) if cls else None
                    if owner is not None:
                        raw = owner.__dict__[attr]
                        if isinstance(raw, classmethod):
                            wrapped = classmethod(wrap(name, raw.__func__))
                        else:
                            wrapped = wrap(name, raw)
                        owners = [owner]
                    else:
                        raw = getattr(_module(module), attr)
                        wrapped = wrap(name, raw)
                        owners = namespaces
                    for ns in owners:
                        for key, value in list(vars(ns).items()):
                            if value is raw and (id(ns), key) not in seen:
                                seen.add((id(ns), key))
                                patches.append((ns, key, raw, wrapped))
        return patches

    def _span(self, name: str, fn):
        spans, stack = self.spans, self._stack
        counts = self.counts
        is_circle = name == "surfaces.circle"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            record = [name, stack[-1], self._op, 0.0, 0.0]
            spans.append(record)
            stack.append(sid)
            if is_circle:
                counts["surfaces.points_checked"] += len(args[0])
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[4] = perf_counter()
                record[3] = start
                stack.pop()

        return traced

    def _count(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    @contextmanager
    def operation(self, op_id: int, kind: str):
        """Trace one operation: wrappers in, a root span around the body, wrappers out."""
        for owner, key, _, wrapped in self._patches:
            setattr(owner, key, wrapped)
        self._op = op_id
        sid = len(self.spans)
        record = [f"op.{kind}", None, op_id, 0.0, 0.0]
        self.spans.append(record)
        self._stack.append(sid)
        start = perf_counter()
        try:
            yield
        finally:
            record[4] = perf_counter()
            record[3] = start
            self._stack.pop()
            self._op = None
            for owner, key, raw, _ in self._patches:
                setattr(owner, key, raw)

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Per-operation counts and milliseconds for every layer metric but the diagnostics."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, parent, _, start, end in spans:
            if parent is not None:
                child[parent] += end - start
        calls: Counter = Counter()
        inclusive: Counter = Counter()  # outermost spans of a name only
        self_time: Counter = Counter()  # per layer
        in_split: Counter = Counter()
        for sid, (name, parent, _, start, end) in enumerate(spans):
            calls[name] += 1
            self_time[name.split(".")[0]] += end - start - child[sid]
            ancestors = set()
            p = parent
            while p is not None:
                ancestors.add(spans[p][0])
                p = spans[p][1]
            if name not in ancestors:
                inclusive[name] += end - start
            if "split.split" in ancestors:
                in_split[name] += 1

        n = max(ops, 1)
        splits = calls["split.split"]

        def ms(seconds: float) -> float:
            return seconds * 1000.0 / n

        return {
            "quat.mul_calls": self.counts["quat.mul"] / n,
            "quat.inverse_calls": self.counts["quat.inverse"] / n,
            "qpoly.mul_calls": calls["qpoly.mul"] / n,
            "qpoly.mul_ms": ms(inclusive["qpoly.mul"]),
            "qpoly.div_calls": calls["qpoly.div"] / n,
            "qpoly.div_ms": ms(inclusive["qpoly.div"]),
            "qmat.is_degenerate_calls": calls["qmat.is_degenerate"] / n,
            "qmat.is_degenerate_ms": ms(inclusive["qmat.is_degenerate"]),
            "qmat.kron_ms": ms(inclusive["qmat.kron"]),
            "split.calls": splits / n,
            "split.self_ms": ms(self_time["split"]),
            "split.steps_per_call": in_split["qmat.col_op"] / splits if splits else 0.0,
            "split.step_accept_ratio": (
                in_split["qmat.col_op"] / in_split["qpoly.div"] if in_split["qpoly.div"] else 0.0
            ),
            "pythagorean.is_pythagorean_ms": ms(inclusive["pythagorean.is_pythagorean"]),
            "pythagorean.self_ms": ms(self_time["pythagorean"]),
            "pythagorean.tuple_from_pair_ms": ms(inclusive["pythagorean.tuple_from_pair"]),
            "surfaces.circle_calls": calls["surfaces.circle"] / n,
            "surfaces.circle_ms": ms(inclusive["surfaces.circle"]),
            "surfaces.points_checked": self.counts["surfaces.points_checked"] / n,
            "surfaces.sample_ms": ms(inclusive["surfaces.sample"]),
            "surfaces.export_ms": ms(inclusive["surfaces.export"]),
            "surfaces.cyclide_ms": ms(inclusive["surfaces.cyclide"]),
            "cli.main_ms": ms(inclusive["cli.main"]),
            "cli.self_ms": ms(self_time["cli"]),
            "cli.decode_ms": ms(inclusive["cli.decode"]),
            "cli.encode_ms": ms(inclusive["cli.encode"]),
        }

    def write_spans(self, path) -> None:
        """Spans as JSON lines, times in milliseconds from the first span's start."""
        origin = self.spans[0][3] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for sid, (name, parent, op, start, end) in enumerate(self.spans):
                row = {
                    "id": sid,
                    "name": name,
                    "parent": parent,
                    "op": op,
                    "start_ms": round((start - origin) * 1000.0, 6),
                    "end_ms": round((end - origin) * 1000.0, 6),
                }
                handle.write(json.dumps(row) + "\n")

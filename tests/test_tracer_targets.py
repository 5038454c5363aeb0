"""The benchmark tracer's targets exist in the package.

``bench/tracer.py`` looks its spans and counters up by name when it is
built, so a renamed or deleted target would break only traced benchmark
runs.  This checks every target without running the benchmark.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves_in_the_package():
    # A class target must hold the attribute in its own __dict__, because
    # the tracer rebinds it there.
    tracer = _load_tracer()
    missing = []
    for table in (tracer.SPANS, tracer.COUNTS):
        for name, targets in table.items():
            for module, cls, attr in targets:
                owner = importlib.import_module(f"quatsurf.{module}")
                if cls is not None:
                    owner = getattr(owner, cls, None)
                    found = owner is not None and attr in vars(owner)
                else:
                    found = hasattr(owner, attr)
                if not found:
                    missing.append(f"{name}: quatsurf.{module}.{cls + '.' if cls else ''}{attr}")
    assert not missing, missing

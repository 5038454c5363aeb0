#!/usr/bin/env python3
"""Regenerate bench/cli_refs.json: stdout sha256 and exit code per CLI pool entry.

    python3 bench/make_cli_refs.py

The committed file was made at the commit that introduced the benchmark.  The
CLI's output must stay byte-identical, so regenerate it only when a change
is meant to alter CLI output, and say so in that change.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
import tempfile
from pathlib import Path

import corpus
import run


def main() -> int:
    run.import_program()
    run.WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="refs-", dir=run.WORK))
    runner = run.CliRunner(workdir, None)
    refs = []
    try:
        for index in range(corpus.CLI_POOL_SIZE):
            entry = corpus.cli_entry(index)
            rc, text, exc = runner.invoke(run.Outcome(), runner.prepare(entry))
            runner.cleanup(entry)
            if exc is not None:
                sys.stderr.write(f"entry {index} ({entry['kind']}) raised {exc!r}\n")
                return 1
            refs.append([corpus.cli_entry_digest(entry), hashlib.sha256(text.encode("utf-8")).hexdigest(), rc])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    head = json.dumps({"pool_seed": corpus.CLI_POOL_SEED, "source_sha256": run.source_digest()})
    body = ",\n".join(json.dumps(r) for r in refs)  # one entry per line, for readable diffs
    with open(run.CLI_REFS, "w", encoding="utf-8") as handle:
        handle.write(f'{head[:-1]}, "refs": [\n{body}\n]}}\n')
    print(f"wrote {len(refs)} references to {run.CLI_REFS.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""One digest of every `--json` report of the benchmark's verify, lift and
contact workloads, at workload seeds 7 and 3, and of the `tsch` and `elim`
reports on every presentation of the workload tables, rendered in process.

The op lists and the tables come from perfbench/workloads.py, which this
script imports and never changes.  Each op runs `nashres.cli.main` on its
argv; its exit code and its report, with `elapsed_ms` removed and the keys
sorted, are hashed in op order.  The script prints the SHA-256 and the
number of ops, and needs only the stdlib.  A change that keeps every report
byte-identical keeps this line:

    PYTHONPATH=src python tests/report_digest.py | diff - tests/golden/report_digest.txt

After an intended change of output, rewrite the file with

    PYTHONPATH=src python tests/report_digest.py > tests/golden/report_digest.txt
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402

from nashres.cli import main  # noqa: E402

SEEDS = (7, 3)
WORKLOADS = ("verify", "lift", "contact")
TABLES = (workloads.ACCEPTANCE, workloads.EXTENDED, workloads.LIFT)
ELIMINATION_COMMANDS = ("tsch", "elim")


def _ops():
    """(label, argv) of every op, each yielded while its input files exist:
    the workload ops, then `tsch` and `elim` on each presentation of the
    tables."""
    for seed in SEEDS:
        for name in WORKLOADS:
            with tempfile.TemporaryDirectory() as root:
                for op in workloads.BUILDERS[name](seed, root).ops:
                    yield op.label, op.argv
    with tempfile.TemporaryDirectory() as root:
        for table in TABLES:
            for name in table:
                path = Path(root) / f"{name}.json"
                path.write_text(json.dumps(workloads.presentation_document(name)), encoding="utf-8")
                for command in ELIMINATION_COMMANDS:
                    yield f"{name}/{command}", (command, str(path), "--json")


def digest() -> str:
    sha, count = hashlib.sha256(), 0
    for label, argv in _ops():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(list(argv))
        report = json.loads(out.getvalue())
        del report["elapsed_ms"]
        line = f"{label}\t{code}\t{json.dumps(report, sort_keys=True)}\n"
        sha.update(line.encode("utf-8"))
        count += 1
    return f"sha256 {sha.hexdigest()} over {count} reports"


if __name__ == "__main__":
    print(digest())

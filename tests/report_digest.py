"""One digest of every `--json` report of the benchmark's verify, lift and
contact workloads, at workload seeds 7 and 3, rendered in process.

The op lists come from perfbench/workloads.py, which this script imports and
never changes.  Each op runs `nashres.cli.main` on its argv; its exit code
and its report, with `elapsed_ms` removed and the keys sorted, are hashed in
op order.  The script prints the SHA-256 and the number of ops, and needs
only the stdlib.  A change that keeps every report byte-identical keeps this
line:

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


def digest() -> str:
    sha, count = hashlib.sha256(), 0
    for seed in SEEDS:
        for name in WORKLOADS:
            with tempfile.TemporaryDirectory() as root:
                for op in workloads.BUILDERS[name](seed, root).ops:
                    out = io.StringIO()
                    with contextlib.redirect_stdout(out):
                        code = main(list(op.argv))
                    report = json.loads(out.getvalue())
                    del report["elapsed_ms"]
                    line = f"{op.label}\t{code}\t{json.dumps(report, sort_keys=True)}\n"
                    sha.update(line.encode("utf-8"))
                    count += 1
    return f"sha256 {sha.hexdigest()} over {count} reports"


if __name__ == "__main__":
    print(digest())

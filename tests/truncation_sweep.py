"""Truncation refinement: `contact` and `nash` along an arc cut below t^N
report what they report along the whole arc, or exit 3.

Let phi be an arc known below t^P, and N <= P.  phi mod t^N agrees with phi
below t^N and says nothing above it.  So along phi mod t^N each subcommand
must do one of two things: report the same invariants as along phi (for
`contact` r, r_bar, rho, rho_bar, the arc order and the witness; for `nash`
r, rho and each hypersurface's multiplicity sequence), or raise
InsufficientPrecisionError, exit 3.  Any other report or exit code guesses
through the censoring, and is a violation.  The certificate text ("zero
below t^N") differs by design and is not compared.

The sweep takes the generic arc of each of the 27 presentations of
perfbench/workloads.py, at alpha 1 and 2 and precision 48, and cuts it at
every N = 1..48: 5,184 queries, each a `nashres.cli.main` call in process
on an arc file.  It needs only the stdlib, prints its outcome counts, and
exits 1 on any violation:

    PYTHONPATH=src python tests/truncation_sweep.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402

from nashres.cli import main  # noqa: E402
from nashres.parsing import parse_arc  # noqa: E402

PRECISION = 48
ALPHAS = (1, 2)
NAMES = tuple(name for table in (workloads.ACCEPTANCE, workloads.EXTENDED, workloads.LIFT) for name in table)
COMMANDS = ("contact", "nash")


def _run(*argv) -> tuple:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([*argv, "--json"])
    return code, json.loads(out.getvalue())


def _write(path: Path, document: dict) -> str:
    path.write_text(json.dumps(document), encoding="utf-8")
    return str(path)


def generic_arc(root: Path, name: str, alpha: int) -> tuple:
    """(presentation path, arc document) of the generic arc of a workload
    presentation at PRECISION."""
    pres = _write(root / f"{name}.json", workloads.presentation_document(name))
    code, report = _run("generic-arc", pres, "--precision", str(PRECISION), "--alpha", str(alpha))
    if code:
        raise RuntimeError(f"generic-arc on {name} at alpha {alpha} exits {code}")
    return pres, report["results"]["arc"]


def coordinate_orders(arc: dict) -> set:
    """The t-order of each coordinate of an arc document that is not zero
    below its precision: a cut there leaves the coordinate zero below t^N but
    not at t^N."""
    orders = (s.order() for s in parse_arc(arc).coords.values())
    return {o.value for o in orders if o.is_exact}


def invariants(command: str, code: int, report: dict):
    """What a truncation must keep: the exit code when it is not 0, else the
    invariants of the report."""
    if code:
        return code
    r = report["results"]
    if command == "contact":
        return tuple(r[k] for k in ("r", "r_bar", "rho", "rho_bar", "arc_order", "witness"))
    rows = tuple((h["var"], tuple(h.get("multiplicities", ()))) for h in r["hypersurfaces"])
    return r["r"], r["rho"], rows


def refine(root: Path, pres: str, arc: dict, cuts) -> tuple:
    """(outcome counts, violations) of `contact` and `nash` along the arc and
    along each cut of it.  An outcome is "same" or "exit 3"; a violation is
    (command, cut, invariants along the arc, invariants along the cut)."""
    path = root / "arc.json"

    def along(document: dict) -> dict:
        _write(path, document)
        return {c: invariants(c, *_run(c, pres, str(path))) for c in COMMANDS}

    whole = along(arc)
    counts, violations = Counter(), []
    for n in cuts:
        cut = along({"precision": n, "coords": arc["coords"]})
        for c in COMMANDS:
            if cut[c] == whole[c]:
                counts["same"] += 1
            elif cut[c] == 3:
                counts["exit 3"] += 1
            else:
                violations.append((c, n, whole[c], cut[c]))
    return counts, violations


def sweep() -> int:
    total, failed = Counter(), 0
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name in NAMES:
            for alpha in ALPHAS:
                pres, arc = generic_arc(root, name, alpha)
                counts, violations = refine(root, pres, arc, range(1, PRECISION + 1))
                total += counts
                for c, n, whole, cut in violations:
                    print(f"VIOLATION {name} alpha={alpha} {c} mod t^{n}: {cut!r}, whole arc {whole!r}")
                failed += len(violations)
    queries = sum(total.values()) + failed
    print(f"{queries} queries: {total['same']} same, {total['exit 3']} exit 3, {failed} violations")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(sweep())

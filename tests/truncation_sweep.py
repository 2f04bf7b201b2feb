"""Truncation refinement: `contact` and `nash` along an arc cut below t^N
report what they report along the whole arc, or exit 3; and `generic-arc`
at precision 2p refines what it reports at p.

Let phi be an arc known below t^P, and N <= P.  phi mod t^N agrees with phi
below t^N and says nothing above it.  So along phi mod t^N each subcommand
must do one of two things: report the same invariants as along phi (for
`contact` r, r_bar, rho, rho_bar, the arc order and the witness; for `nash`
r, rho and each hypersurface's multiplicity sequence), or raise
InsufficientPrecisionError, exit 3.  Any other report or exit code guesses
through the censoring, and is a violation; so is any nonzero exit along the
whole arc, which leaves the cuts nothing to keep.  The certificate text
("zero below t^N") differs by design and is not compared.

The sweep takes the generic arc of each of the 27 presentations of
perfbench/workloads.py, at alpha 1 and 2 and precision 48, and cuts it at
every N = 1..48: 5,184 queries, each a `nashres.cli.main` call in process
on an arc file.

Generic arcs never reach a Nash centre with a denominator, so the sweep
also reads the rows of `verify --seed 7 --trials 20 --precision 48` on each
of the 27 presentations.  `verify` must exit 0.  Along each distinct row
arc, `contact` and `nash` must report the row's r, r_bar, rho, rho_bar,
arc_order and rho_geometric, and the arc is cut at every coordinate's
order and at 6 seeded cuts below its precision.

`generic-arc` runs on each of the 27 presentations at alpha 1 and 2, at
precision p and 2p for p in 8, 16, 24 and 48.  Three outcomes pass: both
runs exit 0 and agree (the same units, alpha, ramification, units_tried,
r_bar, elimination order and arc order, and the 2p arc equal to the p arc
below the p arc's precision, or exact and equal when the p arc is exact);
the p run exits 3; or both runs exit 4.  Anything else is a violation, and
so is exit 2 or 5 at either precision.  The witness is not compared: a
censored generator whose bound ties the order is passed over, so the
witness can move under refinement.  A printed arc carries one precision for
all its coordinates, so a coordinate counts as exact only when the whole
printed arc is.

The script needs only the stdlib, prints its outcome counts, and exits 1 on
any violation:

    PYTHONPATH=src python tests/truncation_sweep.py
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import tempfile
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402

from nashres.cli import main  # noqa: E402
from nashres.parsing import parse_arc  # noqa: E402
from nashres.series import PowerSeries  # noqa: E402

PRECISION = 48
ALPHAS = (1, 2)
LIFT_PRECISIONS = (8, 16, 24, 48)
LIFT_FIELDS = ("units", "alpha", "ramification", "units_tried", "r_bar", "elimination_order", "arc_order")
NAMES = tuple(name for table in (workloads.ACCEPTANCE, workloads.EXTENDED, workloads.LIFT) for name in table)
COMMANDS = ("contact", "nash")
ROW_FIELDS = ("r", "r_bar", "rho", "rho_bar", "arc_order")
VERIFY_SEED = 7


def _run(*argv) -> tuple:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([*argv, "--json"])
    return code, json.loads(out.getvalue())


def _write(path: Path, document: dict) -> str:
    path.write_text(json.dumps(document), encoding="utf-8")
    return str(path)


def _lift(pres: str, alpha: int, precision: int) -> tuple:
    return _run("generic-arc", pres, "--precision", str(precision), "--alpha", str(alpha))


def generic_arc(root: Path, name: str, alpha: int) -> tuple:
    """(presentation path, arc document) of the generic arc of a workload
    presentation at PRECISION."""
    pres = _write(root / f"{name}.json", workloads.presentation_document(name))
    code, report = _lift(pres, alpha, PRECISION)
    if code:
        raise RuntimeError(f"generic-arc on {name} at alpha {alpha} exits {code}")
    return pres, report["results"]["arc"]


def _refines(arc: dict, finer: dict) -> bool:
    """Whether the arc document `finer` equals `arc` below its precision,
    and is exact and equal where `arc` is exact."""
    coarse, fine = parse_arc(arc).coords, parse_arc(finer).coords
    n = arc["precision"]
    if n == "exact":
        return finer["precision"] == "exact" and fine == coarse
    if finer["precision"] != "exact" and finer["precision"] < n:
        return False
    return fine.keys() == coarse.keys() and all(
        PowerSeries.from_integers(fine[v].nums, fine[v].den, n) == s for v, s in coarse.items()
    )


def lift_outcome(pres: str, alpha: int, p: int) -> str:
    """"agree", "p exits 3" or "both exit 4" for `generic-arc` at precision p
    and 2p; any other text names a violation."""
    (code, report), (code2, report2) = _lift(pres, alpha, p), _lift(pres, alpha, 2 * p)
    if code in (2, 5) or code2 in (2, 5):
        return f"exit {code} at p, exit {code2} at 2p"
    if code == 3:
        return "p exits 3"
    if (code, code2) == (4, 4):
        return "both exit 4"
    if code or code2:
        return f"exit {code} at p, exit {code2} at 2p"
    r, r2 = report["results"], report2["results"]
    differ = [k for k in LIFT_FIELDS if r[k] != r2[k]]
    if differ:
        return f"{', '.join(differ)} differ"
    return "agree" if _refines(r["arc"], r2["arc"]) else "the 2p arc does not refine the p arc"


def lift_sweep(root: Path) -> tuple:
    """(outcome counts, violations) of `generic-arc` at p and 2p over every
    presentation, alpha and p of LIFT_PRECISIONS; a violation is (name,
    alpha, p, what)."""
    counts, violations = Counter(), []
    for name in NAMES:
        pres = _write(root / f"{name}.json", workloads.presentation_document(name))
        for alpha in ALPHAS:
            for p in LIFT_PRECISIONS:
                outcome = lift_outcome(pres, alpha, p)
                if outcome in ("agree", "p exits 3", "both exit 4"):
                    counts[outcome] += 1
                else:
                    violations.append((name, alpha, p, outcome))
    return counts, violations


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


def refine(root: Path, pres: str, arc: dict, cuts, row: dict | None = None) -> tuple:
    """(outcome counts, violations) of `contact` and `nash` along the arc and
    along each cut of it.  An outcome is "same" or "exit 3"; a violation is
    (command, cut, invariants along the arc, invariants along the cut).  A
    command that exits nonzero along the whole arc is a violation with cut
    None, and its cuts are not compared.  Given the `verify` row of the arc,
    the whole arc must report the row's invariants: a violation ("read back",
    None, the row's, the arc's)."""
    path = root / "arc.json"

    def along(document: dict) -> dict:
        _write(path, document)
        return {c: invariants(c, *_run(c, pres, str(path))) for c in COMMANDS}

    whole = along(arc)
    failed = [c for c in COMMANDS if isinstance(whole[c], int)]
    violations = [(c, None, 0, whole[c]) for c in failed]
    if row is not None and not failed:
        read = whole["contact"][:-1], whole["nash"][:2]
        expected = tuple(row[k] for k in ROW_FIELDS), (row["r"], row["rho_geometric"])
        if read != expected:
            violations.append(("read back", None, expected, read))
    counts = Counter()
    for n in cuts:
        cut = along({"precision": n, "coords": arc["coords"]})
        for c in COMMANDS:
            if c in failed:
                continue
            if cut[c] == whole[c]:
                counts["same"] += 1
            elif cut[c] == 3:
                counts["exit 3"] += 1
            else:
                violations.append((c, n, whole[c], cut[c]))
    return counts, violations


def verify_rows(root: Path, name: str, rng: random.Random) -> tuple:
    """(row counts, outcome counts, violations) of `verify --seed 7 --trials
    20 --precision 48` on a workload presentation.  Any exit but 0 is a
    violation ("verify", None, 0, code).  Each distinct row arc is read back
    and refined at every coordinate's order, which lies below the arc's
    precision, and at 6 cuts drawn from rng up to it."""
    pres = _write(root / f"{name}.json", workloads.presentation_document(name))
    code, report = _run(
        "verify", pres, "--seed", str(VERIFY_SEED), "--trials", "20",
        "--precision", str(PRECISION),
    )
    if code:
        return Counter(), Counter(), [("verify", None, 0, code)]
    rows = report["results"]["samples"]
    distinct = {json.dumps(row["arc"], sort_keys=True): row for row in rows}
    total, violations = Counter(), []
    for row in distinct.values():
        arc = row["arc"]
        top = PRECISION if arc["precision"] == "exact" else arc["precision"]
        cuts = coordinate_orders(arc) | set(rng.sample(range(1, top + 1), 6))
        counts, bad = refine(root, pres, arc, sorted(cuts), row)
        total += counts
        violations += bad
    return Counter(rows=len(rows), distinct=len(distinct)), total, violations


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
                    where = "along the whole arc" if n is None else f"mod t^{n}"
                    print(f"VIOLATION {name} alpha={alpha} {c} {where}: {cut!r}, whole arc {whole!r}")
                failed += len(violations)
        queries = sum(total.values()) + failed
        print(f"{queries} queries: {total['same']} same, {total['exit 3']} exit 3, {failed} violations")
        rows, total, failed_rows = Counter(), Counter(), 0
        rng = random.Random(VERIFY_SEED)
        for name in NAMES:
            seen, counts, violations = verify_rows(root, name, rng)
            rows += seen
            total += counts
            for violation in violations:
                print(f"VIOLATION {name} verify rows: {violation!r}")
            failed_rows += len(violations)
        print(
            f"{rows['rows']} verify rows, {rows['distinct']} distinct: "
            f"{total['same'] + total['exit 3']} cut queries, {total['same']} same, "
            f"{total['exit 3']} exit 3, {failed_rows} violations"
        )
        counts, violations = lift_sweep(root)
    for name, alpha, p, what in violations:
        print(f"VIOLATION {name} alpha={alpha} generic-arc at p={p} and {2 * p}: {what}")
    pairs = sum(counts.values()) + len(violations)
    print(
        f"{pairs} generic-arc pairs: {counts['agree']} agree, {counts['p exits 3']} p exits 3, "
        f"{counts['both exit 4']} both exit 4, {len(violations)} violations"
    )
    return 1 if failed or failed_rows or violations else 0


if __name__ == "__main__":
    sys.exit(sweep())

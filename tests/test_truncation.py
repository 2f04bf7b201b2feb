"""Truncation refinement from `tests/truncation_sweep.py`.

Along an arc cut below t^N, `contact` and `nash` must report what they
report along the whole arc, or exit 3.  The whole sweep (27 presentations,
alpha 1 and 2, every cut N = 1..48) runs as a script; the first test draws
16 of its 54 arcs, and cuts each at every coordinate's order, where the
coordinate is zero below t^N but not at t^N, and at 6 further cuts.  The
second draws 12 of the 27 presentations: `verify` on each must exit 0, and
each distinct row arc must read back to its row and refine the same way.
The third runs the script's whole `generic-arc` sweep: at precision 2p the
lift must refine what it reports at p.
"""

from __future__ import annotations

import random
from collections import Counter

from truncation_sweep import (
    ALPHAS,
    NAMES,
    PRECISION,
    coordinate_orders,
    generic_arc,
    lift_sweep,
    refine,
    verify_rows,
)


def test_truncations_report_what_the_whole_arc_reports_or_exit_3(tmp_path):
    rng = random.Random(20151204)
    total, violations = Counter(), []
    for name, alpha in rng.sample([(n, a) for n in NAMES for a in ALPHAS], 16):
        pres, arc = generic_arc(tmp_path, name, alpha)
        cuts = coordinate_orders(arc) | set(rng.sample(range(1, PRECISION + 1), 6))
        counts, bad = refine(tmp_path, pres, arc, sorted(n for n in cuts if n <= PRECISION))
        total += counts
        violations += [(name, alpha, *v) for v in bad]
    assert not violations
    assert total["same"] and total["exit 3"], total


def test_verify_rows_read_back_and_their_truncations_report_the_same_or_exit_3(tmp_path):
    rng = random.Random(20151204)
    total, violations = Counter(), []
    for name in rng.sample(NAMES, 12):
        _, counts, bad = verify_rows(tmp_path, name, rng)
        total += counts
        violations += [(name, *v) for v in bad]
    assert not violations
    assert total["same"] and total["exit 3"], total


def test_generic_arc_at_twice_the_precision_refines_the_lift_or_p_exits_3(tmp_path):
    counts, violations = lift_sweep(tmp_path)
    assert not violations
    assert counts["agree"] and counts["p exits 3"], counts

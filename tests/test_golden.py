"""Golden reports: `--json` output pinned byte for byte, `elapsed_ms` masked.

The cases, their inputs and how to rewrite the files are in
`tests/golden_cases.py`.  The reports of the benchmark workloads are pinned
by one digest, written by `tests/report_digest.py`.
"""

from __future__ import annotations

import pytest

from golden_cases import CASES, GOLDEN_DIR, render


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_matches_golden(case, tmp_path):
    expected = (GOLDEN_DIR / f"{case}.json").read_text(encoding="utf-8")
    assert render(case, tmp_path) == expected


def test_workload_reports_match_their_digest():
    from report_digest import digest

    expected = (GOLDEN_DIR / "report_digest.txt").read_text(encoding="utf-8")
    assert digest() + "\n" == expected

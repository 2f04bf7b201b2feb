"""Golden reports: `--json` output pinned byte for byte, `elapsed_ms` masked.

The cases, their inputs and how to rewrite the files are in
`tests/golden_cases.py`.
"""

from __future__ import annotations

import pytest

from golden_cases import CASES, GOLDEN_DIR, render


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_matches_golden(case, tmp_path):
    expected = (GOLDEN_DIR / f"{case}.json").read_text(encoding="utf-8")
    assert render(case, tmp_path) == expected

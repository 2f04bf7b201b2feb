"""Golden reports: `--json` output pinned byte for byte, `elapsed_ms` masked.

The files under tests/golden/ were written by the code before the change
that first pinned them (the integer series kernel for verify, generic-arc
and nash; derived-object caching for tsch, elim, contact and mult); any
later change must reproduce them exactly.  To rewrite them after an
intended change of output, run

    PYTHONPATH=src python tests/test_golden.py

and review the diff.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

import pytest

from nashres.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

PRESENTATIONS = {
    "cusp": {"d": 1, "hypersurfaces": [{"var": "x", "b": 2, "f": "x^2 - z^3"}]},
    "two_hyp": {
        "d": 2,
        "hypersurfaces": [
            {"var": "x1", "b": 2, "f": "x1^2 - z1^3"},
            {"var": "x2", "b": 2, "f": "x2^2 - z1 z2^2"},
        ],
    },
    "A_8": {"d": 1, "hypersurfaces": [{"var": "x", "b": 2, "f": "x^2 - z^9"}]},
    "mixed_weights": {
        "d": 1,
        "hypersurfaces": [
            {"var": "x1", "b": 2, "f": "x1^2 - z^3"},
            {"var": "x2", "b": 3, "f": "x2^3 - z^4"},
        ],
    },
    "quartic_middle": {
        "d": 1,
        "hypersurfaces": [{"var": "x", "b": 4, "f": "x^4 - 2 z^3 x^2 + z^6 - z^7"}],
    },
    "needs_normalization": {
        "d": 1,
        "hypersurfaces": [{"var": "x", "b": 2, "f": "x^2 + 2z x + z^3"}],
    },
    "quartic_tail": {"d": 1, "hypersurfaces": [{"var": "x", "b": 4, "f": "x^4 - z^5 - z^7"}]},
    "cubic_tail": {"d": 1, "hypersurfaces": [{"var": "x", "b": 3, "f": "x^3 - z^4 - z^5"}]},
    "cubic_big_constant": {
        "d": 1,
        "hypersurfaces": [{"var": "x", "b": 3, "f": "x^3 - 8000000000000 z^4"}],
    },
    "three_hypersurfaces": {
        "d": 2,
        "hypersurfaces": [
            {"var": "x1", "b": 2, "f": "x1^2 - z1^3"},
            {"var": "x2", "b": 2, "f": "x2^2 - z1 z2^2"},
            {"var": "x3", "b": 2, "f": "x3^2 - z2^4"},
        ],
    },
    "two_hyp_three_base": {
        "d": 3,
        "hypersurfaces": [
            {"var": "x1", "b": 3, "f": "x1^3 - z1^4 - z2^5"},
            {"var": "x3", "b": 2, "f": "x3^2 - z1 z2 z3"},
        ],
    },
}

# Arcs for the `nash --trace` cases, whose reports carry the blow-up centres.
ARCS = {
    "cusp_shifted": {
        "precision": "exact",
        "coords": {"x": "t^3 + 3 t^4 + 3 t^5 + t^6", "z": "t^2 + 2 t^3 + t^4"},
    },
    "two_hyp_tilted": {
        "precision": 12,
        "coords": {"x1": "t^3", "z1": "t^2", "x2": "t^2 + t^3", "z2": "t + t^2"},
    },
    # Parentheses, a power of a sum, a rational, juxtaposition and the
    # Unicode minus, all in one arc on the cusp.
    "cusp_full_grammar": {
        "precision": "exact",
        "coords": {"x": "(t \u2212 1/2 t^2)^3", "z": "t^2 (1 \u2212 1/2 t)^2"},
    },
}

# golden file stem -> (presentation, arc or None, cli arguments after the inputs)
CASES = {
    "verify_cusp_seed7": ("cusp", None, ["verify", "--seed", "7"]),
    "verify_two_hyp_seed7": ("two_hyp", None, ["verify", "--seed", "7"]),
    "verify_A_8_seed7": ("A_8", None, ["verify", "--seed", "7"]),
    "verify_mixed_weights_seed7": ("mixed_weights", None, ["verify", "--seed", "7"]),
    # Six failed lifts and repeated fallback draws: many samples repeat an
    # earlier arc of the same run.
    "verify_three_hypersurfaces_seed7": (
        "three_hypersurfaces", None, ["verify", "--seed", "7"],
    ),
    "generic_arc_quartic_middle_p96": (
        "quartic_middle", None, ["generic-arc", "--precision", "96"],
    ),
    # Lifting paths: ramification 4 with a long tail, a cubic edge with a
    # large constant term, and an lcm of ramifications over three base variables.
    "generic_arc_quartic_tail_p96": (
        "quartic_tail", None, ["generic-arc", "--precision", "96"],
    ),
    "generic_arc_cubic_big_constant_p96": (
        "cubic_big_constant", None, ["generic-arc", "--precision", "96"],
    ),
    "generic_arc_two_hyp_three_base_p96": (
        "two_hyp_three_base", None, ["generic-arc", "--precision", "96"],
    ),
    # Ramification 3, then a regular tail on every third power of t (alpha = 2).
    "generic_arc_cubic_tail_alpha2_p256": (
        "cubic_tail", None, ["generic-arc", "--precision", "256", "--alpha", "2"],
    ),
    "nash_cusp_shifted": ("cusp", "cusp_shifted", ["nash", "--trace"]),
    "nash_two_hyp_tilted": ("two_hyp", "two_hyp_tilted", ["nash", "--trace"]),
    "tsch_needs_normalization": ("needs_normalization", None, ["tsch"]),
    "elim_two_hyp": ("two_hyp", None, ["elim"]),
    "contact_two_hyp_tilted": ("two_hyp", "two_hyp_tilted", ["contact"]),
    "contact_cusp_full_grammar": ("cusp", "cusp_full_grammar", ["contact"]),
    "mult_cusp_point_1_1": ("cusp", None, ["mult", "--point", "1,1"]),
    "mult_two_hyp": ("two_hyp", None, ["mult"]),
}

_ELAPSED = re.compile(r'"elapsed_ms": \d+')


def render(case: str, workdir: Path) -> str:
    """Run one case in-process and return its stdout with elapsed_ms masked."""
    name, arc, args = CASES[case]
    inputs = [workdir / f"{name}.json"]
    inputs[0].write_text(json.dumps(PRESENTATIONS[name]), encoding="utf-8")
    if arc is not None:
        inputs.append(workdir / f"arc_{arc}.json")
        inputs[1].write_text(json.dumps(ARCS[arc]), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([args[0], *map(str, inputs), *args[1:], "--json"])
    assert code == 0, f"{case} exited with {code}"
    return _ELAPSED.sub('"elapsed_ms": "masked"', out.getvalue())


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_matches_golden(case, tmp_path):
    expected = (GOLDEN_DIR / f"{case}.json").read_text(encoding="utf-8")
    assert render(case, tmp_path) == expected


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            (GOLDEN_DIR / f"{case}.json").write_text(render(case, Path(tmp)), encoding="utf-8")
            print(f"wrote {case}", file=sys.stderr)

"""Golden reports: the cases, their inputs and the renderer, with no test
dependency, so that the reports can be checked where only the stdlib is
installed.

The files under tests/golden/ were written by the code before the change
that first pinned them (the integer series kernel for verify, generic-arc
and nash; derived-object caching for tsch, elim, contact and mult), with
one exception: generic_arc_double_branch_p64 was written by the change that
made Newton-Puiseux stages read the whole residual, because the code before
it gave a wrong arc there; its arc is checked against the closed form in
tests/test_cli.py::test_generic_arc_on_a_double_branch_is_its_closed_form.
tsch_nonmonic_cubic and elim_split_in_the_base were written by the code
before Tschirnhausen forms were read by one splitter in `rees`.
Any later change must reproduce them exactly.  `tests/test_golden.py` compares
every case with its file.  To check them without pytest, write the reports
to a scratch directory and compare:

    PYTHONPATH=src python tests/golden_cases.py OUT && diff -r OUT tests/golden

After an intended change of output, rewrite them in place with

    PYTHONPATH=src python tests/golden_cases.py

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
    "cubic_middle": {
        "d": 1,
        "hypersurfaces": [{"var": "x", "b": 3, "f": "x^3 - 2 z^2 x - z^4 - z^5"}],
    },
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
    "mixed_truncated": {
        "d": 1,
        "hypersurfaces": [
            {"var": "x1", "b": 2, "f": "x1^2 - z^2 - z^3"},
            {"var": "x2", "b": 3, "f": "x2^3 - z^4 - z^5"},
        ],
    },
    # (x^2 - z^2 - z^3)^2: a double branch, x = t sqrt(1 - t) over z = -t
    "double_branch": {
        "d": 1,
        "hypersurfaces": [{"var": "x", "b": 4, "f": "x^4 - 2 (z^2 + z^3) x^2 + (z^2 + z^3)^2"}],
    },
    # (x - z - z^2)(x + z + z^2): a polynomial branch, x = t - t^2 over z = -t
    "polynomial_branch": {
        "d": 1,
        "hypersurfaces": [{"var": "x", "b": 2, "f": "x^2 - z^2 - 2 z^3 - z^4"}],
    },
    "two_hyp_three_base": {
        "d": 3,
        "hypersurfaces": [
            {"var": "x1", "b": 3, "f": "x1^3 - z1^4 - z2^5"},
            {"var": "x3", "b": 2, "f": "x3^2 - z1 z2 z3"},
        ],
    },
    # A leading coefficient 2 and an x^2 term: normalization divides by the
    # lead and shifts x by -z.
    "nonmonic_cubic": {
        "d": 1,
        "hypersurfaces": [{"var": "x", "b": 3, "f": "2 x^3 + 6 z x^2 + z^4"}],
    },
    # B_0 = -z1^2 - z2^3 is itself a Tschirnhausen polynomial in z1, whose
    # closure splits into z1 W and z2^3 W^2.
    "split_in_the_base": {
        "d": 2,
        "hypersurfaces": [{"var": "x", "b": 2, "f": "x^2 - z1^2 - z2^3"}],
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
    # An exact monomial arc on mixed_weights: rho = 24, with runs of 28 and
    # 25 blow-ups that are nearly all centred at the chart origin.
    "mixed_weights_monomial": {
        "precision": "exact",
        "coords": {"x1": "t^27", "x2": "t^24", "z": "t^18"},
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
    # Two truncated lifts, of ramifications 1 and 3: the arc is reparametrized
    # by their lcm 3 and carries precision 288.
    "generic_arc_mixed_truncated_p96": (
        "mixed_truncated", None, ["generic-arc", "--precision", "96"],
    ),
    # Ramification 3, then a regular tail on every third power of t (alpha = 2).
    "generic_arc_cubic_tail_alpha2_p256": (
        "cubic_tail", None, ["generic-arc", "--precision", "256", "--alpha", "2"],
    ),
    # A stage centred at the negative rational c = -1/2 (alpha = 2).
    "generic_arc_cubic_middle_alpha2_p96": (
        "cubic_middle", None, ["generic-arc", "--precision", "96", "--alpha", "2"],
    ),
    # A double root, read from the whole residual at every stage;
    # tests/test_cli.py checks each coefficient against the closed form.
    "generic_arc_double_branch_p64": (
        "double_branch", None, ["generic-arc", "--precision", "64"],
    ),
    # A polynomial root after one stage: the regular part's probe at t = 2
    # vanishes, and the root comes back exact.
    "generic_arc_polynomial_branch_p64": (
        "polynomial_branch", None, ["generic-arc", "--precision", "64"],
    ),
    "nash_cusp_shifted": ("cusp", "cusp_shifted", ["nash", "--trace"]),
    "nash_two_hyp_tilted": ("two_hyp", "two_hyp_tilted", ["nash", "--trace"]),
    "nash_mixed_weights_monomial": (
        "mixed_weights", "mixed_weights_monomial", ["nash", "--trace"],
    ),
    "tsch_needs_normalization": ("needs_normalization", None, ["tsch"]),
    "tsch_nonmonic_cubic": ("nonmonic_cubic", None, ["tsch"]),
    "elim_two_hyp": ("two_hyp", None, ["elim"]),
    "elim_split_in_the_base": ("split_in_the_base", None, ["elim"]),
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


if __name__ == "__main__":
    out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else GOLDEN_DIR
    out_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            (out_dir / f"{case}.json").write_text(render(case, Path(tmp)), encoding="utf-8")
            print(f"wrote {case}", file=sys.stderr)

"""The verify harness on presentations beyond the acceptance corpus.

Higher degrees, three base variables, equations whose Newton polygon has
several edges, and branches that only exist as truncated series: the same
identity battery must hold everywhere it can be computed exactly.
"""

from fractions import Fraction

import pytest

from nashres.cli import verify_main_theorem

from conftest import make_presentation

CASES = [
    ("cubic_with_middle_term", 1, [("x", "x^3 + z^2 x + z^4")], 1),
    ("degree_three_cusp", 1, [("x", "x^3 - z^4")], Fraction(4, 3)),
    ("degree_three_steep", 1, [("x", "x^3 - z^7")], Fraction(7, 3)),
    ("three_base_variables", 3, [("x", "x^2 - z1 z2 z3")], Fraction(3, 2)),
    ("needs_normalization", 1, [("x", "x^2 + 2z x + z^3")], 1),
    ("nonterminating_branch", 1, [("x", "x^2 - z^2 - z^3")], 1),
    (
        "mixed_weights",
        1,
        [("x1", "x1^2 - z^3"), ("x2", "x2^3 - z^4")],
        Fraction(4, 3),
    ),
    (
        "three_hypersurfaces",
        2,
        [
            ("x1", "x1^2 - z1^3"),
            ("x2", "x2^2 - z1 z2^2"),
            ("x3", "x3^2 - z2^4"),
        ],
        Fraction(3, 2),
    ),
]


@pytest.mark.parametrize("name,d,equations,expected", [c for c in CASES], ids=[c[0] for c in CASES])
def test_verify_harness_extended(name, d, equations, expected):
    p = make_presentation(d, *equations)
    assert p.elimination_order.value == expected
    results, checks = verify_main_theorem(p, trials=10, seed=11, precision=64)
    failed = [c for c in checks if c["status"] != "pass"]
    assert not failed, f"{name}: {failed}"

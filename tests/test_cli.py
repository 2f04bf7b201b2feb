import dataclasses
import decimal
import json
import random
import re
import sys
from fractions import Fraction

import pytest

from nashres import parse_poly
from nashres.cli import MAX_TRIALS, _parse_args, _parsers, main

CUSP = {"d": 1, "hypersurfaces": [{"var": "x", "b": 2, "f": "x^2 - z^3"}]}
TWO_HYP = {
    "d": 2,
    "hypersurfaces": [
        {"var": "x1", "b": 2, "f": "x1^2 - z1^3"},
        {"var": "x2", "b": 2, "f": "x2^2 - z1 z2^2"},
    ],
}
UMBRELLA = {"d": 2, "hypersurfaces": [{"var": "x", "b": 2, "f": "x^2 - z1^2*z2"}]}
PURE_SQUARE = {"d": 1, "hypersurfaces": [{"var": "x", "b": 2, "f": "x^2 + z - z"}]}
COMPLEX_BRANCH = {"d": 1, "hypersurfaces": [{"var": "x", "b": 2, "f": "x^2 + z^2"}]}
CUSP_ARC = {"precision": "exact", "coords": {"x": "t^3", "z": "t^2"}}


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--json")
    return code, json.loads(out)


def test_elim_command(tmp_path, capsys):
    pres = write(tmp_path, "p.json", CUSP)
    code, report = run_json(capsys, "elim", pres)
    assert code == 0
    assert report["results"]["presentation_order"] == "3/2"
    assert report["results"]["ambient_order_at_origin"] == "1"
    assert all(c["status"] == "pass" for c in report["checks"])


def test_contact_command(tmp_path, capsys):
    pres = write(tmp_path, "p.json", CUSP)
    arc = write(tmp_path, "a.json", CUSP_ARC)
    code, report = run_json(capsys, "contact", pres, arc)
    assert code == 0
    results = report["results"]
    assert results["r"] == "3"
    assert results["r_bar"] == "3/2"
    assert results["rho"] == 3
    assert results["rho_bar"] == "3/2"


def test_nash_command_with_trace(tmp_path, capsys):
    pres = write(tmp_path, "p.json", CUSP)
    arc = write(tmp_path, "a.json", CUSP_ARC)
    code, report = run_json(capsys, "nash", pres, arc, "--trace")
    assert code == 0
    row = report["results"]["hypersurfaces"][0]
    assert row["multiplicities"] == [2, 2, 2, 1]
    assert row["centers"] == [["0", "0"], ["0", "1"], ["1", "0"]]
    assert len(row["equations"]) == 3


def test_nash_runs_past_the_step_cap_to_the_bound_of_the_elimination_images(
    tmp_path, capsys, monkeypatch
):
    # rho = 30 on the exact arc (t^30, t^20); the cap of direct equation runs
    # does not apply to a hypersurface of a presentation
    from nashres import nash

    monkeypatch.setattr(nash, "_MAX_STEPS", 4)
    pres = write(tmp_path, "p.json", CUSP)
    arc = write(tmp_path, "a.json", {"precision": "exact", "coords": {"x": "t^30", "z": "t^20"}})
    code, report = run_json(capsys, "nash", pres, arc)
    assert code == 0
    assert report["results"]["rho"] == 30


def test_nash_reports_a_hypersurface_whose_sequence_never_drops(tmp_path, capsys):
    # along (x1, x2, z1, z2) = (t^3, 0, t^2, 0) every elimination image of the
    # x2-hypersurface x2^2 - z1 z2^2 is exactly zero, so its row says only
    # that it never drops; the x1-hypersurface drops after 3 blow-ups
    pres = write(tmp_path, "p.json", TWO_HYP)
    arc = {"precision": "exact", "coords": {"x1": "t^3", "x2": "0", "z1": "t^2", "z2": "0"}}
    code, report = run_json(capsys, "nash", pres, write(tmp_path, "a.json", arc))
    assert code == 0
    results = report["results"]
    assert (results["r"], results["rho"]) == ("3", 3)
    x1, x2 = results["hypersurfaces"]
    assert (x1["var"], x1["multiplicities"], x1["rho"]) == ("x1", [2, 2, 2, 1], 3)
    assert x2 == {"var": "x2", "drops": False}


def test_mult_command(tmp_path, capsys):
    pres = write(tmp_path, "p.json", UMBRELLA)
    code, report = run_json(capsys, "mult", pres, "--point", "0,0,5")
    assert code == 0
    assert report["results"]["hypersurfaces"][0]["multiplicity"] == 2
    assert report["results"]["in_max_mult"] is True


@pytest.mark.parametrize("point", ["1e5000,0", "1.5,0", "2^30000,0"])
def test_a_point_past_the_grammar_or_off_the_cusp_exits_2(tmp_path, point):
    # 1e5000 is 1 times an unknown identifier, not 10^5000; the grammar has no
    # decimal notation; 2^30000 is within the constant limit and off the cusp,
    # and its 9,031 digits print.
    import os
    import subprocess
    from pathlib import Path

    import nashres

    pres = write(tmp_path, "p.json", CUSP)
    env = dict(os.environ, PYTHONPATH=str(Path(nashres.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "nashres.cli", "mult", pres, "--point", point],
        capture_output=True, text=True, env=env, timeout=10,
    )
    assert done.returncode == 2, done.stderr
    assert "Traceback" not in done.stderr


def test_tsch_command(tmp_path, capsys):
    doc = {"d": 1, "hypersurfaces": [{"var": "x", "b": 2, "f": "x^2 + 2z x + z^3"}]}
    pres = write(tmp_path, "p.json", doc)
    code, report = run_json(capsys, "tsch", pres)
    assert code == 0
    assert report["results"]["hypersurfaces"][0]["coefficients"]["B_0"] == "z^3 - z^2"


def test_generic_arc_command(tmp_path, capsys):
    pres = write(tmp_path, "p.json", UMBRELLA)
    code, report = run_json(capsys, "generic-arc", pres)
    assert code == 0
    assert report["results"]["r_bar"] == "3/2"
    assert report["results"]["arc"]["coords"]["x"] == "t^3"


def test_generic_arc_with_a_2_71_constant_term(tmp_path, capsys):
    # the cubic edge x^3 - 2^71 u^4 is solved by an exact cube root, with no
    # divisor scan up to sqrt(2^71)
    import time

    doc = {"d": 1, "hypersurfaces": [{"var": "x", "b": 3, "f": "x^3 - 2361183241434822606848 z^4"}]}
    pres = write(tmp_path, "p.json", doc)
    start = time.monotonic()
    code, report = run_json(capsys, "generic-arc", pres)
    assert time.monotonic() - start < 5.0
    assert code == 0
    assert report["results"]["r_bar"] == "4/3"
    assert report["checks"] and all(c["status"] == "pass" for c in report["checks"])


def test_generic_arc_on_a_quadratic_edge_of_two_thousand_bits(tmp_path, capsys):
    # At u = +-1 the edge is c^2 - 5 2^999 c + 3 2^1999 = (c - 2^1000)(c - 3 2^999),
    # which stays quadratic in u = c^g (g = 1), so its two roots of about
    # 1,000 bits come from p-adic lifting; the smaller one, 2^1000, is picked.
    doc = {"d": 1, "hypersurfaces": [{"var": "x", "b": 4, "f": "x^4 + z^2 x^2 - 5 2^999 z^4 x + 3 2^1999 z^6"}]}
    pres = write(tmp_path, "p.json", doc)
    code, report = run_json(capsys, "generic-arc", pres)
    assert code == 0
    results = report["results"]
    assert results["r_bar"] == "1"
    assert results["arc"]["coords"]["x"].startswith(f"{2**1000}*t^2 + ")


def test_cubic_edge_with_a_middle_term_and_a_2_71_constant_exit_code(tmp_path, capsys):
    # the edge u^2 c + 2^71 u^3 + c^3 has no rational root; finding that out
    # takes squarings of a small modulus, about the log of the constant's bit
    # length, not a divisor scan
    import time

    doc = {"d": 1, "hypersurfaces": [{"var": "x", "b": 3, "f": "x^3 + z^2 x + 2361183241434822606848 z^3"}]}
    pres = write(tmp_path, "p.json", doc)
    start = time.monotonic()
    code, report = run_json(capsys, "generic-arc", pres)
    assert time.monotonic() - start < 5.0
    assert code == 4
    assert "extension" in report["results"]["error"]


@pytest.mark.parametrize(
    "b, equation", [(6, "x^6 - 3 2^30000 z^7"), (3, "x^3 + z^2 x + 3 2^30000 z^3")]
)
def test_edges_with_a_30000_bit_constant_exit_code(tmp_path, b, equation):
    # Neither edge has a rational root.  The binomial's is read as u = c^6,
    # which is linear; the middle-term edge lifts its roots mod a small m in
    # O(log bits) squarings of m, not bits / n bisection steps.
    import os
    import subprocess
    from pathlib import Path

    import nashres

    pres = write(tmp_path, "p.json", {"d": 1, "hypersurfaces": [{"var": "x", "b": b, "f": equation}]})
    env = dict(os.environ, PYTHONPATH=str(Path(nashres.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "nashres.cli", "generic-arc", pres, "--json"],
        capture_output=True, text=True, env=env, timeout=10,
    )
    assert done.returncode == 4
    assert "extension" in json.loads(done.stdout)["results"]["error"]


def test_generic_arc_on_an_edge_of_degree_1100(tmp_path):
    # The edge equation c^1100 - 1 has a degree above the interpreter's
    # default recursion limit; it is read as u - 1 in u = c^1100.
    import os
    import subprocess
    from pathlib import Path

    import nashres

    pres = write(tmp_path, "p.json", {"d": 1, "hypersurfaces": [{"var": "x", "b": 1100, "f": "x^1100 - z^1101"}]})
    env = dict(os.environ, PYTHONPATH=str(Path(nashres.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "nashres.cli", "generic-arc", pres, "--json"],
        capture_output=True, text=True, env=env, timeout=30,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["results"]["r_bar"] == "1101/1100"


def test_generic_arc_on_a_non_binomial_edge_of_degree_800(tmp_path):
    # At u = -1 the edge is c^800 - 3 c^798 - 4 c - 2, with the root c = -1.
    # Its derivatives keep more than one term; isolating real roots up their
    # chain took more than 120 s, where lifting them mod a small m is quick.
    import os
    import subprocess
    from pathlib import Path

    import nashres

    equation = "x^800 - 3 z^2 x^798 + 4 z^799 x - 2 z^800"
    pres = write(tmp_path, "p.json", {"d": 1, "hypersurfaces": [{"var": "x", "b": 800, "f": equation}]})
    env = dict(os.environ, PYTHONPATH=str(Path(nashres.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "nashres.cli", "generic-arc", pres, "--json"],
        capture_output=True, text=True, env=env, timeout=30,
    )
    assert done.returncode == 0, done.stderr
    results = json.loads(done.stdout)["results"]
    assert results["r_bar"] == "1"
    assert results["arc"]["coords"] == {"x": "-t", "z": "-t"}


def _sum_of_squares(d):
    f = " + ".join(["x^2"] + [f"z{i}^2" for i in range(1, d + 1)])
    return {"d": d, "hypersurfaces": [{"var": "x", "b": 2, "f": f}]}


def test_the_unit_search_stops_at_its_limit(tmp_path):
    # Every unit tuple of x^2 + z1^2 + ... + z5^2 needs an extension, and the
    # default cube holds 16^5 of them: the search stops after 4096 failed lifts.
    import os
    import subprocess
    from pathlib import Path

    import nashres

    pres = write(tmp_path, "p.json", _sum_of_squares(5))
    env = dict(os.environ, PYTHONPATH=str(Path(nashres.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "nashres.cli", "generic-arc", pres, "--json"],
        capture_output=True, text=True, env=env, timeout=30,
    )
    assert done.returncode == 4
    error = json.loads(done.stdout)["results"]["error"]
    assert "the first 4096 admissible unit tuples within bound 8" in error


def test_the_unit_search_covers_the_default_cube_at_d_3(tmp_path, capsys):
    # (2*8)^3 = 4096 tuples: the limit is the whole cube, and the message is
    # that of an exhausted search
    code, report = run_json(capsys, "generic-arc", write(tmp_path, "p.json", _sum_of_squares(3)))
    assert code == 4
    assert "every admissible unit tuple within bound 8" in report["results"]["error"]


def test_verify_command(tmp_path, capsys):
    pres = write(tmp_path, "p.json", CUSP)
    code, report = run_json(capsys, "verify", pres, "--trials", "5", "--seed", "7")
    assert code == 0
    assert all(c["status"] == "pass" for c in report["checks"])
    assert len(report["results"]["samples"]) == 5


def test_verify_reports_are_reproducible(tmp_path, capsys):
    pres = write(tmp_path, "p.json", UMBRELLA)
    _, first = run_json(capsys, "verify", pres, "--trials", "6", "--seed", "3")
    _, second = run_json(capsys, "verify", pres, "--trials", "6", "--seed", "3")
    first["elapsed_ms"] = second["elapsed_ms"] = 0
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


def test_verify_seed_changes_samples(tmp_path, capsys):
    pres = write(tmp_path, "p.json", CUSP)
    _, a = run_json(capsys, "verify", pres, "--trials", "6", "--seed", "3")
    _, b = run_json(capsys, "verify", pres, "--trials", "6", "--seed", "4")
    assert a["results"]["samples"] != b["results"]["samples"]


def test_parse_error_exit_code(tmp_path, capsys):
    doc = {"d": 1, "hypersurfaces": [{"var": "x", "b": 2, "f": "x^^2 - z^3"}]}
    pres = write(tmp_path, "p.json", doc)
    code, report = run_json(capsys, "elim", pres)
    assert code == 2
    assert "error" in report["results"]


def test_parentheses_past_the_nesting_limit_exit_code(tmp_path, capsys):
    from nashres.parsing import MAX_NESTING

    nested = "(" * (MAX_NESTING + 1) + "z" + ")" * (MAX_NESTING + 1)
    pres = write(tmp_path, "p.json", {"d": 1, "hypersurfaces": [{"var": "x", "b": 2, "f": f"x^2 - {nested}^3"}]})
    code, report = run_json(capsys, "elim", pres)
    assert code == 2
    assert "nest deeper than" in report["results"]["error"]
    arc = write(tmp_path, "a.json", {"precision": "exact", "coords": {"x": "t^3", "z": f"{nested}^2"}})
    code, report = run_json(capsys, "contact", write(tmp_path, "cusp.json", CUSP), arc)
    assert code == 2
    assert "nest deeper than" in report["results"]["error"]


def test_contact_with_a_coefficient_past_the_bit_limit_exit_code(tmp_path, capsys):
    pres = write(tmp_path, "p.json", CUSP)
    arc = write(tmp_path, "a.json", {"precision": 12, "coords": {"x": "(2^30000 + t)^199", "z": "t^2"}})
    code, report = run_json(capsys, "contact", pres, arc)
    assert code == 2
    assert "passes 65536 bits" in report["results"]["error"]


def _decimal_power_of_two(k):
    # the digits of 2^k by the decimal module, which no integer digit limit governs
    with decimal.localcontext() as context:
        context.prec = k  # more digits than 2^k has
        return format(decimal.Decimal(2) ** k, "f")


def test_reports_print_integers_of_more_than_4300_digits(tmp_path, capsys):
    # 2^15000 has 4,516 digits, past the default limit of str(int) on Python >= 3.11
    coords = {"x": "2^15000 t^3", "z": "2^10000 t^2"}
    arc = write(tmp_path, "a.json", {"precision": "exact", "coords": coords})
    code, report = run_json(capsys, "contact", write(tmp_path, "p.json", CUSP), arc)
    assert code == 0
    assert report["inputs"]["arc"]["coords"] == {
        "x": f"{_decimal_power_of_two(15000)}*t^3",
        "z": f"{_decimal_power_of_two(10000)}*t^2",
    }
    doc = {"d": 1, "hypersurfaces": [{"var": "x", "b": 2, "f": "x^2 - 1/2^15000 z^3"}]}
    code, report = run_json(capsys, "tsch", write(tmp_path, "q.json", doc))
    assert code == 0
    assert report["inputs"]["presentation"]["hypersurfaces"][0]["f"] == (
        f"-1/{_decimal_power_of_two(15000)}*z^3 + x^2"
    )


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"),
    reason="this interpreter converts integers of any length",
)
def test_reports_print_integers_past_the_lowest_digit_limit(tmp_path, capsys):
    # 640 is the lowest nonzero digit limit; 2^4500 has 1,355 digits, 2^3000 has 904
    arc = write(tmp_path, "a.json", {"precision": "exact", "coords": {"x": "2^4500 t^3", "z": "2^3000 t^2"}})
    pres = write(tmp_path, "p.json", CUSP)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, report = run_json(capsys, "contact", pres, arc)
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 0
    assert report["inputs"]["arc"]["coords"] == {
        "x": f"{_decimal_power_of_two(4500)}*t^3",
        "z": f"{_decimal_power_of_two(3000)}*t^2",
    }


def test_identifier_with_two_digits_exit_code(tmp_path, capsys):
    doc = {"d": 2, "hypersurfaces": [{"var": "x", "b": 2, "f": "x^2 - z1^2 z2 - z10^5"}]}
    code, report = run_json(capsys, "elim", write(tmp_path, "p.json", doc))
    assert code == 2
    assert "unknown identifier 'z10'" in report["results"]["error"]


@pytest.mark.skipif(
    getattr(sys, "get_int_max_str_digits", lambda: 0)() == 0,
    reason="this interpreter converts digit strings of any length",
)
def test_number_longer_than_int_accepts_exit_code(tmp_path, capsys):
    digits = "1" * (sys.get_int_max_str_digits() + 1)
    doc = {"d": 1, "hypersurfaces": [{"var": "x", "b": 2, "f": "x^2 - z^" + digits}]}
    pres = write(tmp_path, "p.json", doc)
    code, report = run_json(capsys, "elim", pres)
    assert code == 2
    assert f"{len(digits)}-character number" in report["results"]["error"]


def test_validation_error_exit_code(tmp_path, capsys):
    pres = write(tmp_path, "p.json", CUSP)
    arc = write(tmp_path, "a.json", {"precision": "exact", "coords": {"x": "t^2", "z": "t^2"}})
    code, report = run_json(capsys, "contact", pres, arc)
    assert code == 2
    assert "not on variety" in report["results"]["error"]


def _cusp_with(**changes):
    entry = dict(CUSP["hypersurfaces"][0], **changes)
    return {"d": 1, "hypersurfaces": [entry]}


def _cusp_without(key):
    entry = {k: v for k, v in CUSP["hypersurfaces"][0].items() if k != key}
    return {"d": 1, "hypersurfaces": [entry]}


# (presentation document, arc document or None): each shape is malformed.
MALFORMED = {
    "arc_coords_list": (CUSP, {"precision": "exact", "coords": ["t^3", "t^2"]}),
    "arc_precision_bool": (CUSP, {"precision": True, "coords": {"x": "t^3", "z": "t^2"}}),
    "entry_is_string": ({"d": 1, "hypersurfaces": ["x^2 - z^3"]}, None),
    "missing_b": (_cusp_without("b"), None),
    "missing_f": (_cusp_without("f"), None),
    "b_is_text": (_cusp_with(b="two"), None),
    "hypersurfaces_not_list": ({"d": 1, "hypersurfaces": 5}, None),
    "var_is_list": (_cusp_with(var=["x"]), None),
    "d_is_bool": ({"d": True, "hypersurfaces": CUSP["hypersurfaces"]}, None),
}


@pytest.mark.parametrize("shape", sorted(MALFORMED))
def test_malformed_documents_exit_code(tmp_path, capsys, shape):
    presentation, arc = MALFORMED[shape]
    argv = ["elim", write(tmp_path, "p.json", presentation)]
    if arc is not None:
        argv = ["contact", argv[1], write(tmp_path, "a.json", arc)]
    code, report = run_json(capsys, *argv)
    assert code == 2
    assert report["results"]["error"]


def test_insufficient_precision_exit_code(tmp_path, capsys):
    pres = write(tmp_path, "p.json", CUSP)
    arc = write(tmp_path, "a.json", {"precision": 3, "coords": {"x": "t^3", "z": "t^2"}})
    code, report = run_json(capsys, "contact", pres, arc)
    assert code == 3


def test_extension_required_exit_code(tmp_path, capsys):
    pres = write(tmp_path, "p.json", COMPLEX_BRANCH)
    code, report = run_json(capsys, "generic-arc", pres)
    assert code == 4
    assert "extension" in report["results"]["error"]


def test_a_failed_lift_names_its_equation_base_arc_and_edge(tmp_path, capsys):
    pres = write(tmp_path, "p.json", COMPLEX_BRANCH)
    code, report = run_json(capsys, "generic-arc", pres, "--search-bound", "1")
    assert code == 4
    assert report["results"]["error"] == (
        "every admissible unit tuple within bound 1 needs an algebraic extension "
        "(last: cannot lift x over the base arc z = 1 t^1: edge equation c^2 + 1 = 0 "
        "has no nonzero rational root; the branch requires an algebraic extension)"
    )


def test_max_mult_presentation_exit_code(tmp_path, capsys):
    pres = write(tmp_path, "p.json", PURE_SQUARE)
    code, report = run_json(capsys, "verify", pres, "--trials", "2")
    assert code == 2
    assert "Max mult" in report["results"]["error"]


def test_identity_violation_exit_code(tmp_path, capsys, monkeypatch):
    # a failing check must map to exit code 5
    from nashres import cli as climod

    def broken(p, **kwargs):
        return {}, [climod._check("forced", False, witness="synthetic")]

    monkeypatch.setattr(climod, "verify_main_theorem", broken)
    pres = write(tmp_path, "p.json", CUSP)
    code, report = run_json(capsys, "verify", pres)
    assert code == 5
    assert report["checks"][0]["status"] == "fail"


def test_verify_reports_a_nash_run_that_violates_an_identity_and_exits_5(
    tmp_path, capsys, monkeypatch
):
    # an IdentityViolationError of the Nash run leaves rho_geometric null in
    # every row, and the check that compares it with floor(r) fails
    from nashres import cli as climod
    from nashres.errors import IdentityViolationError

    def broken(va, trace=False):
        raise IdentityViolationError("synthetic")

    monkeypatch.setattr(climod, "nash_sequence_presentation", broken)
    code, report = run_json(capsys, "verify", write(tmp_path, "p.json", CUSP), "--trials", "3")
    assert code == 5
    assert [row["rho_geometric"] for row in report["results"]["samples"]] == [None] * 3
    status = {c["name"]: c["status"] for c in report["checks"]}
    assert status.pop("samples_rho_three_ways") == "fail"
    assert set(status.values()) == {"pass"}


def _plant_a_nash_run_off_floor_r(monkeypatch):
    """Make every Nash run report its rho plus one."""
    from nashres import nash

    true_run = nash.nash_sequence_equation

    def planted(*args, **kwargs):
        seq = true_run(*args, **kwargs)
        return dataclasses.replace(seq, rho=seq.rho + 1)

    monkeypatch.setattr(nash, "nash_sequence_equation", planted)


def test_nash_reports_the_rho_of_a_run_off_floor_r_and_exits_5(tmp_path, capsys, monkeypatch):
    # the simulation returns what it computed, and the report's check decides
    _plant_a_nash_run_off_floor_r(monkeypatch)
    pres, arc = write(tmp_path, "p.json", CUSP), write(tmp_path, "a.json", CUSP_ARC)
    code, report = run_json(capsys, "nash", pres, arc)
    assert code == 5
    assert report["results"]["rho"] == 4  # floor(r) = 3 along (t^3, t^2)
    assert report["checks"] == [
        {"name": "geometric_rho_is_floor_r", "status": "fail", "witness": ""}
    ]


def test_verify_rows_carry_the_rho_of_a_run_off_floor_r_and_exit_5(tmp_path, capsys, monkeypatch):
    _plant_a_nash_run_off_floor_r(monkeypatch)
    code, report = run_json(capsys, "verify", write(tmp_path, "p.json", CUSP), "--trials", "3")
    assert code == 5
    rows = report["results"]["samples"]
    assert [row["rho_geometric"] for row in rows] == [row["rho"] + 1 for row in rows]
    status = {c["name"]: c["status"] for c in report["checks"]}
    assert status.pop("samples_rho_three_ways") == "fail"
    assert set(status.values()) == {"pass"}


EMPTY_ALGEBRA = {
    "d": 1,
    "hypersurfaces": [
        {"var": "x1", "b": 2, "f": "x1^2 - z^3"},
        {"var": "x2", "b": 2, "f": "x2^2"},
    ],
}
NO_UNIT_TUPLE = {"d": 2, "hypersurfaces": [{"var": "x", "b": 3, "f": "x^3 - (z1^2 - z2^2)(z1 + 2 z2)"}]}

# case -> (command, presentation, arc or None, options, exit code, message fragment)
TYPED_ERRORS = {
    "generic_arc_on_an_empty_algebra": (
        "generic-arc", EMPTY_ALGEBRA, None, [], 2, "an elimination algebra is empty"
    ),
    "verify_on_an_empty_algebra": ("verify", EMPTY_ALGEBRA, None, [], 2, "an elimination algebra is empty"),
    "no_unit_tuple_within_the_bound": (
        "generic-arc", NO_UNIT_TUPLE, None, ["--search-bound", "1"], 2, "no unit tuple within bound 1"
    ),
    "the_unit_search_limit": (
        "generic-arc", COMPLEX_BRANCH, None, [], 4,
        "the first 3 admissible unit tuples within bound 8 need an algebraic extension, "
        "and the unit search stops at that limit",
    ),
    "an_arc_coordinate_named_t": (
        "contact", CUSP, {"precision": "exact", "coords": {"x": "t^3", "z": "t^2", "t": "t"}}, [], 2,
        "bad coordinate name 't'",
    ),
    "a_presentation_without_d": (
        "elim", {"hypersurfaces": CUSP["hypersurfaces"]}, None, [], 2, 'needs "d" and "hypersurfaces"'
    ),
    "a_point_of_the_wrong_width": (
        "mult", UMBRELLA, None, ["--point", "0"], 2, "point needs 3 coordinates, got 1"
    ),
}


@pytest.mark.parametrize("case", sorted(TYPED_ERRORS))
def test_typed_errors_exit_code_and_message(tmp_path, capsys, monkeypatch, case):
    from nashres import generic

    command, presentation, arc, options, expected, fragment = TYPED_ERRORS[case]
    # only the_unit_search_limit reaches the limit, after its first 3 failed lifts
    monkeypatch.setattr(generic, "MAX_FAILED_LIFTS", 3)
    argv = [command, write(tmp_path, "p.json", presentation)]
    if arc is not None:
        argv.append(write(tmp_path, "a.json", arc))
    code, report = run_json(capsys, *argv, *options)
    assert code == expected
    assert fragment in report["results"]["error"]


# Lifted over z = (-3 t^3, -3/2 t^3) at precision 21 and 30, this equation's
# branch comes back wrong below its precision (the exact root is 27/2 t^12).
TRUNCATED_LIFT_DEFECT = {
    "d": 2,
    "hypersurfaces": [{
        "var": "x",
        "b": 3,
        "f": "x^3 - 1/4 x z1^2 z2^2 - 1/3 x z1^4 z2^4 + 1/6 z1^4 z2^4 - 2/27 z1^6 z2^6",
    }],
}


@pytest.mark.parametrize("precision, x, step", [
    (21, "0", 2),
    (30, "27/2*t^12 + 243/2*t^24", 4),
])
def test_nash_on_a_wrong_truncated_lift_exit_code(tmp_path, capsys, precision, x, step):
    # the arc leaves a strict transform: a typed identity violation, not a crash
    pres = write(tmp_path, "p.json", TRUNCATED_LIFT_DEFECT)
    coords = {"x": x, "z1": "-3*t^3", "z2": "-3/2*t^3"}
    arc = write(tmp_path, "a.json", {"precision": precision, "coords": coords})
    code, report = run_json(capsys, "nash", pres, arc)
    assert code == 5
    assert f"left the strict transform at step {step}" in report["results"]["error"]


DOUBLE_BRANCH = {
    "d": 1,
    "hypersurfaces": [{"var": "x", "b": 4, "f": "x^4 - 2 (z^2 + z^3) x^2 + (z^2 + z^3)^2"}],
}


@pytest.mark.parametrize("precision", [32, 64])
def test_generic_arc_on_a_double_branch_is_its_closed_form(tmp_path, capsys, precision):
    # (x^2 - z^2 - z^3)^2: over z = -t the double root is x = t sqrt(1 - t), whose
    # t^k coefficient is the t^(k-1) coefficient binom(1/2, k-1) (-1)^(k-1) of
    # sqrt(1 - t).  Every coefficient below the precision is checked.
    code, report = run_json(
        capsys, "generic-arc", write(tmp_path, "p.json", DOUBLE_BRANCH), "--precision", str(precision)
    )
    assert code == 0
    results = report["results"]
    assert results["units"] == ["-1"] and results["ramification"] == 1
    assert results["arc"]["precision"] == precision
    x = parse_poly(results["arc"]["coords"]["x"]).terms
    sign = x[(1,)]
    assert sign in (1, -1)
    binomial = Fraction(1)  # binom(1/2, k - 1) (-1)^(k - 1)
    for k in range(1, precision):
        assert x.get((k,), 0) == sign * binomial, f"coefficient of t^{k}"
        binomial *= -(Fraction(1, 2) - (k - 1)) / k
    assert max(exp[0] for exp in x) < precision


def test_human_readable_output(tmp_path, capsys):
    pres = write(tmp_path, "p.json", CUSP)
    code, out = run(capsys, "elim", pres)
    assert code == 0
    assert "presentation_order: 3/2" in out
    assert "check ambient_order_is_one: pass" in out


def test_arc_coefficients_are_stored_below_the_precision_only(tmp_path, capsys):
    import tracemalloc

    from nashres.parsing import _read_printed

    # Each x is in the printed form, so the printed reader sizes it: a term
    # far above the precision, a zero term far above it, and a cancelling
    # pair.  Exact, the first needs 300001 coefficients and is refused.
    pres = write(tmp_path, "p.json", CUSP)
    for x in ("t^3 + t^300000", "t^3 + 0*t^99999999", "t^3 + t^200000 - t^200000"):
        assert _read_printed(x) is not None, x
        for precision in (8, "exact"):
            arc = write(tmp_path, "a.json", {"precision": precision, "coords": {"x": x, "z": "t^2"}})
            tracemalloc.start()
            try:
                code, report = run_json(capsys, "contact", pres, arc)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            if precision == "exact" and x == "t^3 + t^300000":
                assert code == 2
                assert "needs 300001 coefficients" in report["results"]["error"]
            else:
                assert code == 0, (x, precision, report)
                assert report["results"]["r"] == "3"
            # a dense list up to t^200000 alone takes 1.6 MB
            assert peak < 1_000_000, (x, precision, peak)


def test_exact_arc_coordinate_above_the_coefficient_limit_exit_code(tmp_path, capsys):
    from nashres.parsing import MAX_ARC_COEFFS

    pres = write(tmp_path, "p.json", CUSP)
    x = f"t^3 + t^{MAX_ARC_COEFFS}"
    arc = write(tmp_path, "a.json", {"precision": "exact", "coords": {"x": x, "z": "t^2"}})
    code, report = run_json(capsys, "contact", pres, arc)
    assert code == 2
    assert "limit" in report["results"]["error"]


@pytest.mark.parametrize(
    "arc_x, equation",
    [("(t+1)^2000", "x^2 - z^3"), ("t^3", "(x+z1+z2+1)^50")],
)
def test_power_of_a_sum_above_the_expansion_limit_exit_code(tmp_path, capsys, arc_x, equation):
    import time

    pres = write(tmp_path, "p.json", {"d": 1, "hypersurfaces": [{"var": "x", "b": 2, "f": equation}]})
    arc = write(tmp_path, "a.json", {"precision": "exact", "coords": {"x": arc_x, "z": "t^2"}})
    start = time.monotonic()
    code, report = run_json(capsys, "contact", pres, arc)
    assert time.monotonic() - start < 1.0
    assert code == 2
    assert "expands past" in report["results"]["error"]


def test_product_of_sums_above_the_expansion_limit_exit_code(tmp_path, capsys):
    import time

    # 14 two-term factors in distinct variables would expand to 16,384 terms
    factors = "".join(f"({v}+1)" for v in ("x", "z", "z1", "z2", "z3", "z4", "z5", "z6", "z7",
                                             "z8", "z9", "x1", "x2", "x3"))
    pres = write(tmp_path, "p.json", {"d": 1, "hypersurfaces": [{"var": "x", "b": 2, "f": factors}]})
    start = time.monotonic()
    code, report = run_json(capsys, "elim", pres)
    assert time.monotonic() - start < 1.0
    assert code == 2
    assert "expands past" in report["results"]["error"]


def test_power_of_a_constant_above_the_bit_limit_exit_code(tmp_path, capsys):
    import time

    pres = write(tmp_path, "p.json", {"d": 1, "hypersurfaces": [{"var": "x", "b": 2, "f": "x^2 - 3^10000000 z^3"}]})
    start = time.monotonic()
    code, report = run_json(capsys, "elim", pres)
    assert time.monotonic() - start < 1.0
    assert code == 2
    assert "bits" in report["results"]["error"]


_CALLS_SCRIPT = """
import contextlib, io, json, re, sys
from nashres.cli import main
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as stop:
            code = stop.code
    print(json.dumps([code, re.sub(r'"elapsed_ms": [0-9]+', "", out.getvalue())]))
"""


def test_parser_is_built_once_and_calls_stay_independent(tmp_path):
    import os
    import subprocess
    from pathlib import Path

    import nashres

    assert _parsers() is _parsers()
    env = dict(os.environ, PYTHONPATH=str(Path(nashres.__file__).parents[1]))

    def fresh_process(*calls):
        done = subprocess.run(
            [sys.executable, "-c", _CALLS_SCRIPT, json.dumps(calls)],
            capture_output=True, text=True, check=True, env=env, timeout=60,
        )
        return [json.loads(line) for line in done.stdout.splitlines()]

    bad = write(tmp_path, "bad.json", {"d": 1, "hypersurfaces": [{"var": "x", "b": 2, "f": "x^2 - z^"}]})
    good = write(tmp_path, "good.json", CUSP)
    parse_error = ["verify", bad, "--json", "--trials", "4", "--seed", "3"]
    usage_error = ["verify", good, "--trials", "many"]
    passing = ["verify", good, "--json", "--trials", "4", "--seed", "3"]
    together = fresh_process(parse_error, usage_error, passing)
    assert [code for code, _ in together] == [2, 2, 0]
    assert together == fresh_process(parse_error) + fresh_process(usage_error) + fresh_process(passing)


@pytest.mark.parametrize(
    "argv, option",
    [
        (["generic-arc", "--precision", "-5"], "--precision"),
        (["verify", "--precision", "-5"], "--precision"),
        (["generic-arc", "--precision", "0"], "--precision"),
        (["generic-arc", "--precision", "1025"], "--precision"),
        (["verify", "--precision", "1025"], "--precision"),
        (["verify", "--trials", "-3"], "--trials"),
        (["generic-arc", "--alpha", "0"], "--alpha"),
        (["generic-arc", "--alpha", "1025"], "--alpha"),
        (["verify", "--alpha", "0"], "--alpha"),
        (["verify", "--alpha", "10000000"], "--alpha"),
        (["generic-arc", "--search-bound", "0"], "--search-bound"),
        (["generic-arc", "--search-bound", "-3"], "--search-bound"),
        (["verify", "--search-bound", "0"], "--search-bound"),
        (["verify", "--search-bound", "-3"], "--search-bound"),
        (["verify", "--trials", str(MAX_TRIALS + 1)], "--trials"),
    ],
)
def test_out_of_range_numeric_options_exit_code(tmp_path, capsys, argv, option):
    import time

    from nashres.cli import MAX_PRECISION

    assert MAX_PRECISION == 1024
    pres = write(tmp_path, "p.json", CUSP)
    arc = write(tmp_path, "a.json", CUSP_ARC)
    argv = [argv[0], pres] + [arc if a == "ARC" else a for a in argv[1:]]
    start = time.monotonic()
    with pytest.raises(SystemExit) as info:
        main(argv + ["--json"])
    assert time.monotonic() - start < 1.0
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {option}" in captured.err


def _documented_options():
    """{subcommand: its options}, read from the README's subcommand table."""
    from pathlib import Path

    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("Subcommands (add `--json`", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    options = {}
    for line in table.splitlines():
        words = line.split("#")[0].split()
        options[words[1]] = {"--json"} | {w.strip("[]") for w in words[2:] if w.startswith("[--")}
    return options


def test_every_subcommand_takes_exactly_its_documented_options():
    import argparse

    documented = _documented_options()
    (subcommands,) = [a for a in _parsers()[0]._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(subcommands.choices) == set(documented)
    for name, sp in subcommands.choices.items():
        taken = {option for action in sp._actions for option in action.option_strings}
        assert taken - {"-h", "--help"} == documented[name], name
    assert sum(map(len, documented.values())) == 17
    assert documented["verify"] >= {"--precision", "--alpha", "--search-bound", "--trials", "--seed"}


def _parse_outcome(capsys, parse, argv):
    """(exit code or None, stdout, stderr, namespace or None) of parse(argv)."""
    try:
        namespace, code = parse(argv), None
    except SystemExit as stop:
        namespace, code = None, stop.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err, namespace


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["-h"],
        ["bogus", "PRES"],
        ["contact"],
        ["contact", "-h"],
        ["contact", "PRES", "ARC", "--bogus"],
        ["elim", "PRES", "extra"],
        ["generic-arc", "PRES", "--prec", "8"],
        ["generic-arc", "PRES", "--precision=8"],
        ["verify", "PRES", "--trials", "many"],
        ["contact", "--", "PRES", "ARC"],
        ["--json", "contact", "PRES", "ARC"],
    ],
    ids=lambda argv: " ".join(argv) or "no arguments",
)
def test_main_parses_its_arguments_as_the_whole_parser_does(tmp_path, capsys, argv):
    files = {"PRES": write(tmp_path, "p.json", CUSP), "ARC": write(tmp_path, "a.json", CUSP_ARC)}
    argv = [files.get(a, a) for a in argv]
    code, out, err, expected = _parse_outcome(capsys, _parsers()[0].parse_args, argv)
    if expected is None:
        assert code == (0 if "-h" in argv else 2)
        assert _parse_outcome(capsys, main, argv) == (code, out, err, None)
    else:
        assert _parse_outcome(capsys, _parse_args, argv)[:3] == (None, "", "")
        assert vars(_parse_args(argv)) == vars(expected)
        assert main(argv) == 0
        assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "argv",
    [["nash", "ARC", "--precision", "0"], ["contact", "ARC", "--precision", "5"]]
    + [[name, "--precision", "5"] for name in ("mult", "tsch", "elim")]
    + [[name, "ARC", "--seed", "7"] for name in ("contact", "nash")]
    + [[name, "--seed", "7"] for name in ("mult", "tsch", "elim", "generic-arc")],
)
def test_options_a_subcommand_does_not_read_exit_code(tmp_path, capsys, argv):
    pres = write(tmp_path, "p.json", CUSP)
    arc = write(tmp_path, "a.json", CUSP_ARC)
    argv = [argv[0], pres] + [arc if a == "ARC" else a for a in argv[1:]]
    with pytest.raises(SystemExit) as info:
        main(argv + ["--json"])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {argv[-2]} {argv[-1]}" in captured.err


def test_numeric_options_at_their_bounds_are_accepted(tmp_path, capsys):
    import time

    pres = write(tmp_path, "p.json", CUSP)
    start = time.monotonic()
    code, report = run_json(capsys, "verify", pres, "--trials", "0", "--precision", "1024")
    assert code == 0
    assert report["inputs"]["trials"] == 0
    assert report["inputs"]["defaults"]["precision"] == 1024
    code, report = run_json(capsys, "generic-arc", pres, "--precision", "1")
    assert code == 3
    code, report = run_json(capsys, "generic-arc", pres, "--search-bound", "1")
    assert code == 0
    assert report["inputs"]["defaults"]["search_bound"] == 1
    assert time.monotonic() - start < 1.0


def _content(arc):
    return tuple(sorted(arc.coords.items()))


def _reference_samples(p, trials, seed, precision=64, search_bound=8):
    """The rows of verify's samples, recomputed with no reuse at all.

    Replays the sampler's draws on a fresh RNG: every sample's arc is lifted
    or derived anew, then validated, and its contact, one-dimensional steps
    and Nash sequence are computed from it alone.
    """
    from itertools import islice

    from nashres.arcs import validate_arc
    from nashres.errors import ExtensionRequiredError, IdentityViolationError
    from nashres.generic import admissible_unit_tuples, construct_generic_arc, lift_monomial_base
    from nashres.nash import nash_sequence_presentation
    from nashres.parsing import arc_to_document
    from nashres.poly import fraction_text
    from nashres.rees import onedim_resolution_steps
    from nashres.series import PowerSeries

    generic = construct_generic_arc(p, search_bound=search_bound, precision=precision).arc.arc
    algebras = [h.elimination_algebra for h in p.hypersurfaces]
    admissible = list(islice(admissible_unit_tuples(algebras, p.d, search_bound), 6))
    scales = [Fraction(c) for c in ("1", "-1", "2", "-2", "3", "1/2", "-1/2")]
    rng = random.Random(seed)
    rows = []
    for k in range(trials):
        kind = rng.choice(("reparam", "scale", "deform", "fresh", "skew", "reparam_scale"))
        arc = generic
        try:
            if kind == "fresh":
                alpha = rng.randint(1, 3)
                u = admissible[rng.randrange(len(admissible))]
                arc = lift_monomial_base(p, u, (alpha,) * p.d, precision).arc
            elif kind == "skew":
                u = admissible[rng.randrange(len(admissible))]
                exponents = tuple(rng.randint(1, 3) for _ in range(p.d))
                arc = lift_monomial_base(p, u, exponents, precision).arc
            if kind in ("reparam", "reparam_scale"):
                arc = arc.reparametrize(rng.randint(2, 3))
            if kind in ("scale", "reparam_scale"):
                arc = arc.scale_parameter(rng.choice(scales))
            if kind == "deform":
                arc = arc.substitute_parameter(PowerSeries((0, 1, rng.choice(scales))))
        except ExtensionRequiredError:
            arc = generic.reparametrize(rng.randint(2, 3))
        va = validate_arc(arc, p)
        c = va.contact
        try:
            geo_rho = nash_sequence_presentation(va).rho
        except IdentityViolationError:
            geo_rho = None
        rows.append({
            "name": f"trial-{k}",
            "arc": arc_to_document(va.arc),
            "r": fraction_text(c.r),
            "r_bar": fraction_text(c.r_bar),
            "rho": c.rho,
            "rho_bar": fraction_text(c.rho_bar),
            "arc_order": c.arc_order,
            "rho_onedim": onedim_resolution_steps(c.image),
            "rho_geometric": geo_rho,
        })
    return rows


@pytest.mark.parametrize("name", ["cusp", "two_hyp"])
@pytest.mark.parametrize("seed", [7, 3])
def test_verify_computes_each_distinct_sampled_arc_once(monkeypatch, name, seed):
    # within one call, and across a second call at the other seed on an
    # equal presentation loaded apart, which shares the sampler slot
    from collections import Counter

    from nashres import cli as climod
    from nashres.parsing import load_presentation

    doc, other_seed = CUSP if name == "cusp" else TWO_HYP, {7: 3, 3: 7}[seed]
    p, again = load_presentation(doc), load_presentation(doc)
    assert p == again and p is not again
    validated, lifted, nash_runs, searched = Counter(), Counter(), Counter(), Counter()

    def spy(counter, key, fn):
        def wrapped(*args, **kwargs):
            counter[key(*args)] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(
        climod, "validate_arc", spy(validated, lambda a, p: _content(a), climod.validate_arc)
    )
    monkeypatch.setattr(
        climod, "lift_monomial_base",
        spy(lifted, lambda p, u, e, prec: (tuple(u), tuple(e)), climod.lift_monomial_base),
    )
    monkeypatch.setattr(
        climod, "nash_sequence_presentation",
        spy(nash_runs, lambda va: _content(va.arc), climod.nash_sequence_presentation),
    )
    monkeypatch.setattr(
        climod, "construct_generic_arc",
        spy(searched, lambda p: p, climod.construct_generic_arc),
    )
    results, checks = climod.verify_main_theorem(p, trials=20, seed=seed)
    first_runs = sum(nash_runs.values())
    more, more_checks = climod.verify_main_theorem(again, trials=20, seed=other_seed)
    monkeypatch.undo()

    assert all(c["status"] == "pass" for c in checks + more_checks)
    assert sum(searched.values()) == 1
    assert set(validated.values()) <= {1}
    assert set(lifted.values()) <= {1}
    assert set(nash_runs.values()) <= {1}
    # repeats occur within the first call and between the two calls, so the
    # reuse is exercised
    assert first_runs < 20
    distinct = {json.dumps(row["arc"], sort_keys=True) for row in more["samples"]}
    assert sum(nash_runs.values()) - first_runs < len(distinct)
    assert results["samples"] == _reference_samples(p, trials=20, seed=seed)
    assert more["samples"] == _reference_samples(again, trials=20, seed=other_seed)


@pytest.mark.parametrize("seed", [7, 3])
def test_verify_lifts_each_units_and_exponents_once(monkeypatch, seed):
    # The generic-arc search and the sampler share their lifts, failed ones
    # included: over the acceptance and extended corpora, no (units,
    # exponents) is lifted twice in one verify run that starts with no
    # sampler slot (cusp and A_2 are equal, and would share one).
    from collections import Counter

    from nashres import cli as climod
    from nashres import generic
    from nashres.errors import ExtensionRequiredError

    from conftest import a_n, make_presentation
    from test_harness_extended import CASES

    corpus = [
        make_presentation(1, ("x", "x^2 - z^3")),
        make_presentation(2, ("x", "x^2 - z1^2 z2")),
        make_presentation(2, ("x1", "x1^2 - z1^3"), ("x2", "x2^2 - z1 z2^2")),
        *(a_n(n) for n in range(1, 9)),
        *(make_presentation(d, *equations) for _, d, equations, _ in CASES),
    ]
    lifted, failed = Counter(), Counter()
    original = generic.lift_monomial_base

    def spy(p, units, exponents, precision=64):
        key = (tuple(Fraction(u) for u in units), tuple(exponents), precision)
        lifted[key] += 1
        try:
            return original(p, units, exponents, precision)
        except ExtensionRequiredError:
            failed[key] += 1
            raise

    monkeypatch.setattr(generic, "lift_monomial_base", spy)
    monkeypatch.setattr(climod, "lift_monomial_base", spy)
    for p in corpus:
        lifted.clear()
        climod._sampler.cache_clear()
        climod.verify_main_theorem(p, trials=20, seed=seed)
        assert set(lifted.values()) == {1}, [k for k, n in lifted.items() if n > 1]
    assert failed  # failed lifts are exercised, not only successful ones


MIXED_WEIGHTS = {
    "d": 1,
    "hypersurfaces": [
        {"var": "x1", "b": 2, "f": "x1^2 - z^3"},
        {"var": "x2", "b": 3, "f": "x2^3 - z^4"},
    ],
}


@pytest.mark.parametrize("name", ["cusp", "two_hyp", "mixed_weights"])
@pytest.mark.parametrize("seed", ["7", "3"])
def test_verify_checks_the_arc_once_per_run_on_its_last_transform(
    tmp_path, capsys, monkeypatch, name, seed
):
    # a sequence that passes checks its arc once, on the transform at step rho
    # where the multiplicity dropped, and makes each of its blow-ups once
    from nashres import nash

    doc = {"cusp": CUSP, "two_hyp": TWO_HYP, "mixed_weights": MIXED_WEIGHTS}[name]
    checked, rhos, steps = [], [], []
    check, run, step = nash.NashState.check_arc_on_transform, nash.nash_sequence_equation, nash.nash_step

    def check_spy(state):
        checked.append(state.step)
        return check(state)

    def run_spy(*args, **kwargs):
        seq = run(*args, **kwargs)
        rhos.append(seq.rho)
        return seq

    def step_spy(state, m0):
        steps.append(state.step + 1)
        return step(state, m0)

    monkeypatch.setattr(nash.NashState, "check_arc_on_transform", check_spy)
    monkeypatch.setattr(nash, "nash_sequence_equation", run_spy)
    monkeypatch.setattr(nash, "nash_step", step_spy)
    code, report = run_json(capsys, "verify", write(tmp_path, "p.json", doc), "--seed", seed)
    assert code == 0
    assert all(c["status"] == "pass" for c in report["checks"])
    assert rhos and checked == rhos
    assert len(steps) == sum(rhos)


# -- the presentations main keeps, by file text ---------------------------------


def test_a_rewritten_presentation_file_is_loaded_anew(tmp_path, capsys):
    pres = write(tmp_path, "p.json", CUSP)
    code, report = run_json(capsys, "elim", pres)
    assert (code, report["results"]["presentation_order"]) == (0, "3/2")
    write(tmp_path, "p.json", {"d": 1, "hypersurfaces": [{"var": "x", "b": 2, "f": "x^2 - z^5"}]})
    code, report = run_json(capsys, "elim", pres)
    assert (code, report["results"]["presentation_order"]) == (0, "5/2")
    assert report["inputs"]["presentation"]["hypersurfaces"][0]["f"] == "-z^5 + x^2"


def test_a_presentation_fixed_at_the_same_path_loads(tmp_path, capsys):
    from nashres.cli import _loaded_presentation

    pres = write(tmp_path, "p.json", _cusp_without("b"))
    for _ in range(2):
        code, report = run_json(capsys, "elim", pres)
        assert code == 2 and report["results"]["error"]
    assert _loaded_presentation.cache_info().currsize == 0
    write(tmp_path, "p.json", CUSP)
    code, report = run_json(capsys, "elim", pres)
    assert (code, report["results"]["presentation_order"]) == (0, "3/2")


def test_malformed_json_names_its_own_path_on_every_call(tmp_path, capsys):
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    for path in (first, second):
        path.write_text('{"d": 1, "hypersurfaces": [')
    for path in (first, first, second):
        code, report = run_json(capsys, "elim", str(path))
        assert code == 2
        assert report["results"]["error"].startswith(f"{path} is not valid JSON: ")


@pytest.mark.parametrize("refusal", ["nesting", "digits"])
@pytest.mark.parametrize("role", ["presentation", "arc"])
def test_json_the_decoder_refuses_without_a_decode_error_exits_2(tmp_path, capsys, role, refusal):
    # the decoder raises RecursionError on deep nesting and ValueError on an
    # integer past int()'s digit limit, not JSONDecodeError
    from nashres.cli import _loaded_presentation

    if refusal == "nesting":
        text = "[" * 100_000 + "]" * 100_000
    else:
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            pytest.skip("this interpreter reads integers of any length")
        digits = "1" * (limit + 1)
        if role == "presentation":
            text = f'{{"d": {digits}, "hypersurfaces": {json.dumps(CUSP["hypersurfaces"])}}}'
        else:
            text = f'{{"precision": {digits}, "coords": {json.dumps(CUSP_ARC["coords"])}}}'
    pres = write(tmp_path, "p.json", CUSP)
    for name in ("first.json", "second.json"):
        path = tmp_path / name
        path.write_text(text)
        argv = ["elim", str(path)] if role == "presentation" else ["contact", pres, str(path)]
        code, report = run_json(capsys, *argv)
        assert code == 2
        assert report["results"]["error"].startswith(f"{path} is not valid JSON: ")
    assert _loaded_presentation.cache_info().currsize == (role == "arc")


@pytest.mark.parametrize("role", ["presentation", "arc"])
def test_a_file_that_is_not_utf8_exits_2(tmp_path, capsys, role):
    path = tmp_path / "bad.json"
    path.write_bytes(b'{"d": 1, "\xff": []}')
    argv = ["elim", str(path)] if role == "presentation" else ["contact", write(tmp_path, "p.json", CUSP), str(path)]
    code, report = run_json(capsys, *argv)
    assert code == 2
    assert report["results"]["error"].startswith(f"cannot read {path}: ")


def test_a_value_error_of_loading_a_presentation_is_not_read_as_json(tmp_path, capsys, monkeypatch):
    from nashres import cli as climod

    def refuse(document):
        raise ValueError("not a JSON error")

    monkeypatch.setattr(climod, "load_presentation", refuse)
    with pytest.raises(ValueError, match="not a JSON error"):
        main(["elim", write(tmp_path, "p.json", CUSP)])
    assert climod._loaded_presentation.cache_info().currsize == 0


@pytest.mark.parametrize("command", ["contact", "elim", "verify"])
def test_a_kept_presentation_gives_the_same_report(tmp_path, capsys, monkeypatch, command):
    from nashres import cli as climod

    loads = []
    real = climod.load_presentation
    monkeypatch.setattr(climod, "load_presentation", lambda doc: loads.append(doc) or real(doc))
    argv = [command, write(tmp_path, "p.json", TWO_HYP)]
    if command == "contact":
        arc = {"precision": "exact", "coords": {"x1": "t^3", "x2": "t^4", "z1": "t^2", "z2": "t^3"}}
        argv.append(write(tmp_path, "a.json", arc))
    reports = [run(capsys, *argv, "--json") for _ in range(2)]
    assert [code for code, _ in reports] == [0, 0]
    first, second = (re.sub(r'"elapsed_ms": [0-9]+', "", out) for _, out in reports)
    assert first == second
    assert len(loads) == 1


def test_main_keeps_at_most_its_stated_number_of_presentations(tmp_path, capsys):
    # and verify keeps as many sampler slots, one per presentation here
    from nashres.cli import PRESENTATION_MEMO_SIZE, _loaded_presentation, _sampler

    paths = [
        write(tmp_path, f"a{n}.json", {"d": 1, "hypersurfaces": [{"var": "x", "b": 2, "f": f"x^2 - z^{n}"}]})
        for n in range(2, PRESENTATION_MEMO_SIZE + 7)
    ]
    for path in paths:
        assert run(capsys, "verify", path, "--trials", "0")[0] == 0
    for memo in (_loaded_presentation, _sampler):
        info = memo.cache_info()
        assert (info.currsize, info.maxsize, info.misses) == (PRESENTATION_MEMO_SIZE,) * 2 + (len(paths),)
    # the last one read is kept, the first was dropped
    run(capsys, "verify", paths[-1], "--trials", "0")
    run(capsys, "verify", paths[0], "--trials", "0")
    for memo in (_loaded_presentation, _sampler):
        info = memo.cache_info()
        assert (info.hits, info.misses) == (1, len(paths) + 1)


# its generic arc, x = t^2 (1 - t)^(1/2) along z = -t at alpha 1, is no
# polynomial, so the report shows both the precision and alpha
TAIL = {"d": 1, "hypersurfaces": [{"var": "x", "b": 2, "f": "x^2 - z^4 - z^5"}]}


@pytest.mark.parametrize(
    "option, first, second",
    [("--precision", "16", "64"), ("--alpha", "1", "2"), ("--search-bound", "4", "8")],
)
def test_verify_after_another_setting_reports_what_it_reports_with_nothing_kept(
    tmp_path, capsys, option, first, second
):
    from nashres.cli import _loaded_presentation, _sampler

    pres = write(tmp_path, "p.json", TAIL)

    def report(value):
        code, out = run(capsys, "verify", pres, option, value, "--json")
        assert code == 0
        return re.sub(r'"elapsed_ms": [0-9]+', "", out)

    kept = [report(first), report(second)]
    assert _sampler.cache_info().currsize == 2
    fresh = []
    for value in (first, second):
        _loaded_presentation.cache_clear()
        _sampler.cache_clear()
        fresh.append(report(value))
    assert kept == fresh


def test_a_verify_whose_generic_arc_search_raises_keeps_no_sampler_slot(tmp_path, capsys):
    from nashres.cli import _sampler

    pres = write(tmp_path, "p.json", COMPLEX_BRANCH)
    for _ in range(2):
        code, report = run_json(capsys, "verify", pres)
        assert code == 4 and "extension" in report["results"]["error"]
        assert _sampler.cache_info().currsize == 0


def test_a_sampler_slot_holding_more_than_max_trials_arcs_starts_afresh(monkeypatch):
    from nashres import cli as climod
    from nashres.parsing import load_presentation

    p = load_presentation(TWO_HYP)

    def kept_after(seed):
        results, _ = climod.verify_main_theorem(p, trials=20, seed=seed)
        slot = climod._sampler(p, 1, 8, 64)  # alpha, search bound and precision by default
        return results, set(slot.arcs)

    alone = {}
    for seed in (7, 3):
        climod._sampler.cache_clear()
        alone[seed] = kept_after(seed)
    held = len(alone[7][1])
    assert alone[7][1] - alone[3][1]  # so whether the slot started afresh shows
    # a slot of `held` arcs is kept at MAX_TRIALS = held, started afresh below it
    for limit, arcs in ((held, alone[7][1] | alone[3][1]), (held - 1, alone[3][1])):
        monkeypatch.setattr(climod, "MAX_TRIALS", limit)
        climod._sampler.cache_clear()
        kept_after(7)
        results, kept = kept_after(3)
        assert kept == arcs
        assert results == alone[3][0]

import dataclasses
import json
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

from nashres import (
    ReesGenerator,
    algebra_order_at,
    arc_order,
    build_diagonal_arc,
    construct_generic_arc,
    contact_order,
    elimination_algebra,
    lift_monomial_base,
    lift_to_presentation,
    parse_poly,
    tschirnhausen_normalize,
    validate_arc,
)
from nashres import generic, series
from nashres.errors import ExtensionRequiredError, IdentityViolationError, MaxMultArcError
from nashres.generic import _equation_on_base, admissible_unit_tuples, unit_tuples
from nashres.poly import MultiPoly
from nashres.presentation import LocalPresentation
from nashres.series import PowerSeries

from conftest import a_n, make_presentation


def test_unit_enumeration_order():
    assert list(unit_tuples(1, 2)) == [(-1,), (1,), (-2,), (2,)]
    first = list(unit_tuples(2, 2))[:6]
    assert first == [(-1, -1), (-1, 1), (1, -1), (1, 1), (-2, -2), (-2, -1)]


def test_find_units_single_variable(cusp):
    algebra = elimination_algebra(cusp.hypersurfaces[0])
    assert next(admissible_unit_tuples([algebra], 1, 8)) == (-1,)


def test_find_units_umbrella(umbrella):
    algebra = elimination_algebra(umbrella.hypersurfaces[0])
    assert next(admissible_unit_tuples([algebra], 2, 8)) == (-1, -1)


def test_find_units_skips_vanishing_initial_form():
    # raw z1^2 - z2^2 at weight 2: first tuple with u1^2 != u2^2 is (-2, -1)
    f = parse_poly("z1^2 - z2^2")
    algebra = (ReesGenerator(f, 2),)
    assert next(admissible_unit_tuples([algebra], 2, 8)) == (-2, -1)


def _reference_admissible(algebras, d, bound, first_only=False):
    """The unit search read the long way: each algebra's order by
    `algebra_order_at` at the origin, then every minimizing generator's
    initial form rebuilt and evaluated at each tuple.  With `first_only`,
    only the first minimizing generator of each algebra is kept."""
    witnesses = []
    for algebra in algebras:
        origin = (Fraction(0),) * len(algebra[0].f.vars)
        order = algebra_order_at(algebra, origin)
        minimizing = [
            g.f for g in algebra if g.f.order_at(origin).divided_by(g.weight) == order
        ]
        witnesses += minimizing[:1] if first_only else minimizing
    return [
        u
        for u in unit_tuples(d, bound)
        if all(w.initial_form().eval_at([Fraction(v) for v in u]) != 0 for w in witnesses)
    ]


def _random_algebra(rng, variables):
    """One to four generators of weight 1..3 and order weight or 2 weight,
    whose initial forms have two or three terms and often vanish at units."""

    def exponent(n):
        cuts = sorted(rng.randint(0, n) for _ in range(len(variables) - 1))
        return tuple(b - a for a, b in zip([0, *cuts], [*cuts, n]))

    pairs = []
    for _ in range(rng.randint(1, 4)):
        w = rng.randint(1, 3)
        low = w * rng.choice([1, 1, 2])
        terms = {exponent(low + rng.randint(1, 2)): rng.choice([-1, 3])}
        for _ in range(rng.randint(2, 3)):
            terms[exponent(low)] = rng.choice([-2, -1, 1, 2])
        pairs.append((MultiPoly(variables, terms), w))
    return tuple(ReesGenerator(f, n) for f, n in pairs)


def test_unit_search_matches_the_reference_on_the_workload_presentations():
    from report_digest import TABLES, workloads

    from nashres.parsing import load_presentation

    for table in TABLES:
        for name in table:
            p = load_presentation(workloads.presentation_document(name))
            algebras = [h.elimination_algebra for h in p.hypersurfaces]
            got = list(admissible_unit_tuples(algebras, p.d, 4))
            assert got == _reference_admissible(algebras, p.d, 4), name


def test_unit_search_matches_the_reference_on_random_algebras():
    rng = random.Random(20151121)
    outcomes = Counter()
    for _ in range(120):
        d = rng.randint(1, 3)
        variables = tuple(f"z{k}" for k in range(1, d + 1))
        algebras = [_random_algebra(rng, variables) for _ in range(rng.randint(1, 2))]
        expected = _reference_admissible(algebras, d, 3)
        assert list(admissible_unit_tuples(algebras, d, 3)) == expected
        if len(expected) < len(list(unit_tuples(d, 3))):
            outcomes["a tuple refused"] += 1
        if _reference_admissible(algebras, d, 3, first_only=True) != expected:
            outcomes["a later minimizer refuses a tuple"] += 1
    assert min(outcomes.values()) >= 20 and len(outcomes) == 2, outcomes


def _lift_equation(h, units, exponents, precision):
    """One branch of h over the base arc z_v -> u_v t^(a_v), and its ramification."""
    F = _equation_on_base(h, units, exponents)
    return generic._newton_puiseux_root(generic._singular_part(F, h.var, precision))


def test_puiseux_cusp(cusp):
    h = cusp.hypersurfaces[0]
    root, e = _lift_equation(h, [1], [1], 64)
    assert e == 2
    assert root.is_exact
    assert root.coeffs == (0, 0, 0, 1)  # t^3 after t -> t^2


def test_puiseux_umbrella_alpha_two(umbrella):
    h = umbrella.hypersurfaces[0]
    root, e = _lift_equation(h, [1, 1], [2, 2], 64)
    assert e == 1
    assert root.coeffs == (0, 0, 0, 1)


def test_puiseux_requires_rational_branch():
    h = tschirnhausen_normalize(parse_poly("x^2 + z^2"), "x")
    with pytest.raises(ExtensionRequiredError):
        _lift_equation(h, [1], [1], 64)


def test_puiseux_nonterminating_branch_truncates():
    # x^2 = z^2 (1 + z): the branch is z sqrt(1+z), an infinite series with
    # rational coefficients, so the root comes back truncated at the request
    h = tschirnhausen_normalize(parse_poly("x^2 - z^2 - z^3"), "x")
    root, e = _lift_equation(h, [1], [1], 8)
    assert e == 1
    assert not root.is_exact
    assert root.precision == 8
    assert root.coeffs[1] == 1 and root.coeffs[2] == Fraction(1, 2)
    # the equation vanishes on the assembled arc below t^8, and no further
    va = lift_monomial_base(make_presentation(1, ("x", "x^2 - z^2 - z^3")), [1], [1], 8)
    assert va.vanishing["x"] == 8


@pytest.mark.parametrize("precision", [21, 30, 40])
def test_a_residual_term_above_the_target_fixes_a_low_coefficient(precision):
    # With M = z1 z2 = 9/2 t^6 the root is x = 2/3 M^2 = 27/2 t^12, and the
    # residual's terms from t^24 up fix its t^12 coefficient: a stage that
    # dropped them returned 0 + O(t^21) and 27/2 t^12 + 243/2 t^24 + O(t^30).
    f = "x^3 - 1/4 x z1^2 z2^2 - 1/3 x z1^4 z2^4 + 1/6 z1^4 z2^4 - 2/27 z1^6 z2^6"
    h = tschirnhausen_normalize(parse_poly(f), "x")
    root, e = _lift_equation(h, [-3, Fraction(-3, 2)], [3, 3], precision)
    assert e == 1
    assert root == PowerSeries.monomial(Fraction(27, 2), 12)


@pytest.mark.parametrize("precision, expected", [(8, "t + O(t^8)"), (10, "t - 2*t^8 + t^9")])
def test_only_a_polynomial_root_of_the_residual_comes_back_exact(precision, expected):
    # The root x = t + t^8 (t - 2) is a polynomial whose terms from t^8 up
    # vanish at t = 2: below t^8 its tail t passes the probe at t = 2, and
    # only the exact composition shows that the tail is truncated.
    F = parse_poly("x - t + 2 t^8 - t^9", ("x", "t"))
    root, e = generic._newton_puiseux_root(generic._singular_part(F, "x", precision))
    assert (str(root), e) == (expected, 1)


def test_truncated_lift_still_attains_the_order():
    p = make_presentation(1, ("x", "x^2 - z^2 - z^3"))
    assert p.elimination_order.value == 1
    result = construct_generic_arc(p, precision=16)
    assert contact_order(result.arc).r_bar == 1
    assert result.arc.vanishing["x"] is not None


def _leading_coefficient_plus_one(monkeypatch, p, target):
    """Make _newton_puiseux_root return target's root with its leading
    coefficient raised by one, and every other root unchanged.  A lift finds
    the roots in the order of p's hypersurfaces."""
    true_root = generic._newton_puiseux_root
    order = [h.var for h in p.hypersurfaces]
    calls = []

    def wrong_root(part):
        root, e = true_root(part)
        calls.append(part)
        if order[(len(calls) - 1) % len(order)] != target:
            return root, e
        nums = list(root.nums)
        nums[root.order().value] += root.den
        return PowerSeries.from_integers(nums, root.den, root.precision), e

    monkeypatch.setattr(generic, "_newton_puiseux_root", wrong_root)


@pytest.mark.parametrize("text", ["x^3 - z^4", "x^3 - z^4 - z^5"])
def test_residual_check_certifies_a_ramified_root(monkeypatch, text):
    # The root is a series in s with t = s^3: the arc carries it as x(t) with
    # z = t^3, the check must accept the true root and refuse it with one
    # coefficient changed.
    h = tschirnhausen_normalize(parse_poly(text), "x")
    root, e = _lift_equation(h, [1], [1], 24)
    assert e == 3
    assert root.order().value == 4
    p = make_presentation(1, ("x", text))
    va = lift_monomial_base(p, [1], [1], 24)
    assert va.arc.coords["z"].order().value == 3
    _leading_coefficient_plus_one(monkeypatch, p, "x")
    with pytest.raises(IdentityViolationError, match="Newton-Puiseux residual check"):
        lift_monomial_base(p, [1], [1], 24)


@pytest.mark.parametrize("target", ["x1", "x2"])
def test_residual_check_certifies_two_ramifications(monkeypatch, target):
    # Ramifications 2 and 3 meet in the common parameter of lcm 6: each root
    # is reparametrized before the check, which must still refuse either
    # root with its leading coefficient changed.
    p = make_presentation(1, ("x1", "x1^2 - z^3"), ("x2", "x2^3 - z^4"))
    va = lift_monomial_base(p, [1], [1], 24)
    assert va.arc.coords["z"].order().value == 6
    _leading_coefficient_plus_one(monkeypatch, p, target)
    with pytest.raises(IdentityViolationError, match="Newton-Puiseux residual check"):
        lift_monomial_base(p, [1], [1], 24)


LIFT_CASES = {
    "cusp": (1, [("x", "x^2 - z^3")]),
    "two_hyp": (2, [("x1", "x1^2 - z1^3"), ("x2", "x2^2 - z1 z2^2")]),
    "ramifications_2_and_3": (1, [("x1", "x1^2 - z^3"), ("x2", "x2^3 - z^4")]),
}


@pytest.mark.parametrize("name", sorted(LIFT_CASES))
def test_each_equation_is_evaluated_once_per_lift(monkeypatch, name):
    # Every series evaluation of a polynomial in a distinguished variable is
    # an evaluation of that hypersurface's equation (as f on the arc, or as
    # f on the base arc in (x, t)); the elimination generators have no x.
    d, equations = LIFT_CASES[name]
    p = make_presentation(d, *equations)
    original = series.poly_compose_series
    evaluated = Counter()

    def spy(f, substitutes):
        for h in p.hypersurfaces:
            if h.var in f.vars and f.degree_in(h.var) > 0:
                evaluated[h.var] += 1
        return original(f, substitutes)

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("nashres") and getattr(module, "poly_compose_series", None) is original:
            monkeypatch.setattr(module, "poly_compose_series", spy)
    lift_monomial_base(p, [1] * d, [1] * d, 24)
    assert evaluated == {var: 1 for var, _ in equations}


@pytest.mark.parametrize("name", sorted(LIFT_CASES))
def test_residual_check_sees_the_assembled_arc(monkeypatch, name):
    # A fault in assembling the arc (each base coordinate one power of t too
    # high) leaves every root right; only the check on the arc can see it,
    # and it must report an internal failure, not an arc off the variety.
    d, equations = LIFT_CASES[name]
    p = make_presentation(d, *equations)
    monomial = PowerSeries.monomial
    monkeypatch.setattr(
        PowerSeries, "monomial", staticmethod(lambda c, k, precision=None: monomial(c, k + 1, precision))
    )
    with pytest.raises(IdentityViolationError, match="Newton-Puiseux residual check"):
        lift_monomial_base(p, [1] * d, [1] * d, 24)


def test_puiseux_rejects_pure_power():
    h = tschirnhausen_normalize(parse_poly("x^2 + 0 z", ("x", "z")), "x")
    with pytest.raises(MaxMultArcError):
        lift_monomial_base(LocalPresentation(1, (h,)), [1], [1], 64)


def test_a_base_arc_another_equation_cannot_lift_costs_no_tail(monkeypatch):
    # At units (-1, -1, -1), x1^3 - z1^4 - z2^5 lifts but x3^2 - z1 z2 z3 has
    # no rational branch: its singular part refuses the tuple before x1's
    # Newton tail runs, so only the lift at (-1, -1, 1) reaches a tail.
    p = make_presentation(3, ("x1", "x1^3 - z1^4 - z2^5"), ("x3", "x3^2 - z1 z2 z3"))
    tails = []
    real_tail = generic._hensel_tail

    def spy(cur, n):
        tails.append(n)
        return real_tail(cur, n)

    monkeypatch.setattr(generic, "_hensel_tail", spy)
    result = construct_generic_arc(p, precision=96)
    assert len(tails) == 1
    assert result.units_tried == 2
    assert result.failed_units == ((-1, -1, -1),)
    assert result.arc.contact.r_bar == Fraction(4, 3)


def test_a_later_stage_that_fails_costs_no_newton_tail(monkeypatch):
    # The steepest edge of x2 is c^4 - 4c + 3 = (c - 1)^2 (c^2 + 2c + 3), whose
    # only rational root is 1, and the branch through 1 needs 6c^2 + 6 = 0:
    # x2's second stage refuses the base arc before x1's Newton tail runs.
    p = make_presentation(1, ("x1", "x1^3 - z^4 - z^5"), ("x2", "x2^4 - 4 z^3 x2 + 3 z^4 + 6 z^5"))
    tails = []
    real_tail = generic._hensel_tail

    def spy(cur, n):
        tails.append(n)
        return real_tail(cur, n)

    monkeypatch.setattr(generic, "_hensel_tail", spy)
    with pytest.raises(ExtensionRequiredError) as failure:
        lift_monomial_base(p, (1,), (1,))
    assert tails == []
    assert "cannot lift x2 over the base arc z = 1 t^1: edge equation 6*c^2 + 6 = 0" in str(failure.value)


def test_a_failed_lift_prints_its_edge_equation_only_when_read(monkeypatch):
    # The unit search reads only its last failure: on x^2 + z^2 all sixteen
    # unit tuples fail, and on x^2 + z1^2 + z2^2 all (2*8)^2 = 256, and each
    # search prints one edge equation.
    printed = []
    real_failure = generic._edge_failure
    monkeypatch.setattr(generic, "_edge_failure", lambda edge: printed.append(edge) or real_failure(edge))
    p = make_presentation(1, ("x", "x^2 + z^2"))
    with pytest.raises(ExtensionRequiredError, match=r"base arc z = 8 t\^1: edge equation c\^2 \+ 64 = 0"):
        construct_generic_arc(p)
    assert printed == [[64, 0, 1]]
    printed.clear()
    p = make_presentation(2, ("x", "x^2 + z1^2 + z2^2"))
    with pytest.raises(ExtensionRequiredError, match="every admissible unit tuple within bound 8"):
        construct_generic_arc(p)
    assert printed == [[128, 0, 1]]


def test_each_stage_finds_its_edge_roots_once(monkeypatch, cusp):
    # The cusp at u = 1 lifts in one stage, through the edge c^2 - 1 of
    # x^2 - t^3 after t -> t^2, whose roots are found once.
    edges, stages = [], []
    real_roots, real_stage = generic._rational_roots, generic._chart_stage
    monkeypatch.setattr(generic, "_rational_roots", lambda edge: edges.append(list(edge)) or real_roots(edge))
    monkeypatch.setattr(generic, "_chart_stage", lambda *args: stages.append(args) or real_stage(*args))
    va = lift_monomial_base(cusp, [1], [1])
    assert edges == [[-1, 0, 1]]
    assert len(stages) == 1
    assert va.arc.coords["x"] == PowerSeries.t_power(3)


@pytest.mark.parametrize(
    "equations, precision, outcome",
    [
        # the edge of x^2 + z^2 reaches t^1, so the lift stops before its root
        ([("x", "x^2 + z^2")], 1, "0 + O(t^1)"),
        ([("x", "x^2 + z^2")], 2, ExtensionRequiredError),
        # a ramified edge, slope 3/2, reaches t^1 after t -> t^2
        ([("x", "x^2 + z^3")], 1, "0 + O(t^2)"),
        ([("x", "x^2 + z^3")], 2, ExtensionRequiredError),
        # the second equation refuses the base arc; the first is a pure power
        ([("x1", "x1^2 - z^3"), ("x2", "x2^2 + z^2")], 2, ExtensionRequiredError),
        ([("x1", "x1^2 + 0 z"), ("x2", "x2^2 + z^2")], 2, MaxMultArcError),
    ],
)
def test_screen_raises_what_the_first_stage_raises(equations, precision, outcome):
    p = make_presentation(1, *equations)
    if isinstance(outcome, str):
        va = lift_monomial_base(p, [1], [1], precision)
        assert str(va.arc.coords[equations[0][0]]) == outcome
    else:
        with pytest.raises(outcome):
            lift_monomial_base(p, [1], [1], precision)


def test_lift_two_hypersurfaces(two_hyp):
    va = lift_to_presentation(two_hyp, build_diagonal_arc([1, 1], 1, ("z1", "z2")))
    coords = va.arc.coords
    assert coords["x1"].coeffs == (0, 0, 0, 1)
    assert coords["x2"].coeffs == (0, 0, 0, 1)
    assert coords["z1"].coeffs == (0, 0, 1)
    assert arc_order(va.arc) == 2


def test_lift_mixed_ramification():
    p = make_presentation(1, ("x1", "x1^2 - z^3"), ("x2", "x2^3 - z^4"))
    va = lift_to_presentation(p, build_diagonal_arc([1], 1, ("z",)))
    # slopes 3/2 and 4/3 force the common parameter t^6
    assert va.arc.coords["z"].order().value == 6
    assert va.arc.coords["x1"].order().value == 9
    assert va.arc.coords["x2"].order().value == 8


def test_lift_monomial_base_skew_is_nongeneric(umbrella):
    va = lift_monomial_base(umbrella, [1, 1], [1, 2])
    assert va.arc.coords["x"].order().value == 2
    assert va.contact.r_bar == 2  # valid arc, strictly above the order 3/2


def test_construct_generic_arc_cusp_regression(cusp):
    result = construct_generic_arc(cusp)
    assert result.base.units == (Fraction(1),)
    assert result.units_tried == 2  # (-1) needs an extension, (1) lifts
    assert result.ramification == 2
    assert contact_order(result.arc).r_bar == Fraction(3, 2)


def test_construct_generic_arc_umbrella_regression(umbrella):
    result = construct_generic_arc(umbrella)
    assert result.base.units == (Fraction(-1), Fraction(1))
    assert contact_order(result.arc).r_bar == Fraction(3, 2)


@pytest.mark.parametrize("n", range(1, 9))
def test_generic_arcs_attain_order_a_family(n):
    p = a_n(n)
    result = construct_generic_arc(p)
    expected = Fraction(n + 1, 2)
    assert contact_order(result.arc).r_bar == expected
    assert result.ramification == (2 if n % 2 == 0 else 1)


def test_verify_genericity_reports(cusp, umbrella_fast_arc):
    # genericity is read off the arc's contact result: r_bar equals the order,
    # and the arc order is the base exponent
    result = construct_generic_arc(cusp)
    va = result.arc
    assert va.contact.r_bar == Fraction(3, 2)
    assert va.contact.arc_order == result.ramification * result.base.alpha

    assert umbrella_fast_arc.contact.r_bar == 2


def test_genericity_invariant_under_reparametrization(cusp):
    generic = construct_generic_arc(cusp).arc
    for e in (2, 3):
        repar = validate_arc(generic.arc.reparametrize(e), cusp)
        assert repar.contact.r_bar == Fraction(3, 2)


def test_every_lift_validates_exactly(two_hyp, umbrella):
    for p in (two_hyp, umbrella):
        result = construct_generic_arc(p)
        for n in result.arc.vanishing.values():
            assert n is None
        assert result.arc.contact.r_bar == p.elimination_order.value


def test_rho_bar_attained_after_denominator_reparametrization(cusp):
    result = construct_generic_arc(cusp)
    ord_d = cusp.elimination_order.value
    repar = validate_arc(result.arc.arc.reparametrize(ord_d.denominator), cusp)
    assert contact_order(repar).rho_bar == ord_d


def _skew_umbrella_lift(monkeypatch, umbrella):
    """Make every diagonal lift return the skew umbrella arc, r_bar = 2 != 3/2."""
    skew = lift_monomial_base(umbrella, [1, 1], [1, 2])
    monkeypatch.setattr(generic, "lift_to_presentation", lambda p, base, precision=64: skew)


def test_generic_arc_command_exits_5_on_a_lift_off_the_order(monkeypatch, umbrella, tmp_path, capsys):
    # construct_generic_arc returns the lift it found; the report's check
    # is what decides that it misses the order
    from nashres.cli import main

    _skew_umbrella_lift(monkeypatch, umbrella)
    pres = tmp_path / "p.json"
    pres.write_text('{"d": 2, "hypersurfaces": [{"var": "x", "b": 2, "f": "x^2 - z1^2*z2"}]}')
    assert main(["generic-arc", str(pres), "--json"]) == 5
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["r_bar"] == "2"
    checks = {c["name"]: c for c in report["checks"]}
    assert checks["attains_elimination_order"] == {
        "name": "attains_elimination_order", "status": "fail", "witness": "r_bar = 2"
    }


def test_verify_exits_5_on_a_generic_arc_off_the_order(monkeypatch, umbrella, tmp_path, capsys):
    from nashres.cli import main

    _skew_umbrella_lift(monkeypatch, umbrella)
    pres = tmp_path / "p.json"
    pres.write_text('{"d": 2, "hypersurfaces": [{"var": "x", "b": 2, "f": "x^2 - z1^2*z2"}]}')
    assert main(["verify", str(pres), "--json"]) == 5
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["generic_r_bar"] == "2"
    status = {c["name"]: c["status"] for c in report["checks"]}
    assert status["generic_arc_attains_min"] == "fail"


def test_construct_generic_arc_refuses_an_arc_order_met_by_an_x_coordinate(monkeypatch, cusp):
    # The cusp's order is 3/2, not 1: a lift whose arc order is the order of
    # x (t^3 against z = t^2) is an identity violation.  The contact result is
    # planted with arc_order 3 and its true r_bar, so only this check can fire.
    true_lift = generic.lift_to_presentation

    def planted(p, base, precision=64):
        va = true_lift(p, base, precision)
        x_order = va.arc.coords["x"].order().value
        va.__dict__["contact"] = dataclasses.replace(va.contact, arc_order=x_order)
        return va

    monkeypatch.setattr(generic, "lift_to_presentation", planted)
    with pytest.raises(IdentityViolationError, match="forces order 1, got 3/2"):
        construct_generic_arc(cusp)


# name -> (d, equations): the presentations of the benchmark's lift table, of
# the acceptance corpus, and one whose terms collide under the monomial map
MONOMIAL_MAP_CASES = {
    "quadratic_tail": (1, [("x", "x^2 - z^2 - z^3")]),
    "cubic_tail": (1, [("x", "x^3 - z^4 - z^5")]),
    "quartic_tail": (1, [("x", "x^4 - z^5 - z^7")]),
    "quartic_middle": (1, [("x", "x^4 - 2 z^3 x^2 + z^6 - z^7")]),
    "cubic_two_base": (2, [("x", "x^3 - z1^2 z2^2 - z1^5")]),
    "cubic_big_constant": (1, [("x", "x^3 - 8000000000000 z^4")]),
    "cubic_middle": (1, [("x", "x^3 - 2 z^2 x - z^4 - z^5")]),
    "two_hyp_three_base": (3, [("x1", "x1^3 - z1^4 - z2^5"), ("x3", "x3^2 - z1 z2 z3")]),
    "cusp": (1, [("x", "x^2 - z^3")]),
    "umbrella": (2, [("x", "x^2 - z1^2*z2")]),
    "two_hyp": (2, [("x1", "x1^2 - z1^3"), ("x2", "x2^2 - z1*z2^2")]),
    **{f"A_{n}": (1, [("x", f"x^2 - z^{n + 1}")]) for n in range(1, 9)},
    # terms that land on one power of t, and cancel there at units (1, 1)
    "colliding_terms": (2, [("x", "x^3 - z1^2 z2 + z1 z2^2 - 2 z1^4")]),
}


def _substituted_equation_on_base(h, units, exponents):
    """One `MultiPoly.substitute` of u_v t^(a_v) per base variable."""
    ambient = h.ambient_vars + ("t",)
    f = h.polynomial.extend_vars(ambient)
    for v, u, a in zip(h.base_vars, units, exponents):
        f = f.substitute(v, (MultiPoly.variable(ambient, "t") ** a).scale(u))
    return f.restrict_vars((h.var, "t"))


@pytest.mark.parametrize("name", sorted(MONOMIAL_MAP_CASES))
def test_equation_on_base_is_the_substituted_equation(name):
    d, equations = MONOMIAL_MAP_CASES[name]
    p = make_presentation(d, *equations)
    diagonal = [(1,) * d, (2,) * d]
    skew = [tuple(1 + i % 3 for i in range(d)), tuple(3 - i % 3 for i in range(d))]
    for h in p.hypersurfaces:
        for units in ((1,) * d, tuple(Fraction(-2, 3) if i % 2 else 3 for i in range(d))):
            units = tuple(Fraction(u) for u in units)
            for exponents in diagonal + skew:
                assert _equation_on_base(h, units, exponents) == _substituted_equation_on_base(
                    h, units, exponents
                )

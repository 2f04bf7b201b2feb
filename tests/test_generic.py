from fractions import Fraction

import pytest

from nashres import (
    ReesAlgebra,
    arc_order,
    build_diagonal_arc,
    construct_generic_arc,
    contact_order,
    elimination_algebra,
    find_generic_units,
    is_diagonal_generic,
    lift_to_presentation,
    parse_poly,
    presentation_elimination_order,
    puiseux_lift,
    tschirnhausen_normalize,
    validate_arc,
    verify_genericity,
)
from nashres.errors import ExtensionRequiredError, MaxMultArcError
from nashres.generic import _equation_on_base, unit_tuples
from nashres.poly import MultiPoly

from conftest import a_n, make_presentation


def test_unit_enumeration_order():
    assert list(unit_tuples(1, 2)) == [(-1,), (1,), (-2,), (2,)]
    first = list(unit_tuples(2, 2))[:6]
    assert first == [(-1, -1), (-1, 1), (1, -1), (1, 1), (-2, -2), (-2, -1)]


def test_find_units_single_variable(cusp):
    algebra = elimination_algebra(cusp.hypersurfaces[0])
    assert find_generic_units([algebra], 1, 8) == (-1,)


def test_find_units_umbrella(umbrella):
    algebra = elimination_algebra(umbrella.hypersurfaces[0])
    assert find_generic_units([algebra], 2, 8) == (-1, -1)


def test_find_units_skips_vanishing_initial_form():
    # raw z1^2 - z2^2 at weight 2: first tuple with u1^2 != u2^2 is (-2, -1)
    f = parse_poly("z1^2 - z2^2")
    algebra = ReesAlgebra.from_pairs(("z1", "z2"), [(f, 2)])
    assert find_generic_units([algebra], 2, 8) == (-2, -1)


def test_diagonal_genericity_certificate(umbrella):
    algebra = elimination_algebra(umbrella.hypersurfaces[0])
    base = build_diagonal_arc([1, 1], 2, ("z1", "z2"))
    assert is_diagonal_generic(base, [algebra])


def test_diagonal_genericity_negative():
    f = parse_poly("z1^2 - z2^2")
    algebra = ReesAlgebra.from_pairs(("z1", "z2"), [(f, 2)])
    degenerate = build_diagonal_arc([1, 1], 1, ("z1", "z2"))
    assert not is_diagonal_generic(degenerate, [algebra])
    good = build_diagonal_arc([-2, -1], 1, ("z1", "z2"))
    assert is_diagonal_generic(good, [algebra])


def test_puiseux_cusp(cusp):
    h = cusp.hypersurfaces[0]
    lift = puiseux_lift(h, build_diagonal_arc([1], 1, ("z",)))
    assert lift.ramification == 2
    assert lift.root.is_exact
    assert lift.root.coeffs == (0, 0, 0, 1)  # t^3 after t -> t^2


def test_puiseux_umbrella_alpha_two(umbrella):
    h = umbrella.hypersurfaces[0]
    lift = puiseux_lift(h, build_diagonal_arc([1, 1], 2, ("z1", "z2")))
    assert lift.ramification == 1
    assert lift.root.coeffs == (0, 0, 0, 1)


def test_puiseux_requires_rational_branch():
    h = tschirnhausen_normalize(parse_poly("x^2 + z^2"), "x")
    with pytest.raises(ExtensionRequiredError):
        puiseux_lift(h, build_diagonal_arc([1], 1, ("z",)))


def test_puiseux_nonterminating_branch_truncates():
    # x^2 = z^2 (1 + z): the branch is z sqrt(1+z), an infinite series with
    # rational coefficients, so the root comes back truncated at the request
    h = tschirnhausen_normalize(parse_poly("x^2 - z^2 - z^3"), "x")
    lift = puiseux_lift(h, build_diagonal_arc([1], 1, ("z",)), precision=8)
    assert lift.ramification == 1
    assert not lift.exact
    assert lift.root.precision == 8
    assert lift.root.coeffs[1] == 1 and lift.root.coeffs[2] == Fraction(1, 2)
    assert lift.residual_order.is_censored and lift.residual_order.value == 8


def test_truncated_lift_still_attains_the_order():
    p = make_presentation(1, ("x", "x^2 - z^2 - z^3"))
    assert presentation_elimination_order(p).value == 1
    result = construct_generic_arc(p, precision=16)
    assert contact_order(result.arc).r_bar == 1
    assert not result.arc.certificate_for("x").exact


def test_puiseux_rejects_pure_power():
    h = tschirnhausen_normalize(parse_poly("x^2 + 0 z", ("x", "z")), "x")
    with pytest.raises(MaxMultArcError):
        puiseux_lift(h, build_diagonal_arc([1], 1, ("z",)))


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
    from nashres import lift_monomial_base

    va = lift_monomial_base(umbrella, [1, 1], [1, 2])
    assert va.arc.coords["x"].order().value == 2
    result = contact_order(va)
    assert result.r_bar == 2  # valid arc, strictly above the order 3/2
    rep = verify_genericity(va, umbrella)
    assert not rep.generic


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


def test_verify_genericity_reports(cusp, umbrella, umbrella_fast_arc):
    generic = construct_generic_arc(cusp).arc
    report = verify_genericity(generic, cusp)
    assert report.generic and report.r_bar == Fraction(3, 2)
    assert report.order_matches_base

    bad = verify_genericity(umbrella_fast_arc, umbrella)
    assert not bad.generic and bad.r_bar == 2


def test_genericity_invariant_under_reparametrization(cusp):
    generic = construct_generic_arc(cusp).arc
    for e in (2, 3):
        repar = validate_arc(generic.arc.reparametrize(e), cusp)
        assert verify_genericity(repar, cusp).generic


def test_every_lift_validates_exactly(two_hyp, umbrella):
    for p in (two_hyp, umbrella):
        result = construct_generic_arc(p)
        for _, cert in result.arc.certificates:
            assert cert.exact
        assert verify_genericity(result.arc, p).generic


def test_rho_bar_attained_after_denominator_reparametrization(cusp):
    result = construct_generic_arc(cusp)
    ord_d = presentation_elimination_order(cusp).value
    repar = validate_arc(result.arc.arc.reparametrize(ord_d.denominator), cusp)
    assert contact_order(repar).rho_bar == ord_d


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

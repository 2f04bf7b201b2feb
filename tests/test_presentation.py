from fractions import Fraction

import pytest

from nashres import (
    LocalPresentation,
    ambient_algebra,
    algebra_order_at,
    elimination_algebra,
    elimination_order,
    hypersurface_multiplicity_at,
    parse_poly,
    tschirnhausen_normalize,
)
from nashres.errors import NotCenteredError, ValidationError

from conftest import a_n, make_presentation
from test_cli import CUSP, UMBRELLA, run_json, write
from test_harness_extended import CASES as EXTENDED_CASES


def normalize(text, var="x"):
    return tschirnhausen_normalize(parse_poly(text), var)


def test_normalize_kills_subprincipal_term():
    h = normalize("x^2 + 2z x + z^3")
    assert h.b == 2
    assert str(h.coeffs[0]) == "z^3 - z^2"


def test_normalize_already_tschirnhausen():
    h = normalize("x^2 - z^3")
    assert str(h.coeffs[0]) == "-z^3"


def test_normalize_rational_coefficients():
    h = normalize("x^2 + z x + z^2")
    assert h.coeffs[0] == parse_poly("3/4 z^2", ("z",))


def test_normalize_rejects_uncentered():
    with pytest.raises(NotCenteredError, match="not centered"):
        normalize("x^2 - z")


def test_normalize_requires_monic():
    with pytest.raises(ValidationError):
        tschirnhausen_normalize(parse_poly("z x^2 + z^3"), "x")


def test_elimination_algebra_cusp():
    h = normalize("x^2 - z^3")
    algebra = elimination_algebra(h)
    assert {(str(g.f), g.weight) for g in algebra} == {("z^3", 2), ("z^2", 1)}


def test_elimination_algebra_umbrella():
    h = normalize("x^2 - z1^2 z2")
    algebra = elimination_algebra(h)
    assert {(str(g.f), g.weight) for g in algebra} == {
        ("z1^2*z2", 2),
        ("z1*z2", 1),
        ("z1^2", 1),
    }


def test_elimination_algebra_pure_power_is_empty():
    h = tschirnhausen_normalize(parse_poly("x^3 + 0 z", ("x", "z")), "x")
    assert elimination_algebra(h) == ()
    assert elimination_order(h).is_infinite


@pytest.mark.parametrize("n", range(1, 9))
def test_elimination_order_a_family(n):
    h = normalize(f"x^2 - z^{n + 1}")
    assert elimination_order(h).value == Fraction(n + 1, 2)


def test_elimination_order_umbrella():
    assert normalize("x^2 - z1^2 z2").b == 2
    assert elimination_order(normalize("x^2 - z1^2 z2")).value == Fraction(3, 2)


def test_elimination_order_two_coefficients():
    # B_1 = z^2 at weight 2 gives 1; B_0 = z^4 at weight 3 gives 4/3
    assert elimination_order(normalize("x^3 + z^2 x + z^4")).value == 1


# The acceptance corpus (cusp, umbrella, two_hyp, A_1..A_8) and the extended one.
CORPUS = {
    "cusp": (1, [("x", "x^2 - z^3")]),
    "umbrella": (2, [("x", "x^2 - z1^2*z2")]),
    "two_hyp": (2, [("x1", "x1^2 - z1^3"), ("x2", "x2^2 - z1*z2^2")]),
    **{f"A_{n}": (1, [("x", f"x^2 - z^{n + 1}")]) for n in range(1, 9)},
    **{name: (d, equations) for name, d, equations, _ in EXTENDED_CASES},
}


@pytest.mark.parametrize("name", CORPUS)
def test_closed_form_order_is_the_algebra_order(name):
    d, equations = CORPUS[name]
    for h in make_presentation(d, *equations).hypersurfaces:
        origin = (Fraction(0),) * len(h.base_vars)
        assert elimination_order(h) == algebra_order_at(h.elimination_algebra, origin)


def test_presentation_order_single(cusp):
    assert cusp.elimination_order.value == Fraction(3, 2)


def test_presentation_order_two_hypersurfaces(two_hyp):
    assert two_hyp.elimination_order.value == Fraction(3, 2)


def test_presentation_order_other_pair():
    p = make_presentation(2, ("x1", "x1^2 - z1^4"), ("x2", "x2^3 - z1^3 z2^3"))
    assert p.elimination_order.value == 2


def test_presentation_order_permutation_invariant():
    p1 = make_presentation(2, ("x1", "x1^2 - z1^3"), ("x2", "x2^2 - z1*z2^2"))
    p2 = make_presentation(2, ("x2", "x2^2 - z1*z2^2"), ("x1", "x1^2 - z1^3"))
    assert p1.elimination_order == p2.elimination_order


def test_multiplicity_cusp():
    h = normalize("x^2 - z^3")
    assert hypersurface_multiplicity_at(h, (0, 0)) == 2
    assert hypersurface_multiplicity_at(h, (1, 1)) == 1


def test_multiplicity_umbrella_line():
    h = normalize("x^2 - z1^2 z2")
    for c in (5, -1, Fraction(2, 3)):
        assert hypersurface_multiplicity_at(h, (0, 0, c)) == 2


def test_multiplicity_point_off_hypersurface():
    h = normalize("x^2 - z^3")
    with pytest.raises(ValidationError, match="not on hypersurface"):
        hypersurface_multiplicity_at(h, (1, 0))


def test_max_mult_contains(tmp_path, capsys):
    # the mult command reads Max-mult membership from the multiplicities it reports
    for doc, point, multiplicity, inside in (
        (CUSP, "0,0", 2, True),
        (CUSP, "1,1", 1, False),
        (UMBRELLA, "0,0,5", 2, True),
    ):
        code, report = run_json(capsys, "mult", write(tmp_path, "p.json", doc), "--point", point)
        assert code == 0
        assert report["results"]["hypersurfaces"][0]["multiplicity"] == multiplicity
        assert report["results"]["in_max_mult"] is inside


def test_ambient_algebra_order_is_one(cusp, umbrella, two_hyp):
    for p in (cusp, umbrella, two_hyp, a_n(4)):
        amb = ambient_algebra(p)
        origin = (Fraction(0),) * len(p.ambient_vars)
        assert algebra_order_at(amb, origin).value == 1


def test_ambient_algebra_is_a_closure_fixpoint(cusp, umbrella, two_hyp):
    from nashres import diff_closure

    for p in (cusp, umbrella, two_hyp, a_n(1)):
        amb = ambient_algebra(p)
        closed = diff_closure(amb)
        keys = lambda a: {g.dedup_key() for g in a}
        assert keys(closed) == keys(amb)
    # z^3*W^2 and z^2*W^1 close both elimination algebras: each stays where it first appears
    mixed = make_presentation(1, ("x1", "x1^2 - z^3"), ("x2", "x2^3 - z^4"))
    assert [str(g) for g in ambient_algebra(mixed)] == [
        "x1*W^1", "x2*W^1", "z^3*W^2", "z^2*W^1", "z^4*W^3"
    ]


def test_closure_order_identity(cusp):
    # full closure of [f W^b] has order min(1, elimination order) = 1 and its
    # base part reproduces the elimination order
    from nashres import ReesGenerator, diff_closure

    h = cusp.hypersurfaces[0]
    f = h.polynomial
    closed = diff_closure((ReesGenerator(f, h.b),))
    origin = (0, 0)
    assert algebra_order_at(closed, origin).value == 1
    base_gens = [g for g in closed if g.f.degree_in("x") == 0]
    quotients = [
        Fraction(g.f.order_at_origin().value, g.weight) for g in base_gens
    ]
    assert min(quotients) == elimination_order(h).value


def test_presentation_validation_errors():
    with pytest.raises(ValidationError):
        LocalPresentation(1, ())
    h = normalize("x^2 - z^3")
    with pytest.raises(ValidationError):
        LocalPresentation(2, (h,))
    with pytest.raises(ValidationError):
        LocalPresentation(1, (h, h))

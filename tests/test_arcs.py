from fractions import Fraction

import pytest

from nashres import (
    Arc,
    OneDimGenerator,
    PowerSeries,
    ambient_algebra,
    arc_order,
    construct_generic_arc,
    contact_order,
    contact_order_without_x,
    image_of_algebra,
    poly_compose_series,
    validate_arc,
)
from nashres.errors import (
    DimensionMismatchError,
    InsufficientPrecisionError,
    MaxMultArcError,
    NotOnVarietyError,
    ValidationError,
)
from nashres.rees import onedim_order_witness

from conftest import a_n, exact_arc, make_presentation


def test_arc_requires_origin():
    with pytest.raises(ValidationError, match="not through the origin"):
        exact_arc(x="1 + t", z="t")


def test_arc_rejects_zero_tuple():
    with pytest.raises(ValidationError):
        Arc({"x": PowerSeries(()), "z": PowerSeries(())})


def test_arc_order_examples(cusp):
    assert arc_order(exact_arc(x="t^3", z="t^2")) == 2
    assert arc_order(exact_arc(x1="t^3", z1="t^2", z2="t^2")) == 2
    assert arc_order(exact_arc(x="t^6", z="t^4")) == 4


def test_arc_order_censored():
    arc = Arc({"x": PowerSeries((), 4), "z": PowerSeries((), 6)})
    with pytest.raises(InsufficientPrecisionError):
        arc_order(arc)


def test_validate_cusp(cusp):
    va = validate_arc(exact_arc(x="t^3", z="t^2"), cusp)
    assert va.vanishing["x"] is None
    assert not va.in_max_mult


def test_validate_umbrella(umbrella):
    va = validate_arc(exact_arc(x="t^3", z1="t^2", z2="t^2"), umbrella)
    assert va.vanishing["x"] is None


def test_validate_rejects_off_variety(cusp):
    with pytest.raises(NotOnVarietyError, match="not on variety"):
        validate_arc(exact_arc(x="t^2", z="t^2"), cusp)


def test_validate_zero_to_precision_certificate(cusp):
    arc = Arc({"x": PowerSeries([0, 0, 0, 1], 20), "z": PowerSeries([0, 0, 1], 20)})
    va = validate_arc(arc, cusp)
    assert va.vanishing["x"] == 20


def test_in_max_mult_flag(umbrella):
    inside = Arc({"x": PowerSeries(()), "z1": PowerSeries(()), "z2": PowerSeries.t_power(1)})
    va = validate_arc(inside, umbrella)
    assert va.in_max_mult
    with pytest.raises(MaxMultArcError):
        contact_order(va)


def test_in_max_mult_censored_raises(umbrella):
    arc = Arc(
        {
            "x": PowerSeries((), 2),
            "z1": PowerSeries((), 2),
            "z2": PowerSeries.t_power(1),
        }
    )
    with pytest.raises(InsufficientPrecisionError):
        validate_arc(arc, umbrella)


def test_project_arc(umbrella, two_hyp):
    va = validate_arc(exact_arc(x="t^3", z1="t^2", z2="t^2"), umbrella)
    base = va.arc.restrict(umbrella.base_vars)
    assert set(base.coords) == {"z1", "z2"}
    full = va.arc.restrict(umbrella.hypersurfaces[0].ambient_vars)
    assert set(full.coords) == {"x", "z1", "z2"}
    vt = validate_arc(exact_arc(x1="t^3", x2="t^3", z1="t^2", z2="-t^2"), two_hyp)
    phi2 = vt.arc.restrict(two_hyp.hypersurfaces[1].ambient_vars)
    assert set(phi2.coords) == {"x2", "z1", "z2"}


def test_order_splits_over_hypersurfaces(two_hyp):
    va = validate_arc(exact_arc(x1="t^3", x2="t^4", z1="t^2", z2="t^3"), two_hyp)
    orders = [arc_order(va.arc.restrict(h.ambient_vars)) for h in two_hyp.hypersurfaces]
    assert arc_order(va.arc) == min(orders)


def test_image_of_algebra_cusp(cusp):
    arc = exact_arc(x="t^3", z="t^2")
    onedim = image_of_algebra(arc, ambient_algebra(cusp))
    assert [(g.a.value, g.l) for g in onedim] == [(3, 1), (6, 2), (4, 1)]


def test_image_of_algebra_umbrella(umbrella):
    arc = exact_arc(x="t^3", z1="t^2", z2="t^2")
    onedim = image_of_algebra(arc, ambient_algebra(umbrella))
    assert sorted((g.a.value, g.l) for g in onedim) == [
        (3, 1),
        (4, 1),
        (4, 1),
        (6, 2),
    ]


def test_image_of_algebra_names_a_missing_coordinate(umbrella):
    # the elimination algebra of x^2 - z1^2 z2 uses z2, which the arc lacks
    algebra = umbrella.hypersurfaces[0].elimination_algebra
    with pytest.raises(DimensionMismatchError, match="'z2'"):
        image_of_algebra(exact_arc(z1="t^2"), algebra)


def test_image_drops_exact_zeros(cusp):
    from nashres import ReesGenerator

    arc = exact_arc(x="t^3", z="t^2")
    f = cusp.hypersurfaces[0].polynomial
    assert image_of_algebra(arc, (ReesGenerator(f, 2),)) == ()


def test_contact_cusp(cusp_arc):
    result = contact_order(cusp_arc)
    assert (result.r, result.rho, result.arc_order) == (3, 3, 2)
    assert result.r_bar == Fraction(3, 2)
    assert result.rho_bar == Fraction(3, 2)


def test_contact_umbrella_fast(umbrella_fast_arc):
    result = contact_order(umbrella_fast_arc)
    assert (result.r, result.arc_order, result.r_bar, result.rho) == (
        2,
        1,
        2,
        2,
    )


def test_contact_umbrella_minimizing(umbrella_min_arc):
    result = contact_order(umbrella_min_arc)
    assert result.r == 3 and result.arc_order == 2
    assert result.r_bar == Fraction(3, 2)


def test_reparametrize_scales_r(cusp, cusp_arc):
    doubled = validate_arc(cusp_arc.arc.reparametrize(2), cusp)
    result = contact_order(doubled)
    assert (result.r, result.arc_order, result.r_bar) == (6, 4, Fraction(3, 2))


def test_reparametrize_identity(cusp_arc):
    assert cusp_arc.arc.reparametrize(1).coords == cusp_arc.arc.coords


def test_rho_of_reparametrization_is_floor_of_scaled_r(umbrella, umbrella_min_arc):
    base = contact_order(umbrella_min_arc)
    for e in (2, 3, 5):
        scaled = validate_arc(umbrella_min_arc.arc.reparametrize(e), umbrella)
        result = contact_order(scaled)
        assert result.r == e * base.r
        assert result.rho == (e * base.r).__floor__()
        assert result.r_bar == base.r_bar


def test_contact_without_x(cusp_arc, umbrella_fast_arc, umbrella_min_arc):
    for va in (cusp_arc, umbrella_fast_arc, umbrella_min_arc):
        assert contact_order_without_x(va) == contact_order(va).r


def test_scale_parameter_preserves_contact(cusp, cusp_arc):
    scaled = validate_arc(cusp_arc.arc.scale_parameter(Fraction(2, 3)), cusp)
    assert contact_order(scaled).r == 3


def test_parameter_substitution_preserves_validity(cusp, cusp_arc):
    tau = PowerSeries([0, 1, 1])  # t + t^2
    deformed = validate_arc(cusp_arc.arc.substitute_parameter(tau), cusp)
    assert contact_order(deformed).r == 3


def _reference_contact(va):
    """The definition: push every generator of the ambient algebra through the arc."""
    pairs = []
    for g in va.presentation.ambient_algebra:
        o = poly_compose_series(g.f, va.arc.coords).order()
        if not o.is_infinite:
            pairs.append((OneDimGenerator(o, g.weight), g))
    r, idx = onedim_order_witness([img for img, _ in pairs])
    return r, str(pairs[idx][1]), {str(img) for img, _ in pairs}


def _assert_matches_reference(va):
    r, witness, image = _reference_contact(va)
    c = va.contact
    assert (c.r, c.witness) == (r, witness)
    assert {str(g) for g in c.image} == image
    assert contact_order_without_x(va) == r


def test_contact_matches_the_ambient_algebra_reference():
    acceptance = [
        make_presentation(1, ("x", "x^2 - z^3")),
        make_presentation(2, ("x", "x^2 - z1^2*z2")),
        make_presentation(2, ("x1", "x1^2 - z1^3"), ("x2", "x2^2 - z1*z2^2")),
    ] + [a_n(n) for n in range(1, 9)]
    for p in acceptance:
        generic = construct_generic_arc(p).arc.arc
        for e in (1, 2, 3):
            for c in (0, 2, Fraction(-1, 2)):
                arc = generic.reparametrize(e).substitute_parameter(PowerSeries([0, 1, c]))
                _assert_matches_reference(validate_arc(arc, p))


def test_contact_reference_with_a_generator_shared_by_two_hypersurfaces():
    p = make_presentation(1, ("x1", "x1^2 - z^3"), ("x2", "x2^2 - 4*z^3"))
    assert len(p.ambient_algebra) == 4  # x1, x2, z^3 and z^2 once each
    for arc in (
        exact_arc(x1="t^3", x2="2*t^3", z="t^2"),
        exact_arc(x1="-t^6", x2="2*t^6", z="t^4"),
        Arc({"x1": PowerSeries([0, 0, 0, 1], 9), "x2": PowerSeries([0, 0, 0, -2], 9),
             "z": PowerSeries([0, 0, 1], 9)}),
    ):
        _assert_matches_reference(validate_arc(arc, p))


@pytest.mark.parametrize("first, second", [("z1^5", "z2^3"), ("z1^3", "z2^5")])
def test_contact_reference_reads_every_hypersurface(first, second):
    p = make_presentation(2, ("x1", f"x1^2 - {first}"), ("x2", f"x2^2 - {second}"))
    generic = construct_generic_arc(p).arc.arc
    for arc in (generic, generic.reparametrize(2)):
        _assert_matches_reference(validate_arc(arc, p))


from fractions import Fraction

import pytest

from nashres import (
    Arc,
    PowerSeries,
    ambient_algebra,
    arc_order,
    contact_order,
    contact_order_without_x,
    image_of_algebra,
    project_arc,
    validate_arc,
)
from nashres.errors import (
    InsufficientPrecisionError,
    MaxMultArcError,
    NotOnVarietyError,
    ValidationError,
)

from conftest import exact_arc


def test_arc_requires_origin():
    with pytest.raises(ValidationError, match="not through the origin"):
        exact_arc(x="1 + t", z="t")


def test_arc_rejects_zero_tuple():
    with pytest.raises(ValidationError):
        Arc({"x": PowerSeries.zero(), "z": PowerSeries.zero()})


def test_arc_order_examples(cusp):
    assert arc_order(exact_arc(x="t^3", z="t^2")) == 2
    assert arc_order(exact_arc(x1="t^3", z1="t^2", z2="t^2")) == 2
    assert arc_order(exact_arc(x="t^6", z="t^4")) == 4


def test_arc_order_censored():
    arc = Arc({"x": PowerSeries.zero(4), "z": PowerSeries.zero(6)})
    with pytest.raises(InsufficientPrecisionError):
        arc_order(arc)


def test_validate_cusp(cusp):
    va = validate_arc(exact_arc(x="t^3", z="t^2"), cusp)
    assert va.certificate_for("x").exact
    assert not va.in_max_mult


def test_validate_umbrella(umbrella):
    va = validate_arc(exact_arc(x="t^3", z1="t^2", z2="t^2"), umbrella)
    assert va.certificate_for("x").exact


def test_validate_rejects_off_variety(cusp):
    with pytest.raises(NotOnVarietyError, match="not on variety"):
        validate_arc(exact_arc(x="t^2", z="t^2"), cusp)


def test_validate_zero_to_precision_certificate(cusp):
    arc = Arc({"x": PowerSeries([0, 0, 0, 1], 20), "z": PowerSeries([0, 0, 1], 20)})
    va = validate_arc(arc, cusp)
    cert = va.certificate_for("x")
    assert not cert.exact and cert.precision == 20


def test_in_max_mult_flag(umbrella):
    inside = Arc({"x": PowerSeries.zero(), "z1": PowerSeries.zero(), "z2": PowerSeries.t_power(1)})
    va = validate_arc(inside, umbrella)
    assert va.in_max_mult
    with pytest.raises(MaxMultArcError):
        contact_order(va)


def test_in_max_mult_censored_raises(umbrella):
    arc = Arc(
        {
            "x": PowerSeries.zero(2),
            "z1": PowerSeries.zero(2),
            "z2": PowerSeries.t_power(1),
        }
    )
    with pytest.raises(InsufficientPrecisionError):
        validate_arc(arc, umbrella)


def test_project_arc(umbrella, two_hyp):
    va = validate_arc(exact_arc(x="t^3", z1="t^2", z2="t^2"), umbrella)
    base = project_arc(va, "base")
    assert set(base.coords) == {"z1", "z2"}
    full = project_arc(va, "x")
    assert set(full.coords) == {"x", "z1", "z2"}
    vt = validate_arc(exact_arc(x1="t^3", x2="t^3", z1="t^2", z2="-t^2"), two_hyp)
    phi2 = project_arc(vt, "x2")
    assert set(phi2.coords) == {"x2", "z1", "z2"}


def test_order_splits_over_hypersurfaces(two_hyp):
    va = validate_arc(exact_arc(x1="t^3", x2="t^4", z1="t^2", z2="t^3"), two_hyp)
    orders = [arc_order(project_arc(va, h.var)) for h in two_hyp.hypersurfaces]
    assert arc_order(va.arc) == min(orders)


def test_image_of_algebra_cusp(cusp):
    arc = exact_arc(x="t^3", z="t^2")
    onedim = image_of_algebra(arc, ambient_algebra(cusp))
    assert [(g.a.value, g.l) for g in onedim.generators] == [(3, 1), (6, 2), (4, 1)]


def test_image_of_algebra_umbrella(umbrella):
    arc = exact_arc(x="t^3", z1="t^2", z2="t^2")
    onedim = image_of_algebra(arc, ambient_algebra(umbrella))
    assert sorted((g.a.value, g.l) for g in onedim.generators) == [
        (3, 1),
        (4, 1),
        (4, 1),
        (6, 2),
    ]


def test_image_drops_exact_zeros(cusp):
    from nashres import ReesAlgebra

    arc = exact_arc(x="t^3", z="t^2")
    f = cusp.hypersurfaces[0].polynomial
    algebra = ReesAlgebra.from_pairs(f.vars, [(f, 2)])
    assert image_of_algebra(arc, algebra).is_empty()


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

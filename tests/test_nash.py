from fractions import Fraction

import pytest

from nashres import (
    Arc,
    MultiPoly,
    NashState,
    PowerSeries,
    contact_order,
    nash_sequence_equation,
    nash_sequence_hypersurface,
    nash_sequence_presentation,
    nash_step,
    parse_poly,
    validate_arc,
)
from nashres import nash
from nashres.errors import (
    IdentityViolationError,
    InsufficientPrecisionError,
    MaxMultArcError,
    ValidationError,
)

from conftest import exact_arc


def cusp_state():
    g = parse_poly("x^2 - z^3").extend_vars(("x", "z", "t"))
    arc = {"x": PowerSeries.t_power(3), "z": PowerSeries.t_power(2)}
    return NashState.from_poly(g, arc)


def test_nash_step_first_transform():
    state = nash_step(cusp_state(), 2)
    assert state.g == parse_poly("x^2 - z^3 t").extend_vars(("x", "z", "t"))
    assert state.arc["x"] == PowerSeries.t_power(2)
    assert state.arc["z"] == PowerSeries.t_power(1)


def test_nash_step_second_transform_translates():
    state = nash_step(nash_step(cusp_state(), 2), 2)
    expected = parse_poly("x^2 - t^2 (z+1)^3").extend_vars(("x", "z", "t"))
    assert state.g == expected
    assert state.arc["z"].is_exactly_zero()
    assert state.arc["x"] == PowerSeries.t_power(1)


def test_nash_step_third_transform_drops_order():
    state = nash_step(nash_step(nash_step(cusp_state(), 2), 2), 2)
    expected = parse_poly("x^2 + 2x - 3z t - 3 z^2 t^2 - z^3 t^3").extend_vars(
        ("x", "z", "t")
    )
    assert state.g == expected
    assert state.multiplicity() == 1


def test_nash_sequence_cusp(cusp, cusp_arc):
    seq = nash_sequence_hypersurface(cusp.hypersurfaces[0], cusp_arc)
    assert seq.multiplicities == (2, 2, 2, 1)
    assert seq.rho == 3
    assert seq.centers == ((0, 0), (0, 1), (1, 0))


def test_nash_sequence_reparametrized_cusp(cusp):
    va = validate_arc(exact_arc(x="t^6", z="t^4"), cusp)
    seq = nash_sequence_hypersurface(cusp.hypersurfaces[0], va)
    assert seq.rho == 6
    assert seq.multiplicities == (2,) * 6 + (1,)


def test_nash_sequence_umbrella(umbrella, umbrella_min_arc):
    seq = nash_sequence_hypersurface(umbrella.hypersurfaces[0], umbrella_min_arc)
    assert seq.multiplicities == (2, 2, 2, 1)
    assert seq.rho == 3


def test_nash_matches_contact_floor(umbrella, umbrella_fast_arc):
    seq = nash_sequence_hypersurface(umbrella.hypersurfaces[0], umbrella_fast_arc)
    assert seq.rho == contact_order(umbrella_fast_arc).rho == 2


def test_presentation_sequence_minimum(two_hyp):
    va = validate_arc(exact_arc(x1="t^3", x2="t^4", z1="t^2", z2="t^3"), two_hyp)
    summary = nash_sequence_presentation(two_hyp, va)
    assert dict(summary.per_hypersurface)["x1"].rho == 3
    assert dict(summary.per_hypersurface)["x2"].rho == 4
    assert summary.rho == 3
    assert va.contact.r == 3


def test_presentation_sequence_single_is_hypersurface(cusp, cusp_arc):
    summary = nash_sequence_presentation(cusp, cusp_arc)
    assert summary.rho == nash_sequence_hypersurface(cusp.hypersurfaces[0], cusp_arc).rho


def test_presentation_handles_per_hypersurface_max_mult(two_hyp):
    # x2 = z2 = 0 kills every x2-elimination generator exactly: only the
    # x1-hypersurface sequence drops, and rho takes its value
    va = validate_arc(exact_arc(x1="t^3", x2="0", z1="t^2", z2="0"), two_hyp)
    summary = nash_sequence_presentation(two_hyp, va)
    assert dict(summary.per_hypersurface)["x2"] is None
    assert summary.rho == dict(summary.per_hypersurface)["x1"].rho == 3


def test_sequence_requires_arc_off_max_mult(umbrella):
    inside = validate_arc(
        exact_arc(x="0", z1="0", z2="t"), umbrella
    )
    with pytest.raises(MaxMultArcError):
        nash_sequence_presentation(umbrella, inside)


def test_sequence_nonincreasing_on_samples(cusp, umbrella, two_hyp):
    cases = [
        (cusp, exact_arc(x="t^3", z="t^2")),
        (cusp, exact_arc(x="t^9", z="t^6")),
        (umbrella, exact_arc(x="t^3", z1="t^2", z2="t^2")),
        (two_hyp, exact_arc(x1="t^3", x2="t^3", z1="t^2", z2="-t^2")),
    ]
    for p, arc in cases:
        va = validate_arc(arc, p)
        for _, seq in nash_sequence_presentation(p, va).per_hypersurface:
            if seq is None:
                continue
            assert all(a >= b for a, b in zip(seq.multiplicities, seq.multiplicities[1:]))
            assert seq.multiplicities[-1] < seq.multiplicities[0]


def test_reparametrization_scales_rho(cusp, cusp_arc):
    r = contact_order(cusp_arc).r
    for e in (2, 3):
        va = validate_arc(cusp_arc.arc.reparametrize(e), cusp)
        seq = nash_sequence_hypersurface(cusp.hypersurfaces[0], va)
        assert seq.rho == (e * r).__floor__()


def test_truncated_arc_runs_with_enough_terms(cusp):
    from nashres import Arc

    arc = Arc({"x": PowerSeries([0, 0, 0, 1], 8), "z": PowerSeries([0, 0, 1], 8)})
    va = validate_arc(arc, cusp)
    seq = nash_sequence_hypersurface(cusp.hypersurfaces[0], va)
    assert seq.rho == 3


def test_truncated_arc_reports_needed_terms():
    f = parse_poly("x^2 - z^3")
    coords = {"x": PowerSeries([0, 0, 0, 1], 3), "z": PowerSeries([0, 0, 1], 3)}
    with pytest.raises(InsufficientPrecisionError, match=">= 4 terms"):
        nash_sequence_equation(f, coords)


def test_each_transform_is_canonical_and_a_zero_centre_keeps_the_chart():
    # x = t^3/8, z = t^2/4: centres (0, 0), (0, 1/4) and (1/8, 0); a shift by
    # a rational centre scales the numerators, a zero centre changes none
    g = parse_poly("x^2 - z^3").extend_vars(("x", "z", "t"))
    arc = {"x": PowerSeries.monomial(Fraction(1, 8), 3), "z": PowerSeries.monomial(Fraction(1, 4), 2)}
    state, centers = NashState.from_poly(g, arc), []
    while state.multiplicity() == 2:
        before = state.g
        state = nash_step(state, 2)
        centers.append(state.center_pq)
        assert state.g == MultiPoly(state.g.vars, state.g.terms)
        if not any(p for p, _ in state.center_pq):
            assert state.g.den == before.den
            assert sorted(state.g.nums.values()) == sorted(before.nums.values())
    assert centers == [((0, 1), (0, 1)), ((0, 1), (1, 4)), ((1, 8), (0, 1))]


def test_a_direct_run_checks_its_arc_at_step_0():
    # no validate_arc has seen these coordinates: the equation itself is checked
    f = parse_poly("x^2 - z^3")
    coords = {"x": PowerSeries.t_power(3), "z": PowerSeries([0, 0, 1, 1])}
    with pytest.raises(IdentityViolationError, match="left the strict transform at step 0"):
        nash_sequence_equation(f, coords)


def test_step_cap_error_names_equation_and_precision(monkeypatch):
    # x = t^9, z = t^2 on A_8 has rho = 9; a cap of 4 steps trips first
    monkeypatch.setattr(nash, "_MAX_STEPS", 4)
    f = parse_poly("x^2 - z^9")
    coords = {"x": PowerSeries.t_power(9, 40), "z": PowerSeries.t_power(2, 30)}
    with pytest.raises(ValidationError) as info:
        nash_sequence_equation(f, coords)
    message = str(info.value)
    assert "after 4 blow-ups" in message
    assert f"of {f} = 0" in message
    assert "known to precision 30" in message
    exact = {"x": PowerSeries.t_power(9), "z": PowerSeries.t_power(2)}
    with pytest.raises(ValidationError, match="known exactly"):
        nash_sequence_equation(f, exact)


def test_a_sequence_past_its_bound_is_an_identity_violation():
    # rho = 9 here: a bound of 9 lets the sequence drop, a bound of 8 is violated
    f = parse_poly("x^2 - z^9")
    coords = {"x": PowerSeries.t_power(9), "z": PowerSeries.t_power(2)}
    assert nash_sequence_equation(f, coords, bound=9).rho == 9
    with pytest.raises(IdentityViolationError) as info:
        nash_sequence_equation(f, coords, bound=8)
    message = str(info.value)
    assert "after 8 blow-ups" in message
    assert f"of {f} = 0" in message
    assert "floor(min a/l) = 8" in message


def test_sequence_centers_come_from_the_steps(cusp):
    va = validate_arc(exact_arc(x="(t + t^2)^3", z="(t + t^2)^2"), cusp)
    seq = nash_sequence_hypersurface(cusp.hypersurfaces[0], va)
    assert seq.centers == ((0, 0), (0, 1), (1, 2))


def test_censored_elimination_images_of_one_hypersurface_stop_its_sequence(two_hyp):
    arc = Arc(
        {
            "x1": PowerSeries.t_power(3),
            "z1": PowerSeries.t_power(2),
            "x2": PowerSeries.zero(6),
            "z2": PowerSeries.zero(6),
        }
    )
    va = validate_arc(arc, two_hyp)
    assert va.contact.r == 3
    with pytest.raises(InsufficientPrecisionError, match="cannot bound the x2-sequence"):
        nash_sequence_presentation(two_hyp, va)

"""Sequences of point blow-ups directed by an arc, computed geometrically.

The simulation works on the product of the hypersurface with a line carrying
the arc parameter t.  Each step blows up the origin, follows the lifted arc
into the chart where t is the exceptional parameter (always valid: the graph
has t-order exactly one), takes the strict transform, and recenters at the
point the arc runs through.  The multiplicity sequence read along the way is
non-increasing and its first drop defines the persistance rho.  A step is the
chart move of the Newton-Puiseux lifting in `generic`: `MultiPoly.t_chart`
with every weight 1 dropping t^m, then the Taylor shift `translate`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Tuple

from .arcs import ValidatedArc
from .errors import (
    IdentityViolationError,
    InsufficientPrecisionError,
    MaxMultArcError,
    ValidationError,
)
from .poly import MultiPoly
from .presentation import LocalPresentation, TschirnhausenHypersurface
from .series import PowerSeries, poly_compose_series

T = "t"

# Hard cap on blow-up count; corpus persistances are tiny, anything near this
# limit means a non-dropping sequence slipped past the Max-mult guard.
_MAX_STEPS = 10_000


@dataclass(frozen=True)
class NashState:
    """Strict transform (centered at the chart origin) plus the lifted arc."""

    g: MultiPoly  # over ambient variables + t
    arc: Dict[str, PowerSeries]  # ambient coordinates; the t-coordinate is t itself
    step: int
    center: Tuple[Fraction, ...] = ()  # ambient point blown up to reach this state

    def multiplicity(self) -> int:
        o = self.g.order_at_origin()
        if o.is_infinite:
            raise ValidationError("transform collapsed to zero; not a hypersurface")
        return o.value

    def check_arc_on_transform(self) -> None:
        subs = dict(self.arc)
        subs[T] = PowerSeries.t_power(1)
        image = poly_compose_series(self.g, subs)
        if not image.is_zero_to_precision():
            raise AssertionError(
                f"lifted arc left the strict transform at step {self.step}: {image}"
            )


@dataclass(frozen=True)
class NashSequence:
    multiplicities: Tuple[int, ...]
    rho: int
    centers: Tuple[Tuple[Fraction, ...], ...]
    precision_consumed: int
    equations: Optional[Tuple[str, ...]] = None  # transformed equation per step (trace)


def nash_step(state: NashState, m0: int) -> NashState:
    """One blow-up directed by the arc.

    Requires the current multiplicity to still equal m0.  Consumes one unit
    of arc precision: coordinates are divided by t and recentered at their
    new constant terms.
    """
    m = state.multiplicity()
    if m != m0:
        raise ValidationError(f"multiplicity already dropped: {m} != {m0}")
    for name, s in state.arc.items():
        o = s.order()
        if o.is_exact and o.value == 0:
            raise AssertionError(
                f"lifted center escaped the t-chart via coordinate {name!r}"
            )
        if o.is_censored and o.value == 0:
            raise InsufficientPrecisionError(
                f"coordinate {name!r} exhausted at step {state.step}"
            )
    g1 = state.g.t_chart(T, dict.fromkeys(state.g.vars, 1), drop=m)
    ti = g1.vars.index(T)
    low = min(exp[ti] for exp in g1.terms)
    assert low == 0, f"exceptional multiplicity {low + m} != expected order {m}"
    new_arc = {}
    point = []
    for name in state.g.vars:
        if name == T:
            point.append(Fraction(0))  # the center always lies on t = 0
            continue
        s = state.arc[name].divide_t_power(1)
        c = s.constant_term()
        point.append(c)
        new_arc[name] = PowerSeries((0,) + s.coeffs[1:], s.precision)
    g1 = g1.translate(point)
    center = tuple(c for name, c in zip(state.g.vars, point) if name != T)
    out = NashState(g1, new_arc, state.step + 1, center)
    out.check_arc_on_transform()
    return out


def _initial_state(f: MultiPoly, coords: Dict[str, PowerSeries]) -> NashState:
    ambient = f.vars + (T,)
    g = f.extend_vars(ambient)
    arc = {v: coords[v] for v in f.vars}
    state = NashState(g, arc, 0)
    state.check_arc_on_transform()
    return state


def nash_sequence_equation(
    f: MultiPoly, coords: Dict[str, PowerSeries], trace: bool = False
) -> NashSequence:
    """Run the directed blow-up sequence for one centered hypersurface equation.

    The arc must satisfy the equation (checked to its precision) and must not
    be contained in the top multiplicity stratum, or the sequence would never
    drop.
    """
    state = _initial_state(f, coords)
    m0 = state.multiplicity()
    mults = [m0]
    centers = []
    equations = [] if trace else None
    while True:
        if state.step >= _MAX_STEPS:
            precisions = [s.precision for s in coords.values() if s.precision is not None]
            known = f"to precision {min(precisions)}" if precisions else "exactly"
            raise ValidationError(
                f"no multiplicity drop after {_MAX_STEPS} blow-ups of {f} = 0 "
                f"along an arc known {known}; is the arc inside the top stratum?"
            )
        try:
            nxt = nash_step(state, m0)
        except InsufficientPrecisionError:
            raise InsufficientPrecisionError(
                "insufficient precision for the directed sequence; "
                f"supply the arc to >= {state.step + 2} terms"
            ) from None
        centers.append(nxt.center)
        m = nxt.multiplicity()
        mults.append(m)
        if equations is not None:
            equations.append(str(nxt.g))
        state = nxt
        if m < m0:
            break
    return NashSequence(
        multiplicities=tuple(mults),
        rho=len(mults) - 1,
        centers=tuple(centers),
        precision_consumed=len(mults) - 1,
        equations=None if equations is None else tuple(equations),
    )


def nash_sequence_hypersurface(
    h: TschirnhausenHypersurface, va: ValidatedArc, trace: bool = False
) -> NashSequence:
    """Directed sequence for one hypersurface of a validated arc's presentation."""
    images = dict(va.elimination_images)[h.var]
    if not images:
        raise MaxMultArcError(
            f"arc inside Max mult of the {h.var}-hypersurface; sequence never drops"
        )
    if not any(img.a.is_exact for img, _ in images):
        raise InsufficientPrecisionError(
            f"cannot bound the {h.var}-sequence: all elimination images censored"
        )
    coords = {v: va.arc.coords[v] for v in h.ambient_vars}
    return nash_sequence_equation(h.polynomial, coords, trace=trace)


@dataclass(frozen=True)
class PresentationNashSummary:
    rho: int
    per_hypersurface: Tuple[Tuple[str, Optional[NashSequence]], ...]
    contact_r: Fraction

    def sequence_for(self, var: str) -> Optional[NashSequence]:
        for name, seq in self.per_hypersurface:
            if name == var:
                return seq
        raise KeyError(var)


def nash_sequence_presentation(
    p: LocalPresentation, va: ValidatedArc, trace: bool = False
) -> PresentationNashSummary:
    """Per-hypersurface sequences; rho of the presentation is their minimum.

    A hypersurface whose elimination generators are all killed exactly never
    drops and contributes no finite candidate (recorded as None).  The result
    is cross-checked against floor(r) from the contact algebra; disagreement
    is a hard identity violation.
    """
    runs = []
    rhos = []
    for h in p.hypersurfaces:
        try:
            seq = nash_sequence_hypersurface(h, va, trace=trace)
        except MaxMultArcError:
            runs.append((h.var, None))
            continue
        runs.append((h.var, seq))
        rhos.append(seq.rho)
    if not rhos:
        raise MaxMultArcError("arc inside Max mult: no hypersurface sequence drops")
    rho = min(rhos)
    result = va.contact
    if rho != result.rho:
        raise IdentityViolationError(
            f"geometric persistance {rho} != floor(r) = {result.rho}"
        )
    return PresentationNashSummary(
        rho=rho, per_hypersurface=tuple(runs), contact_r=result.r
    )

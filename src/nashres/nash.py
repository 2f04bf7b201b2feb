"""Sequences of point blow-ups directed by an arc, computed geometrically.

The simulation works on the product of the hypersurface with a line carrying
the arc parameter t.  Each step blows up the origin, follows the lifted arc
into the chart where t is the exceptional parameter (always valid: the graph
has t-order exactly one), takes the strict transform, and recenters at the
point the arc runs through.  The multiplicity sequence read along the way is
non-increasing and its first drop defines the persistance rho.

A step runs on integers.  The transform is g = G/D, an integer polynomial G
over one denominator D with gcd(content(G), D) = 1, and the arc is kept as
its `PowerSeries`, each integer numerators over one denominator.
The chart is an exponent map (the t-exponent becomes the total degree minus
m), the arc is recentered by dropping its first numerator and zeroing the
new constant one, and the Taylor shift by each center p/q is the integer
grouped shift `poly.shift_integer_terms`, which scales G by q^N; G and D are
then divided by their gcd.  This is the chart move that a Newton-Puiseux
stage in `generic` makes, on the same integer shift kernel.  Every step
checks that the arc still lies on the transform by a full evaluation through
the integer back end `series.compose_integers`.  `NashState.g` is a
`MultiPoly` view built on demand (for `--trace`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import Dict, Optional, Tuple

from .arcs import ValidatedArc
from .errors import (
    IdentityViolationError,
    InsufficientPrecisionError,
    MaxMultArcError,
    ValidationError,
)
from .poly import Exponent, MultiPoly, shift_integer_terms
from .presentation import LocalPresentation, TschirnhausenHypersurface
from .series import PowerSeries, compose_integers

T = "t"

# Hard cap on blow-up count; corpus persistances are tiny, anything near this
# limit means a non-dropping sequence slipped past the Max-mult guard.
_MAX_STEPS = 10_000


@dataclass(frozen=True)
class NashState:
    """Strict transform g = G/D (centered at the chart origin) plus the lifted arc."""

    vars: Tuple[str, ...]  # ambient variables + t
    G: Dict[Exponent, int]
    D: int
    forms: Tuple[PowerSeries, ...]  # one per variable; the t-coordinate is t itself
    step: int
    center_pq: Tuple[Tuple[int, int], ...] = ()  # (p, q) of each ambient coordinate

    @classmethod
    def from_poly(cls, g: MultiPoly, arc: Dict[str, PowerSeries], step: int = 0) -> "NashState":
        """The state of a transform over the ambient variables and t, and an arc."""
        forms = tuple(PowerSeries.t_power(1) if v == T else arc[v] for v in g.vars)
        return cls(g.vars, g.nums, g.den, forms, step)

    @property
    def g(self) -> MultiPoly:
        return MultiPoly._raw(self.vars, self.G, self.D)

    @property
    def arc(self) -> Dict[str, PowerSeries]:
        return {v: s for v, s in zip(self.vars, self.forms) if v != T}

    @property
    def center(self) -> Tuple[Fraction, ...]:
        """Ambient point blown up to reach this state."""
        return tuple(Fraction(p, q) for p, q in self.center_pq)

    @cached_property
    def _multiplicity(self) -> Optional[int]:
        return min(map(sum, self.G)) if self.G else None

    def multiplicity(self) -> int:
        m = self._multiplicity
        if m is None:
            raise ValidationError("transform collapsed to zero; not a hypersurface")
        return m

    def check_arc_on_transform(self) -> None:
        terms = [(c, self.D, [(i, e) for i, e in enumerate(exp) if e]) for exp, c in self.G.items()]
        image = compose_integers(terms, self.forms)
        if image.nums:
            raise IdentityViolationError(
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
    ti = state.vars.index(T)
    for i, s in enumerate(state.forms):
        if i == ti:
            continue
        if s.nums and s.nums[0]:
            raise IdentityViolationError(
                f"lifted center escaped the t-chart via coordinate {state.vars[i]!r} "
                f"at step {state.step}"
            )
        if not s.nums and s.precision == 0:
            raise InsufficientPrecisionError(
                f"coordinate {state.vars[i]!r} exhausted at step {state.step}"
            )
    # the chart: x -> t x for every ambient x, then t^m divides out
    G = {exp[:ti] + (sum(exp) - m,) + exp[ti + 1:]: c for exp, c in state.G.items()}
    low = min(exp[ti] for exp in G)
    if low:
        raise IdentityViolationError(
            f"blow-up at step {state.step}: exceptional multiplicity {low + m} "
            f"!= multiplicity {m}"
        )
    forms = list(state.forms)
    center, shifts = [], []
    for i, s in enumerate(state.forms):
        if i == ti:
            continue
        if s.precision == 1:
            raise InsufficientPrecisionError(
                "coefficient of t^0 requested, series known below t^0"
            )
        # divided by t, the coordinate's first numerator is the new center
        nums, den = s.nums, s.den
        c = nums[1] if len(nums) > 1 else 0
        forms[i] = PowerSeries.from_integers(
            (0,) + nums[2:], den, None if s.precision is None else s.precision - 1
        )
        common = gcd(c, den)
        p, q = c // common, den // common
        center.append((p, q))
        if p:
            shifts.append((i, p, q))
    # the Taylor shift by each nonzero center p/q, once every coordinate is known
    D = state.D
    for i, p, q in shifts:
        G, scale = shift_integer_terms(G, i, p, q)
        D *= scale
    common = gcd(D, *G.values())
    if common > 1:
        G = {exp: c // common for exp, c in G.items()}
        D //= common
    out = NashState(state.vars, G, D, tuple(forms), state.step + 1, tuple(center))
    out.check_arc_on_transform()
    return out


def _initial_state(f: MultiPoly, coords: Dict[str, PowerSeries]) -> NashState:
    g = f.extend_vars(f.vars + (T,))
    state = NashState.from_poly(g, {v: coords[v] for v in f.vars})
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

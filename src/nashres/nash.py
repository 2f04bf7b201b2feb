"""Sequences of point blow-ups directed by an arc, computed geometrically.

The simulation works on the product of the hypersurface with a line carrying
the arc parameter t.  Each step blows up the origin, follows the lifted arc
into the chart where t is the exceptional parameter (always valid: the graph
has t-order exactly one), takes the strict transform, and recenters at the
point the arc runs through.  The multiplicity sequence read along the way is
non-increasing and its first drop defines the persistance rho.

A step runs on integers.  The transform g is a `MultiPoly`, integer
numerators over one denominator, and the arc is kept as its `PowerSeries`,
each integer numerators over one denominator.  The chart is an exponent map
on the numerators (the t-exponent becomes the total degree minus m), the arc
is recentered by dropping its first numerator and zeroing the new constant
one, and the Taylor shift by each center p/q is the integer grouped shift
`poly.shift_integer_terms`, which scales the numerators by q^N;
`MultiPoly.from_integers` then puts the result in canonical form.  A step
whose centre is the chart origin keeps the chart's output as it is: the
exponent map is one-to-one and leaves every numerator alone.  This is the
chart move that a Newton-Puiseux stage in `generic` makes, on the same
integer shift.  A step does not check the arc.  A sequence checks that the
arc lies on its last transform, by one full evaluation through the integer
back end `series.compose_integers`: a correct step divides the residual
g(arc) by t^m and takes one unit off the arc's precision, so a residual
term that any earlier transform shows, the last one shows too.  Only when
that check fails, or the run raises, does the sequence run again from the
start with a check after every step, to name the first step whose transform
the arc left.  Step 0 is the equation itself: a sequence checks it first,
unless `validate_arc` has already seen it vanish on the arc.
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
    NashresError,
    ValidationError,
)
from .poly import MultiPoly, shift_integer_terms
from .series import PowerSeries, compose_integers

T = "t"

# Hard cap on blow-up count for an equation run without a bound on rho;
# `nash_sequence_presentation` derives its bound from the elimination images.
_MAX_STEPS = 10_000


@dataclass(frozen=True)
class NashState:
    """Strict transform g (centered at the chart origin) plus the lifted arc."""

    g: MultiPoly  # over the ambient variables + t
    forms: Tuple[PowerSeries, ...]  # one per variable of g; the t-coordinate is t itself
    step: int
    center_pq: Tuple[Tuple[int, int], ...] = ()  # (p, q) of each ambient coordinate

    @classmethod
    def from_poly(cls, g: MultiPoly, arc: Dict[str, PowerSeries]) -> "NashState":
        """The state of a transform over the ambient variables and t, and an arc."""
        forms = tuple(PowerSeries.t_power(1) if v == T else arc[v] for v in g.vars)
        return cls(g, forms, 0)

    @cached_property
    def _multiplicity(self) -> Optional[int]:
        return min(map(sum, self.g.nums)) if self.g.nums else None

    def multiplicity(self) -> int:
        m = self._multiplicity
        if m is None:
            raise ValidationError("transform collapsed to zero; not a hypersurface")
        return m

    def check_arc_on_transform(self) -> None:
        image = compose_integers(self.g.nums, self.g.den, self.forms)
        if image.nums:
            raise IdentityViolationError(
                f"lifted arc left the strict transform at step {self.step}: {image}"
            )


@dataclass(frozen=True)
class NashSequence:
    multiplicities: Tuple[int, ...]
    rho: int
    center_pq: Tuple[Tuple[Tuple[int, int], ...], ...]  # (p, q) per coordinate per step
    equations: Optional[Tuple[str, ...]] = None  # transformed equation per step (trace)

    @property
    def centers(self) -> Tuple[Tuple[Fraction, ...], ...]:
        return tuple(tuple(Fraction(p, q) for p, q in center) for center in self.center_pq)


def nash_step(state: NashState, m0: int) -> NashState:
    """One blow-up directed by the arc.

    Requires the current multiplicity to still equal m0.  Consumes one unit
    of arc precision: coordinates are divided by t and recentered at their
    new constant terms.  Each coordinate is read once, in order: a nonzero
    constant term has escaped the t-chart, and a coordinate known only below
    t^1 (or t^0) raises InsufficientPrecisionError naming the terms the
    sequence needs.  The step does not check that the arc lies on the
    transform it builds; `nash_sequence_equation` does.
    """
    m = state.multiplicity()
    if m != m0:
        raise ValidationError(f"multiplicity changed by step {state.step}: {m} != {m0}")
    g = state.g
    ti = g.vars.index(T)
    # the chart: x -> t x for every ambient x, then t^m divides out
    G = {exp[:ti] + (sum(exp) - m,) + exp[ti + 1:]: c for exp, c in g.nums.items()}
    forms = list(state.forms)
    center, shifts = [], []
    for i, s in enumerate(state.forms):
        if i == ti:
            continue
        nums, den = s.nums, s.den
        if nums and nums[0]:
            raise IdentityViolationError(
                f"lifted center escaped the t-chart via coordinate {g.vars[i]!r} "
                f"at step {state.step}"
            )
        if s.precision is not None and s.precision < 2:
            raise InsufficientPrecisionError(
                "insufficient precision for the directed sequence; "
                f"supply the arc to >= {state.step + 2} terms"
            )
        # divided by t, the coordinate's first numerator is the new center
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
    D = g.den
    for i, p, q in shifts:
        G, scale = shift_integer_terms(G, i, p, q)
        D *= scale
    transform = MultiPoly.from_integers(g.vars, G, D) if shifts else MultiPoly._raw(g.vars, G, D)
    return NashState(transform, tuple(forms), state.step + 1, tuple(center))


def nash_sequence_equation(
    f: MultiPoly,
    coords: Dict[str, PowerSeries],
    trace: bool = False,
    bound: Optional[int] = None,
    validated: bool = False,
) -> NashSequence:
    """Run the directed blow-up sequence for one centered hypersurface equation.

    The arc must satisfy the equation (checked first, unless `validated`
    says that `validate_arc` has seen f vanish on it) and must not be
    contained in the top multiplicity stratum, or the sequence would never
    drop.  A sequence that runs past `bound`, a proved upper bound on rho,
    is an identity violation; without a bound it stops after _MAX_STEPS
    blow-ups.

    The steps run unchecked, and the arc is checked once, on the last
    transform.  If that check fails or the run raises, the sequence runs
    again from the start with the arc checked on every transform, and raises
    what that run raises: the first step whose transform the arc left, or
    the error of the unchecked run.
    """
    start = NashState.from_poly(f.extend_vars(f.vars + (T,)), coords)
    if not validated:
        start.check_arc_on_transform()
    try:
        seq, last = _directed_run(start, f, coords, trace, bound, checked=False)
        last.check_arc_on_transform()
        return seq
    except NashresError:
        pass
    return _directed_run(start, f, coords, trace, bound, checked=True)[0]


def _directed_run(
    state: NashState,
    f: MultiPoly,
    coords: Dict[str, PowerSeries],
    trace: bool,
    bound: Optional[int],
    checked: bool,
) -> Tuple[NashSequence, NashState]:
    """The blow-ups from `state` to the first drop, and the last transform;
    with `checked`, the arc is checked on every transform a step builds."""
    m0 = state.multiplicity()
    mults = [m0]
    centers = []
    equations = [] if trace else None
    while True:
        if bound is not None and state.step >= bound:
            raise IdentityViolationError(
                f"no multiplicity drop after {bound} blow-ups of {f} = 0, "
                f"past the bound floor(min a/l) = {bound} of its exact elimination images"
            )
        if bound is None and state.step >= _MAX_STEPS:
            precisions = [s.precision for s in coords.values() if s.precision is not None]
            known = f"to precision {min(precisions)}" if precisions else "exactly"
            raise ValidationError(
                f"no multiplicity drop after {_MAX_STEPS} blow-ups of {f} = 0 "
                f"along an arc known {known}; is the arc inside the top stratum?"
            )
        state = nash_step(state, m0)
        if checked:
            state.check_arc_on_transform()
        centers.append(state.center_pq)
        m = state.multiplicity()
        mults.append(m)
        if equations is not None:
            equations.append(str(state.g))
        if m < m0:
            break
    seq = NashSequence(
        multiplicities=tuple(mults),
        rho=len(mults) - 1,
        center_pq=tuple(centers),
        equations=None if equations is None else tuple(equations),
    )
    return seq, state


@dataclass(frozen=True)
class PresentationNashSummary:
    rho: int
    per_hypersurface: Tuple[Tuple[str, Optional[NashSequence]], ...]


def nash_sequence_presentation(va: ValidatedArc, trace: bool = False) -> PresentationNashSummary:
    """Per-hypersurface sequences of a validated arc; rho is their minimum.

    A hypersurface whose elimination generators are all killed exactly never
    drops and contributes no finite candidate (recorded as None).  Every other
    runs to a bound: rho = floor(r), and r is at most a/l for every exact
    elimination image t^a W^l, so min floor(a/l) over those images bounds
    rho.  The reports compare this rho with floor(r) from the contact
    algebra; nothing here does.
    """
    runs = []
    for h in va.presentation.hypersurfaces:
        images = va.elimination_images[h.var]
        if not images:
            runs.append((h.var, None))
            continue
        bounds = [img.a.value // img.l for img, _ in images if img.a.is_exact]
        if not bounds:
            raise InsufficientPrecisionError(
                f"cannot bound the {h.var}-sequence: all elimination images censored"
            )
        coords = {v: va.arc.coords[v] for v in h.ambient_vars}
        seq = nash_sequence_equation(h.polynomial, coords, trace, min(bounds), validated=True)
        runs.append((h.var, seq))
    rhos = [seq.rho for _, seq in runs if seq is not None]
    if not rhos:
        raise MaxMultArcError("arc inside Max mult: no hypersurface sequence drops")
    return PresentationNashSummary(rho=min(rhos), per_hypersurface=tuple(runs))

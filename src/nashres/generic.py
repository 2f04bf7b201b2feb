"""Construction of arcs realizing the minimal normalized order of contact.

The recipe follows the existence proof: pick units u so that the initial form
of every minimizing elimination generator survives at u, run the diagonal arc
(u_1 t^alpha, ..., u_d t^alpha) on the base, and lift it to the variety by
solving each separated equation f_i(x_i, u t^alpha) = 0 with a Newton-Puiseux
iteration, reparametrizing to clear denominators.  Everything is exact; a
branch that needs irrational coefficients raises instead of approximating.
Each stage is the chart move of the blow-ups in `nash`: `MultiPoly.t_chart`
with weight m on x, the Taylor shift `translate` by the edge root, and
`t_chart` again to divide out t^nu; ramification is weight q on t.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .arcs import Arc, ValidatedArc, arc_order, image_of_algebra, validate_arc
from .errors import (
    ExtensionRequiredError,
    IdentityViolationError,
    MaxMultArcError,
    ValidationError,
)
from .extorder import ExtOrder
from .poly import MultiPoly
from .presentation import (
    LocalPresentation,
    TschirnhausenHypersurface,
    presentation_elimination_order,
)
from .rees import ReesAlgebra, algebra_order_at, onedim_order
from .series import PowerSeries, poly_compose_series

T = "t"


# -- unit search --------------------------------------------------------------


def unit_tuples(d: int, bound: int) -> Iterator[Tuple[int, ...]]:
    """All-nonzero integer tuples, by max-norm then lexicographic order."""
    for m in range(1, bound + 1):
        values = [v for v in range(-m, m + 1) if v != 0]
        for u in itertools.product(values, repeat=d):
            if max(abs(v) for v in u) == m:
                yield u


def min_achieving_generators(algebra: ReesAlgebra) -> List[MultiPoly]:
    """Generators whose quotient attains the algebra order at the origin."""
    origin = (Fraction(0),) * len(algebra.ambient_vars)
    order = algebra_order_at(algebra, origin)
    if order.is_infinite:
        return []
    out = []
    for g in algebra.generators:
        if g.f.order_at_origin().divided_by(g.weight) == order:
            out.append(g.f)
    return out


def _admits(u: Sequence[int], witnesses: Sequence[MultiPoly]) -> bool:
    pt = [Fraction(v) for v in u]
    return all(w.initial_form().eval_at(pt) != 0 for w in witnesses)


def admissible_unit_tuples(
    algebras: Sequence[ReesAlgebra], d: int, bound: int
) -> Iterator[Tuple[int, ...]]:
    """Unit tuples at which no minimizing generator's initial form vanishes.

    Nonvanishing is demanded on *every* generator achieving each algebra's
    minimum, so the certificate does not depend on a witness choice.
    """
    witnesses: List[MultiPoly] = []
    for algebra in algebras:
        if algebra.is_empty():
            raise MaxMultArcError(
                "arc necessarily inside Max mult: an elimination algebra is empty"
            )
        witnesses.extend(min_achieving_generators(algebra))
    for u in unit_tuples(d, bound):
        if _admits(u, witnesses):
            yield u


def find_generic_units(
    algebras: Sequence[ReesAlgebra], d: int, bound: int
) -> Tuple[int, ...]:
    """First admissible unit tuple in the enumeration order."""
    for u in admissible_unit_tuples(algebras, d, bound):
        return u
    raise ValidationError(
        f"no unit tuple within bound {bound}; retry with a larger --search-bound"
    )


# -- diagonal base arcs --------------------------------------------------------


@dataclass(frozen=True)
class DiagonalArc:
    """Base arc z_i -> u_i * t^alpha with nonzero rational units."""

    units: Tuple[Fraction, ...]
    alpha: int
    base_vars: Tuple[str, ...]

    def __post_init__(self):
        if self.alpha < 1:
            raise ValidationError("diagonal exponent must be >= 1")
        if len(self.units) != len(self.base_vars):
            raise ValidationError("one unit per base variable required")
        if any(u == 0 for u in self.units):
            raise ValidationError("diagonal units must be nonzero")

    def coords(self) -> Dict[str, PowerSeries]:
        return {
            v: PowerSeries.monomial(u, self.alpha)
            for v, u in zip(self.base_vars, self.units)
        }

    def to_arc(self) -> Arc:
        return Arc(self.coords())


def build_diagonal_arc(units: Sequence, alpha: int, base_vars: Sequence[str]) -> DiagonalArc:
    return DiagonalArc(tuple(Fraction(u) for u in units), alpha, tuple(base_vars))


def is_diagonal_generic(base: DiagonalArc, algebras: Sequence[ReesAlgebra]) -> bool:
    """Image order equals alpha times the algebra order, for every algebra."""
    arc = base.to_arc()
    origin = (Fraction(0),) * len(base.base_vars)
    for algebra in algebras:
        expected = algebra_order_at(algebra, origin)
        got = onedim_order(image_of_algebra(arc, algebra))
        if got.is_infinite or expected.is_infinite:
            return False
        if got.expect_exact("image order") != base.alpha * expected.value:
            return False
    return True


# -- Newton-Puiseux lifting -------------------------------------------------------


def _t_order(c: MultiPoly, t_index: int) -> int:
    return min(exp[t_index] for exp in c.terms)


def _lower_hull(points: List[Tuple[int, int]]) -> List[Tuple[int, int]]:
    hull: List[Tuple[int, int]] = []
    for pt in sorted(points):
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (x2 - x1) * (pt[1] - y1) - (y2 - y1) * (pt[0] - x1) <= 0:
                hull.pop()
            else:
                break
        hull.append(pt)
    return hull


def _divisors(n: int) -> List[int]:
    n = abs(n)
    out = []
    k = 1
    while k * k <= n:
        if n % k == 0:
            out.append(k)
            if k != n // k:
                out.append(n // k)
        k += 1
    return sorted(out)


def _iroot_exact(n: int, k: int) -> Optional[int]:
    """The integer k-th root of n when n is a nonnegative perfect k-th power."""
    if n < 2:
        return n if n >= 0 else None
    x = 1 << -(-n.bit_length() // k)  # at least the root
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    return x if x**k == n else None


def _rational_roots(coeffs: List[Fraction]) -> List[Fraction]:
    """Distinct rational roots of sum coeffs[k] c^k, constant term nonzero.

    Degrees one and two are solved in closed form (the iteration produces
    these with very large coefficients, where divisor enumeration would be
    hopeless).  A binomial a_0 + a_b c^b of degree b >= 3 is solved by exact
    integer b-th roots of the reduced numerator and denominator of
    c^b = -a_0/a_b: no root when that ratio is not a b-th power or is negative
    with b even, two opposite roots when b is even.  Other higher-degree
    equations use the rational root theorem.
    """
    denom = 1
    for c in coeffs:
        denom = denom * c.denominator // gcd(denom, c.denominator)
    ints = [int(c * denom) for c in coeffs]
    content = 0
    for c in ints:
        content = gcd(content, c)
    if content > 1:
        ints = [c // content for c in ints]
    if len(ints) == 2:
        return [Fraction(-ints[0], ints[1])]
    if len(ints) == 3:
        a0, a1, a2 = ints
        root_disc = _iroot_exact(a1 * a1 - 4 * a0 * a2, 2)
        if root_disc is None:
            return []
        out = [Fraction(-a1 + root_disc, 2 * a2), Fraction(-a1 - root_disc, 2 * a2)]
        return out if out[0] != out[1] else out[:1]
    a0, lead = ints[0], ints[-1]
    if not any(ints[1:-1]):
        b = len(ints) - 1
        ratio = Fraction(-a0, lead)
        if ratio < 0 and b % 2 == 0:
            return []
        num = _iroot_exact(abs(ratio.numerator), b)
        den = _iroot_exact(ratio.denominator, b)
        if num is None or den is None:
            return []
        root = Fraction(num if ratio > 0 else -num, den)
        return [root, -root] if b % 2 == 0 else [root]
    roots = []
    for p in _divisors(a0):
        for q in _divisors(lead):
            if gcd(p, q) != 1:
                continue
            for cand in (Fraction(p, q), Fraction(-p, q)):
                value = Fraction(0)
                for c in reversed(ints):
                    value = value * cand + c
                if value == 0 and cand not in roots:
                    roots.append(cand)
    return roots


def _pick_root(roots: List[Fraction]) -> Fraction:
    # Smallest by |numerator| then |denominator|, positive preferred on ties.
    return min(roots, key=lambda r: (abs(r.numerator), abs(r.denominator), r < 0))


@dataclass(frozen=True)
class PuiseuxLift:
    ramification: int
    root: PowerSeries  # in the reparametrized parameter
    residual_order: ExtOrder

    @property
    def exact(self) -> bool:
        return self.root.is_exact


def _truncate_above_t(f: MultiPoly, t_index: int, bound: int) -> Tuple[MultiPoly, bool]:
    """Drop terms of t-degree >= bound, reporting whether anything was lost."""
    keep = {exp: c for exp, c in f.terms.items() if exp[t_index] < bound}
    if len(keep) == len(f.terms):
        return f, False
    return MultiPoly._raw(f.vars, keep), True


def _newton_puiseux_root(F: MultiPoly, xvar: str, precision: int) -> Tuple[PowerSeries, int]:
    """One branch x(t) of F(x, t) = 0 with positive order, plus the ramification.

    Deterministic: at each stage take the steepest descending Newton polygon
    edge and the smallest rational root of its edge equation.  Returns an
    exact series when the iteration terminates (the residual constant
    coefficient vanishes identically), a truncated one otherwise.

    The residual is truncated above the still-reachable exponent range: an
    edge below the bound only ever involves t-orders below the constant
    coefficient's order, so discarded terms cannot influence any branch
    coefficient under the requested precision.
    """
    t_index = F.vars.index(T)
    e = 1
    target = precision
    found: List[Tuple[Fraction, int]] = []  # (coefficient, absolute exponent)
    shift = 0  # exponent offset of the current residual's roots
    cur = F
    lossy = False
    while True:
        cur, dropped = _truncate_above_t(cur, t_index, max(target - shift, 1))
        lossy = lossy or dropped
        coeffs = cur.coefficients_in(xvar)
        c0 = coeffs.get(0)
        if c0 is None or c0.is_zero():
            return _series_from_terms(found, precision=target if lossy else None), e
        points = [(i, _t_order(c, t_index)) for i, c in coeffs.items() if not c.is_zero()]
        hull = _lower_hull(points)
        if len(hull) < 2 or hull[1][1] >= hull[0][1]:
            raise ExtensionRequiredError(
                "no branch through the origin on this Newton polygon"
            )
        (i0, v0), (i1, v1) = hull[0], hull[1]
        gamma = Fraction(v0 - v1, i1 - i0)
        q = gamma.denominator
        if q > 1:
            cur = cur.t_chart(T, {T: q})
            e *= q
            target *= q
            shift *= q
            found = [(c, k * q) for c, k in found]
            v0, v1 = v0 * q, v1 * q
            gamma = gamma * q
        m = int(gamma)
        if shift + m >= target:
            return _series_from_terms(found, precision=target), e
        coeffs = cur.coefficients_in(xvar)
        edge_coeffs = [Fraction(0)] * (i1 - i0 + 1)
        for i, c in coeffs.items():
            if not c.is_zero() and i0 <= i <= i1:
                v_line = v0 - m * (i - i0)
                if _t_order(c, t_index) == v_line:
                    exp = [0] * len(F.vars)
                    exp[t_index] = v_line
                    edge_coeffs[i - i0] = c.terms.get(tuple(exp), Fraction(0))
        while edge_coeffs and edge_coeffs[-1] == 0:
            edge_coeffs.pop()
        roots = [r for r in _rational_roots(edge_coeffs) if r != 0]
        if not roots:
            raise ExtensionRequiredError(
                "edge equation has no nonzero rational root; "
                "the branch requires an algebraic extension"
            )
        c = _pick_root(roots)
        found.append((c, shift + m))
        # x -> t^m (c + x), then divide out the t-power the edge leaves behind
        cur = cur.t_chart(T, {T: 1, xvar: m})
        cur = cur.translate([c if v == xvar else 0 for v in cur.vars])
        cur = cur.t_chart(T, {T: 1}, drop=min(exp[t_index] for exp in cur.terms))
        shift += m


def _series_from_terms(terms: List[Tuple[Fraction, int]], precision: int | None) -> PowerSeries:
    if not terms:
        return PowerSeries.zero(precision)
    top = max(m for _, m in terms)
    coeffs = [Fraction(0)] * (top + 1)
    for c, m in terms:
        coeffs[m] += c
    return PowerSeries(coeffs, precision)


def _equation_on_base(
    h: TschirnhausenHypersurface, units: Sequence[Fraction], exponents: Sequence[int]
) -> MultiPoly:
    """f_i with the base variables replaced by monomials: an element of Q[x, t]."""
    ambient = h.ambient_vars + (T,)
    f = h.polynomial.extend_vars(ambient)
    for v, u, a in zip(h.base_vars, units, exponents):
        sub = MultiPoly.variable(ambient, T) ** a
        f = f.substitute(v, sub.scale(u))
    return f.restrict_vars((h.var, T))


def _lift_equation(
    h: TschirnhausenHypersurface,
    units: Sequence[Fraction],
    exponents: Sequence[int],
    precision: int,
) -> PuiseuxLift:
    if h.elimination_algebra.is_empty():
        raise MaxMultArcError(
            "arc necessarily inside Max mult: the equation is a pure power"
        )
    F = _equation_on_base(h, units, exponents)
    root, e = _newton_puiseux_root(F, h.var, precision)
    check = F.t_chart(T, {T: e})
    residual = poly_compose_series(
        check, {h.var: root, T: PowerSeries.t_power(1, root.precision)}
    )
    if not residual.is_zero_to_precision():
        raise AssertionError(f"puiseux root fails the residual check: {residual}")
    return PuiseuxLift(ramification=e, root=root, residual_order=residual.order())


def puiseux_lift(
    h: TschirnhausenHypersurface, base: DiagonalArc, precision: int = 64
) -> PuiseuxLift:
    """Solve f(x, u t^alpha) = 0 for x(t), reparametrizing to stay rational."""
    exponents = [base.alpha] * len(base.base_vars)
    return _lift_equation(h, base.units, exponents, precision)


def lift_monomial_base(
    p: LocalPresentation,
    units: Sequence,
    exponents: Sequence[int],
    precision: int = 64,
) -> ValidatedArc:
    """Lift a monomial base arc z_i -> u_i t^(a_i), exponents not necessarily equal.

    Each separated equation is lifted independently; a common parameter is
    obtained by reparametrizing everything by the lcm of the ramifications.
    Skew exponent vectors give valid arcs that are generally not generic.
    """
    units = tuple(Fraction(u) for u in units)
    exponents = tuple(exponents)
    if any(a < 1 for a in exponents):
        raise ValidationError("base exponents must be >= 1")
    lifts = {
        h.var: _lift_equation(h, units, exponents, precision)
        for h in p.hypersurfaces
    }
    e = lcm(*(l.ramification for l in lifts.values()))
    coords: Dict[str, PowerSeries] = {}
    for var, lift in lifts.items():
        coords[var] = lift.root.reparametrize(e // lift.ramification)
    for v, u, a in zip(p.base_vars, units, exponents):
        coords[v] = PowerSeries.monomial(u, a * e)
    return validate_arc(Arc(coords), p)


def lift_to_presentation(
    p: LocalPresentation, base: DiagonalArc, precision: int = 64
) -> ValidatedArc:
    """Lift the diagonal base arc through every hypersurface at once."""
    return lift_monomial_base(
        p, base.units, [base.alpha] * len(base.base_vars), precision
    )


# -- generic arc construction and verification --------------------------------------


@dataclass(frozen=True)
class GenericArcResult:
    arc: ValidatedArc
    base: DiagonalArc
    ramification: int
    units_tried: int
    genericity: GenericityReport


def construct_generic_arc(
    p: LocalPresentation,
    alpha: int = 1,
    search_bound: int = 8,
    precision: int = 64,
) -> GenericArcResult:
    """Find units, lift, and verify; retries the unit search past branches
    that would need an algebraic extension."""
    algebras = [h.elimination_algebra for h in p.hypersurfaces]
    tried = 0
    last_error: Optional[ExtensionRequiredError] = None
    for u in admissible_unit_tuples(algebras, p.d, search_bound):
        tried += 1
        base = build_diagonal_arc(u, alpha, p.base_vars)
        try:
            va = lift_to_presentation(p, base, precision)
        except ExtensionRequiredError as err:
            last_error = err
            continue
        report = verify_genericity(va, p)
        if not report.generic:
            raise IdentityViolationError(
                f"lifted arc of a diagonal-generic base is not generic: "
                f"r_bar = {report.r_bar} != {report.expected_order}"
            )
        if report.order_realized_by_x and report.expected_order != 1:
            raise IdentityViolationError(
                "arc order realized by a distinguished coordinate forces order 1, "
                f"got {report.expected_order}"
            )
        ram = _common_ramification(va, base)
        return GenericArcResult(va, base, ram, tried, report)
    if last_error is not None:
        raise ExtensionRequiredError(
            f"every admissible unit tuple within bound {search_bound} needs an "
            f"algebraic extension (last: {last_error})"
        )
    raise ValidationError(
        f"no unit tuple within bound {search_bound}; retry with a larger --search-bound"
    )


def _common_ramification(va: ValidatedArc, base: DiagonalArc) -> int:
    """Exponent scaling applied to the base: N = alpha * e gives e."""
    n = arc_base_exponent(va)
    assert n is not None and n % base.alpha == 0
    return n // base.alpha


def arc_base_exponent(va: ValidatedArc) -> Optional[int]:
    """Common order of the base coordinates, when they all agree (diagonal shape)."""
    orders = set()
    for v in va.presentation.base_vars:
        o = va.arc.coords[v].order()
        if not o.is_exact:
            return None
        orders.add(o.value)
    return orders.pop() if len(orders) == 1 else None


@dataclass(frozen=True)
class GenericityReport:
    generic: bool
    r_bar: Fraction
    expected_order: Fraction
    witness: str
    arc_order: int
    base_exponent: Optional[int]
    order_matches_base: Optional[bool]
    order_realized_by_x: bool


def verify_genericity(va: ValidatedArc, p: LocalPresentation) -> GenericityReport:
    """Does the arc realize the presentation's elimination order exactly?"""
    result = va.contact
    expected = presentation_elimination_order(p).expect_exact("elimination order")
    n = arc_base_exponent(va)
    realized_by_x = False
    for h in p.hypersurfaces:
        o = va.arc.coords[h.var].order()
        if o.is_exact and o.value == result.arc_order:
            realized_by_x = True
    return GenericityReport(
        generic=(result.r_bar == expected),
        r_bar=result.r_bar,
        expected_order=Fraction(expected),
        witness=result.witness,
        arc_order=result.arc_order,
        base_exponent=n,
        order_matches_base=None if n is None else (result.arc_order == n),
        order_realized_by_x=realized_by_x,
    )

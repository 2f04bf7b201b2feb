"""Construction of arcs realizing the minimal normalized order of contact.

The recipe follows the existence proof: pick units u so that the initial form
of every minimizing elimination generator survives at u, run the diagonal arc
(u_1 t^alpha, ..., u_d t^alpha) on the base, and lift it to the variety by
solving each separated equation f_i(x_i, u t^alpha) = 0 with a Newton-Puiseux
iteration, reparametrizing to clear denominators.  Everything is exact; a
branch that needs irrational coefficients raises instead of approximating.
Each stage is the chart move x -> t^m (c + x) of the blow-ups in `nash`, made
on a primitive integer polynomial {(x-degree, t-degree): int}: exponent maps
for the chart and for ramification t -> t^q, the integer grouped shift
`poly.shift_integer_terms` that the blow-ups use, then division by the lowest
power of t and by the content.  Once a residual has a simple root (its
x-coefficient has a nonzero constant term), the rest of the root is found by
Newton iteration with precision doubling instead, in s = t^g for the gcd g of
the residual's t-exponents, on integer numerators, from one set of powers of
the root per doubling; an exact probe of that tail at t = 2 decides whether
the stages must run on to find an exact root.  A base arc is lifted only once
every equation's first stage has found a rational root on it, so an arc that
one equation cannot lift costs no other equation's Newton tail.
`validate_arc` on the assembled arc certifies every root, with its
ramification and base monomials.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .arcs import Arc, ValidatedArc, validate_arc
from .errors import (
    ExtensionRequiredError,
    IdentityViolationError,
    MaxMultArcError,
    NotOnVarietyError,
    ValidationError,
)
from .extorder import ExtOrder
from .poly import MultiPoly, shift_integer_terms
from .presentation import (
    LocalPresentation,
    TschirnhausenHypersurface,
    presentation_elimination_order,
)
from .rees import ReesAlgebra, algebra_order_at
from .series import PowerSeries, _convolve, _square, compose_integers

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


def build_diagonal_arc(units: Sequence, alpha: int, base_vars: Sequence[str]) -> DiagonalArc:
    return DiagonalArc(tuple(Fraction(u) for u in units), alpha, tuple(base_vars))


# -- Newton-Puiseux lifting -------------------------------------------------------


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


def _horner(coeffs: Sequence[int], y: int) -> int:
    """sum coeffs[k] y^k."""
    value = 0
    for c in reversed(coeffs):
        value = value * y + c
    return value


def _root_floors(coeffs: List[int]) -> List[int]:
    """Sorted integers that include the floor of every real root of
    sum coeffs[k] y^k, a nonconstant integer polynomial.

    The floors of the derivative's real roots, found recursively, cut
    [-B, B] into integer intervals on which the polynomial is monotone.  Each
    interval whose ends differ in sign holds one root, and its bracket
    [lo, hi] closes on the root's floor.  While the bracket spans more than
    a factor 4 (or holds 0), the probe is 0 or the power of two that halves
    the bit length.  Then it takes integer Newton steps y - p(y) // p'(y)
    from the last probe, and probes y + 1 and y - 1 too, so that the bracket
    closes once Newton is within 1 (Brent and Zimmermann, Modern Computer
    Arithmetic, 1.5); it bisects when a step leaves the bracket or the
    bracket is 16 wide or less, where bisection needs fewer evaluations.  A
    constant term of b bits costs O(log b) evaluations where bisection costs
    b/n: generic-arc on x^6 - 3 2^30000 z^7 takes 0.46 s instead of 20.3 s
    in-process (CPython 3.11, 2-core x86).  A root between a cut point c
    and c + 1 has floor c, so the cut points are kept too.  B is Fujiwara's
    bound 2 max_k |a_k/a_n|^(1/(n-k)), rounded up to a power of two.
    """
    if len(coeffs) == 2:
        return [-coeffs[0] // coeffs[1]]
    n = len(coeffs) - 1
    slope = [k * coeffs[k] for k in range(1, n + 1)]
    cuts = _root_floors(slope)
    # |a_k/a_n| < 2^bits(a_k), as |a_n| >= 1
    bound = 2 << max(-(-abs(c).bit_length() // (n - k)) for k, c in enumerate(coeffs[:-1]))

    def sign(y: int) -> int:
        value = _horner(coeffs, y)
        return (value > 0) - (value < 0)

    floors = set(cuts)
    for lo, hi in zip([-bound - 1] + cuts, cuts + [bound]):
        lo, hi = max(lo + 1, -bound), min(hi, bound)
        if lo > hi:
            continue
        s_lo = sign(lo)
        if s_lo == 0:
            floors.add(lo)
            continue
        if sign(hi) == s_lo:
            continue
        y = lo
        while hi - lo > 1:  # sign(lo) == s_lo != sign(hi)
            if lo < 0 < hi:
                y, probes = 0, ()
            elif (hi > 4 * max(lo, 1)) if lo >= 0 else (-lo > 4 * max(-hi, 1)):
                y, probes = (1 if lo >= 0 else -1) << ((lo.bit_length() + hi.bit_length()) // 2), ()
            else:
                # a short bracket, or a flat slope, bisects
                d = _horner(slope, y) if hi - lo > 16 else 0
                z = y - _horner(coeffs, y) // d if d else lo - 1
                y, probes = (z, (z + 1, z - 1)) if lo <= z <= hi else ((lo + hi) // 2, ())
            for z in (y, *probes):
                if lo < z < hi:
                    s = sign(z)
                    if s == s_lo:
                        lo = z
                    else:
                        lo, hi = (lo, z) if s else (z - 1, z)  # an exact root closes it
        floors.add(hi if sign(hi) == 0 else lo)
    return sorted(floors)


def _rational_roots(coeffs: Sequence[Fraction | int]) -> List[Fraction]:
    """Distinct rational roots of sum coeffs[k] c^k, constant term nonzero.

    Degrees one and two are solved in closed form, the quadratic by an exact
    integer square root of its discriminant.  Lifting meets quadratic edges of
    1,000-2,000 bits, and on the 126 such edges of the perfbench workloads
    the closed form takes 0.005 s where `_root_floors` by bisection took 3.7 s
    (CPython 3.11, 2-core x86).  An equation of degree n >= 3 is made monic
    over the integers, g(y) = a_n^(n-1) f(y/a_n), whose rational roots are the
    integers y with g(y) = 0; every such y is among `_root_floors(g)`, and the
    roots of f are y/a_n.  No divisor is enumerated, so a large constant term,
    as on a binomial a_0 + a_n c^n, costs only root-isolation probes, about
    the logarithm of its bit length.
    """
    denom = lcm(*(c.denominator for c in coeffs))
    ints = [int(c * denom) for c in coeffs]
    content = gcd(*ints)
    if content > 1:
        ints = [c // content for c in ints]
    if len(ints) == 2:
        return [Fraction(-ints[0], ints[1])]
    if len(ints) == 3:
        a0, a1, a2 = ints
        disc = a1 * a1 - 4 * a0 * a2
        root_disc = isqrt(max(disc, 0))
        if root_disc * root_disc != disc:
            return []
        out = [Fraction(-a1 + root_disc, 2 * a2), Fraction(-a1 - root_disc, 2 * a2)]
        return out if out[0] != out[1] else out[:1]
    lead = ints[-1]
    n = len(ints) - 1
    monic = [a * lead ** (n - 1 - k) for k, a in enumerate(ints[:-1])] + [1]
    return [Fraction(y, lead) for y in _root_floors(monic) if _horner(monic, y) == 0]


def _pick_root(roots: List[Fraction]) -> Fraction:
    # Smallest by |numerator| then |denominator|, positive preferred on ties.
    return min(roots, key=lambda r: (abs(r.numerator), abs(r.denominator), r < 0))


def _newton_puiseux_root(F: MultiPoly, xvar: str, precision: int) -> Tuple[PowerSeries, int]:
    """One branch x(t) of F(x, t) = 0 with positive order, plus the ramification.

    Deterministic: at each stage take the steepest descending Newton polygon
    edge and the smallest rational root of its edge equation.  Returns an
    exact series when the iteration terminates (the residual constant
    coefficient vanishes identically), a truncated one otherwise.

    The residual is a primitive integer polynomial {(x-degree, t-degree):
    coefficient}: F with its denominators cleared, and after each stage the
    chart x -> t^m (c + x) scaled back to content 1.  A nonzero constant factor
    changes neither the Newton polygon nor the roots of an edge equation.  Each
    stage reads its polygon and edge equation from the whole residual, a finite
    polynomial, so every coefficient found is exact: a term far above the
    target t-degree can still fix a low coefficient of a multiple root.

    The regular tail starts at the first stage whose residual has the point
    (1, 0): from there every edge runs from (0, v0) to (1, 0), the root is
    simple, and its coefficients below the target depend only on the
    residual's terms below it.
    `_hensel_tail` computes them all at once by Newton iteration, in
    s = t^g for the gcd g of the residual's t-exponents.  The stages would
    return an exact root only if the tail, read as a polynomial, were an
    exact root of the residual; so the residual is probed at (tail(2), 2).
    A nonzero value proves it is not, and the tail comes back truncated at
    the target.  A zero value hands the root back to the stages, which then
    run to the end.
    """
    x_index, t_index = F.vars.index(xvar), F.vars.index(T)
    cur = {(exp[x_index], exp[t_index]): c for exp, c in F.nums.items()}
    e = 1
    target = precision
    found: List[Tuple[Fraction, int]] = []  # (coefficient, absolute exponent)
    shift = 0  # exponent offset of the current residual's roots
    try_tail = True
    while True:
        edge = _steepest_edge(cur)
        if edge is None:
            return _series_from_terms(found, precision=None), e
        if try_tail and (1, 0) in cur:
            # the regular tail: every further edge ends at (1, 0), so the root
            # is simple and its coefficients below t^n, n = target - shift,
            # depend only on cur's terms below t^n
            nums, den, g = _hensel_tail(cur, max(target - shift, 1))
            if _is_root_at_two(cur, nums, den, g):
                try_tail = False  # perhaps an exact root: the stages decide
            else:
                found += [(Fraction(c, den), shift + k * g) for k, c in enumerate(nums) if c]
                return _series_from_terms(found, precision=target), e
        m, q, coeffs = edge
        if q > 1:
            cur = {(i, j * q): a for (i, j), a in cur.items()}
            e *= q
            target *= q
            shift *= q
            found = [(c, k * q) for c, k in found]
        if shift + m >= target:
            return _series_from_terms(found, precision=target), e
        c = _edge_root(coeffs)
        found.append((c, shift + m))
        cur = _chart_stage(cur, m, c)
        shift += m


def _steepest_edge(cur: Dict[Tuple[int, int], int]) -> Optional[Tuple[int, int, List[int]]]:
    """The steepest descending edge of cur's Newton polygon, from (0, v0) to
    (i1, v1): (m, q, edge) with slope -m/q in lowest terms and edge[i] the
    coefficient of cur at (i, v0 - m i/q), the edge equation.  None when no
    term of cur is free of x, so that x = 0 is a root.
    """
    orders: Dict[int, int] = {}
    for i, j in cur:
        orders[i] = min(j, orders.get(i, j))
    if 0 not in orders:
        return None
    hull = _lower_hull(list(orders.items()))
    if len(hull) < 2 or hull[1][1] >= hull[0][1]:
        raise ExtensionRequiredError(
            "no branch through the origin on this Newton polygon"
        )
    (_, v0), (i1, v1) = hull[0], hull[1]
    g = gcd(v0 - v1, i1)
    m, q = (v0 - v1) // g, i1 // g
    # (i, v0 - m i/q) is a lattice point only where q divides i
    return m, q, [cur.get((i, v0 - m * i // q), 0) if i % q == 0 else 0 for i in range(i1 + 1)]


def _edge_root(edge: List[int]) -> Fraction:
    """The picked nonzero rational root of an edge equation."""
    roots = [r for r in _rational_roots(edge) if r != 0]
    if not roots:
        raise ExtensionRequiredError(
            "edge equation has no nonzero rational root; "
            "the branch requires an algebraic extension"
        )
    return _pick_root(roots)


def _chart_stage(cur: Dict[Tuple[int, int], int], m: int, c: Fraction) -> Dict[Tuple[int, int], int]:
    """x -> t^m (c + x) on an integer residual, divided by its t-order and content.

    The chart (i, j) -> (i, j + m i), then the grouped integer shift of x by
    c, which scales every t-column by the same power of c's denominator.
    """
    charted = {(i, j + m * i): a for (i, j), a in cur.items()}
    shifted, _ = shift_integer_terms(charted, 0, c.numerator, c.denominator)
    low = min(j for _, j in shifted)
    content = gcd(*shifted.values())
    return {(i, j - low): a // content for (i, j), a in shifted.items()}


def _hensel_tail(cur: Dict[Tuple[int, int], int], n: int) -> Tuple[List[int], int, int]:
    """The root y of cur(y, t) = 0 with y(0) = 0 below t^n, where cur[(1, 0)] != 0.

    Returns (nums, den, g) with y = sum nums[k]/den t^(k g) + O(t^n).  The
    t-exponents of cur have gcd g, so y lies in s = t^g and is computed to
    ceil(n/g) coefficients in s.  Newton iteration with precision doubling,
    y <- y - P(y) w for P(x) = cur(x, s) and w = 1/P'(y), updated by its own
    Newton step w <- w (2 - P'(y) w).  A step takes y from right below s^p
    to below s^p2, p2 <= 2p: it builds y^2, ..., y^b below s^p2 once, b the
    x-degree of cur, each even power the square of its half, and reads P(y)
    from them, each term a s^j y^i, and P'(y) below s^p from their prefixes.
    That P'(y) first brings w from below s^q, q the previous p, to below s^p
    (2q >= p); then y is corrected with the upper part of P(y) times w,
    below s^(p2 - p), p2 - p <= p.  As P(y) and 1 - P'(y) w vanish below s^p
    and s^q, each correction is a product of upper parts.  Series are integer
    numerators over one denominator, reduced by their gcd.
    """
    g = 0
    for _, j in cur:
        g = gcd(g, j)
    size = -(-n // g)
    top = max(i for i, _ in cur)
    terms = [(i, j // g, a) for (i, j), a in cur.items()]
    schedule = [size]
    while schedule[-1] > 1:
        schedule.append((schedule[-1] + 1) // 2)
    y, y_den, w, w_den, q, p = [], 1, [1], cur[1, 0], 1, 1
    for p2 in reversed(schedule[:-1]):
        powers = [[1], y]
        for k in range(2, top + 1):
            half = powers[k // 2]
            powers.append(_square(half, p2) if k % 2 == 0 else _convolve(powers[k - 1], y, p2))
        scale = [y_den ** (top - i) for i in range(top + 1)]
        # y_den^top s^-p P(y) below s^(p2 - p), and y_den^(top - 1) P'(y) below s^p
        value, slope = [0] * (p2 - p), [0] * p
        for i, j, a in terms:
            if j >= p2:
                continue
            a *= scale[i]
            lo = max(p - j, 0)
            high = powers[i][lo : p2 - j]
            o = j + lo - p
            value[o : o + len(high)] = [v + a * c for v, c in zip(value[o:], high)]
            if i and j < p:
                low = powers[i - 1][: p - j]
                a *= i
                slope[j : j + len(low)] = [v + a * c for v, c in zip(slope[j:], low)]
        if q < p:
            # P'(y) w = 1 + s^q error/(y_den^(top - 1) w_den) below s^p
            error = _convolve(slope, w, p)[q:]
            step = _convolve(w, [-c for c in error], p - q)
            w, w_den = _raise_precision(w, w_den, step, scale[1] * w_den * w_den, q)
        step = _convolve(value, w, p2 - p)
        y, y_den = _raise_precision(y, y_den, [-c for c in step], scale[0] * w_den, p)
        q, p = p, p2
    return y, y_den, g


def _raise_precision(
    low: List[int], low_den: int, high: List[int], high_den: int, p: int
) -> Tuple[List[int], int]:
    """low/low_den + s^p high/high_den as numerators over one reduced denominator."""
    den = lcm(low_den, high_den)
    a, b = den // low_den, den // high_den
    nums = [c * a for c in low] + [0] * (p - len(low)) + [c * b for c in high]
    common = gcd(den, *nums)
    return [c // common for c in nums], den // common


def _is_root_at_two(cur: Dict[Tuple[int, int], int], nums: List[int], den: int, g: int) -> bool:
    """Does cur vanish at (y(2), 2), y = sum nums[k]/den t^(k g) as a polynomial?

    A polynomial root of cur passes; a nonzero value proves that y is not one.
    """
    y_num = sum(c << (k * g) for k, c in enumerate(nums))
    at_two = (PowerSeries.from_integers([y_num], den, None), PowerSeries([2]))
    return compose_integers(cur, 1, at_two).is_exactly_zero()


def _series_from_terms(terms: List[Tuple[Fraction, int]], precision: int | None) -> PowerSeries:
    den = lcm(*(c.denominator for c, _ in terms))
    nums = [0] * (max((m for _, m in terms), default=-1) + 1)
    for c, m in terms:
        nums[m] += c.numerator * (den // c.denominator)
    return PowerSeries.from_integers(nums, den, precision)


def _equation_on_base(
    h: TschirnhausenHypersurface, units: Sequence[Fraction], exponents: Sequence[int]
) -> MultiPoly:
    """f_i with each base variable z_v replaced by u_v t^(a_v): an element of Q[x, t].

    A monomial map: x^i z^beta goes to x^i t^(sum a_v beta_v) with its
    coefficient times prod u_v^(beta_v); terms that land together are summed.
    With u_v = p_v/q_v and N_v the degree of f in z_v, every numerator is
    multiplied by prod p_v^(beta_v) q_v^(N_v - beta_v) over the one
    denominator den * prod q_v^N_v.
    """
    f = h.polynomial
    x_index = f.vars.index(h.var)
    base = []
    den = f.den
    for v, u, a in zip(h.base_vars, units, exponents):
        u, top = Fraction(u), f.degree_in(v)
        base.append((f.vars.index(v), u.numerator, u.denominator, a, top))
        den *= u.denominator**top
    out: Dict[Tuple[int, int], int] = {}
    for exp, c in f.nums.items():
        j = 0
        for k, p, q, a, top in base:
            e = exp[k]
            j += a * e
            c *= p**e * q ** (top - e)
        key = (exp[x_index], j)
        out[key] = out.get(key, 0) + c
    return MultiPoly.from_integers((h.var, T), out, den)


def _screened_equation(
    h: TschirnhausenHypersurface,
    units: Sequence[Fraction],
    exponents: Sequence[int],
    precision: int,
) -> MultiPoly:
    """h's equation on the base arc z_v -> u_v t^(a_v), once the first stage
    of its lift to `precision` has found a rational root.

    Raises what that lift would raise first: MaxMultArcError for a pure
    power, or the first stage's ExtensionRequiredError.  The stage stops
    without a root where x = 0 is one, or where its edge reaches the target.
    """
    if h.elimination_algebra.is_empty():
        raise MaxMultArcError(
            "arc necessarily inside Max mult: the equation is a pure power"
        )
    F = _equation_on_base(h, units, exponents)
    edge = _steepest_edge(F.nums)
    if edge is not None and edge[0] < edge[1] * precision:
        _edge_root(edge[2])
    return F


def _lift_equation(
    h: TschirnhausenHypersurface,
    units: Sequence[Fraction],
    exponents: Sequence[int],
    precision: int,
) -> Tuple[PowerSeries, int]:
    """One branch of h over the base arc z_v -> u_v t^(a_v), and its ramification."""
    F = _screened_equation(h, units, exponents, precision)
    return _newton_puiseux_root(F, h.var, precision)


def lift_monomial_base(
    p: LocalPresentation,
    units: Sequence,
    exponents: Sequence[int],
    precision: int = 64,
) -> ValidatedArc:
    """Lift a monomial base arc z_i -> u_i t^(a_i), exponents not necessarily equal.

    Each separated equation is lifted independently; a common parameter is
    obtained by reparametrizing everything by the lcm of the ramifications.
    Every equation's first Newton-Puiseux stage runs before any root is
    computed, in the order of the equations, so a base arc that one of them
    cannot lift there costs no other equation's Newton tail.
    Skew exponent vectors give valid arcs that are generally not generic.
    `validate_arc` certifies the roots; an arc off the variety is an internal error.
    """
    units = tuple(Fraction(u) for u in units)
    exponents = tuple(exponents)
    if any(a < 1 for a in exponents):
        raise ValidationError("base exponents must be >= 1")
    equations = [
        (h.var, _screened_equation(h, units, exponents, precision)) for h in p.hypersurfaces
    ]
    lifts = {var: _newton_puiseux_root(F, var, precision) for var, F in equations}
    e = lcm(*(q for _, q in lifts.values()))
    coords = {var: root.reparametrize(e // q) for var, (root, q) in lifts.items()}
    for v, u, a in zip(p.base_vars, units, exponents):
        coords[v] = PowerSeries.monomial(u, a * e)
    try:
        return validate_arc(Arc(coords), p)
    except NotOnVarietyError as err:
        raise IdentityViolationError(f"Newton-Puiseux residual check: {err}") from err


def lift_to_presentation(
    p: LocalPresentation, base: DiagonalArc, precision: int = 64
) -> ValidatedArc:
    """Lift the diagonal base arc through every hypersurface at once."""
    return lift_monomial_base(
        p, base.units, [base.alpha] * len(base.base_vars), precision
    )


# -- generic arc construction and verification --------------------------------------


# Failed lifts (each needing an algebraic extension) after which the unit
# search stops: the whole default cube of (2*8)^d unit tuples for d <= 3.
# The cube grows as (2*bound)^d, and on x^2 + z1^2 + ... + zd^2 every tuple
# fails: uncapped, generic-arc took 8.7 s at d = 4 and did not finish within
# 200 s at d = 5 (2-core x86, Python 3.11).
MAX_FAILED_LIFTS = 4096


@dataclass(frozen=True)
class GenericArcResult:
    arc: ValidatedArc
    base: DiagonalArc
    ramification: int
    failed_units: Tuple[Tuple[int, ...], ...]  # tried first, each needing an extension

    @property
    def units_tried(self) -> int:
        return len(self.failed_units) + 1


def construct_generic_arc(
    p: LocalPresentation,
    alpha: int = 1,
    search_bound: int = 8,
    precision: int = 64,
) -> GenericArcResult:
    """Find units, lift, and verify; retries the unit search past branches
    that would need an algebraic extension, at most MAX_FAILED_LIFTS times."""
    algebras = [h.elimination_algebra for h in p.hypersurfaces]
    failed: List[Tuple[int, ...]] = []
    last_error: Optional[ExtensionRequiredError] = None
    for u in admissible_unit_tuples(algebras, p.d, search_bound):
        if len(failed) == MAX_FAILED_LIFTS:
            raise ExtensionRequiredError(
                f"the first {MAX_FAILED_LIFTS} admissible unit tuples within bound "
                f"{search_bound} need an algebraic extension, and the unit search "
                f"stops at that limit (last: {last_error})"
            )
        base = build_diagonal_arc(u, alpha, p.base_vars)
        try:
            va = lift_to_presentation(p, base, precision)
        except ExtensionRequiredError as err:
            failed.append(u)
            last_error = err
            continue
        contact = va.contact
        order = presentation_elimination_order(p).expect_exact("elimination order")
        if contact.r_bar != order:
            raise IdentityViolationError(
                f"lifted arc of a diagonal-generic base is not generic: "
                f"r_bar = {contact.r_bar} != {order}"
            )
        if order != 1 and any(
            va.arc.coords[h.var].order() == ExtOrder.exact(contact.arc_order)
            for h in p.hypersurfaces
        ):
            raise IdentityViolationError(
                "arc order realized by a distinguished coordinate forces order 1, "
                f"got {order}"
            )
        return GenericArcResult(va, base, _common_ramification(va, base), tuple(failed))
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
    if n is None or n % base.alpha:
        raise IdentityViolationError(
            f"common ramification: the lifted base coordinates have order {n}, "
            f"not a multiple of alpha = {base.alpha}"
        )
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

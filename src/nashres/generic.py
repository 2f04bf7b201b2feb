"""Construction of arcs realizing the minimal normalized order of contact.

The recipe follows the existence proof: pick units u so that the initial form
of every minimizing elimination generator survives at u, run the diagonal arc
(u_1 t^alpha, ..., u_d t^alpha) on the base, and lift it to the variety by
solving each separated equation f_i(x_i, u t^alpha) = 0 with a Newton-Puiseux
iteration, reparametrizing to clear denominators.  The equation on the base
arc is built by `series.compose_integers`, the one evaluator of a polynomial
along an arc, which composes each coefficient B_i of f_i along the base
monomials.  Everything is exact; a branch that needs irrational
coefficients raises instead of approximating.  A branch has a singular part,
the stages, and a regular part.  Each stage is the chart move
x -> t^m (c + x) of the blow-ups in `nash`, made on a primitive integer
polynomial {(x-degree, t-degree): int}: exponent maps for the chart and for
ramification t -> t^q, the integer grouped shift
`poly.shift_integer_terms` that the blow-ups use, then division by the lowest
power of t and by the content.  The stages stop once a residual has a simple
root (its x-coefficient has a nonzero constant term), and the regular part
finds the rest of the root by Newton iteration with precision doubling, in
s = t^g for the gcd g of the residual's t-exponents, on integer numerators,
from one set of powers of the root per doubling.  Every equation's stages run
before any Newton tail, so an arc that one equation cannot lift costs none.
`validate_arc` on the assembled arc certifies every root, with its
ramification and base monomials.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .arcs import Arc, ValidatedArc, validate_arc
from .errors import (
    ExtensionRequiredError,
    IdentityViolationError,
    MaxMultArcError,
    NotOnVarietyError,
    ValidationError,
)
from .extorder import ExtOrder, ext_min
from .poly import MultiPoly, fraction_text, shift_integer_terms, sum_text
from .presentation import (
    LocalPresentation,
    TschirnhausenHypersurface,
)
from .rees import ReesGenerator
from .series import PowerSeries, _convolve, _square, compose_integers

T = "t"

# Defaults of the lifting functions, and of the options that set them.
DEFAULT_PRECISION = 64
DEFAULT_ALPHA = 1
DEFAULT_SEARCH_BOUND = 8


# -- unit search --------------------------------------------------------------


def unit_tuples(d: int, bound: int) -> Iterator[Tuple[int, ...]]:
    """All-nonzero integer tuples, by max-norm then lexicographic order."""
    for m in range(1, bound + 1):
        values = [v for v in range(-m, m + 1) if v != 0]
        for u in itertools.product(values, repeat=d):
            if max(abs(v) for v in u) == m:
                yield u


def admissible_unit_tuples(
    algebras: Sequence[Sequence[ReesGenerator]], d: int, bound: int
) -> Iterator[Tuple[int, ...]]:
    """Unit tuples at which no minimizing generator's initial form vanishes.

    Nonvanishing is demanded on *every* generator achieving each algebra's
    order at the origin, so the certificate does not depend on a witness
    choice.  One pass over each algebra reads every quotient ord(f)/weight
    and builds the initial forms of the minimizing generators.
    """
    forms: List[MultiPoly] = []
    for algebra in algebras:
        if not algebra:
            raise MaxMultArcError(
                "arc necessarily inside Max mult: an elimination algebra is empty"
            )
        quotients = [g.f.order_at_origin().divided_by(g.weight) for g in algebra]
        order = ext_min(quotients)
        forms.extend(
            g.f.initial_form() for g, q in zip(algebra, quotients) if q == order
        )
    for u in unit_tuples(d, bound):
        if all(form.eval_at(u) != 0 for form in forms):
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


def _horner(coeffs: Sequence[int], y: int, modulus: int = 0) -> int:
    """sum coeffs[k] y^k, reduced mod `modulus` at each step if it is nonzero."""
    value = 0
    for c in reversed(coeffs):
        value = value * y + c
        if modulus:
            value %= modulus
    return value


def _pseudo_divide(a: List[int], b: List[int]) -> Tuple[List[int], List[int]]:
    """(q, r) for integer coefficient lists, lowest degree first: r is the
    pseudo-remainder lead(b)^(deg a - deg b + 1) a mod b, with deg b entries,
    zeros included, and for a monic b, q is the quotient of a by b."""
    q: List[int] = []
    r = list(a)
    for s in range(len(a) - len(b), -1, -1):
        top = r.pop()
        if b[-1] != 1:
            r = [b[-1] * c for c in r]
        q.append(top)
        for k, c in enumerate(b[:-1]):
            r[s + k] -= top * c
    return q[::-1], r


def _primitive(a: List[int]) -> List[int]:
    """a, its zero leading terms popped, divided by its content."""
    while a and not a[-1]:
        a.pop()
    content = gcd(*a)
    return [c // content for c in a] if content > 1 else a


def _integer_roots(g: List[int]) -> List[int]:
    """Sorted distinct integer roots of sum g[k] y^k, a monic integer
    polynomial with a nonzero constant term, by p-adic lifting (Loos,
    Computing rational zeros of integral polynomials by p-adic expansion,
    SIAM J. Comput. 12, 1983).

    h, the squarefree part g / gcd(g, g'), has the roots of g, each simple:
    the gcd comes from a primitive pseudo-remainder sequence over Z, and is
    monic up to sign, as it divides the monic g.  The modulus m is the least
    m >= 2 at which h'(r) is a unit mod m at every root r of h mod m; every
    prime that does not divide disc(h) is one.  Then each root r mod m has
    one lift mod m^(2^k): each Newton-Hensel step lifts the inverse w of
    h'(r) to mod m by w <- w (2 - h'(r) w), so no modular inverse is taken
    past the first, then r to mod m^2 by r <- r - h(r) w.  Once m passes
    twice Fujiwara's bound 2 max_k |h_k|^(1/(n-k)) on |y|, each |h_k| read as
    2^bits, every integer root is the balanced residue of a lift, and each
    such residue is checked exactly.
    """
    if len(g) == 2:
        return [-g[0]]
    a, b = g, _primitive([k * c for k, c in enumerate(g)][1:])
    while len(b) > 1:
        a, b = b, _primitive(_pseudo_divide(a, b)[1])
    # b = [] leaves a = gcd(g, g'); b = [c], a constant, leaves gcd 1
    h = g if b else _pseudo_divide(g, a if a[-1] > 0 else [-c for c in a])[0]
    slope = [k * c for k, c in enumerate(h)][1:]
    for m in itertools.count(2):
        roots = [r for r in range(m) if _horner(h, r, m) == 0]
        inverses = [_horner(slope, r, m) for r in roots]
        if all(gcd(d, m) == 1 for d in inverses):
            break
    lifts = [(r, pow(d, -1, m)) for r, d in zip(roots, inverses)]
    bound = 4 << max(-(-abs(c).bit_length() // (len(h) - 1 - k)) for k, c in enumerate(h[:-1]))
    while m <= bound:
        for i, (r, w) in enumerate(lifts):
            w = w * (2 - _horner(slope, r, m) * w) % m
            lifts[i] = (r - _horner(h, r, m * m) * w) % (m * m), w
        m *= m
    balanced = [r if 2 * r < m else r - m for r, _ in lifts]
    return sorted(y for y in balanced if _horner(h, y) == 0)


def _rational_roots(coeffs: Sequence[Fraction | int]) -> List[Fraction]:
    """Distinct rational roots of sum coeffs[k] c^k, constant term nonzero.

    The equation, cleared to a primitive integer polynomial, is read as P(u)
    in u = c^g, g the gcd of the exponents of its nonzero terms.  P, of
    degree n with lead a_n, is made monic over the integers: its rational
    roots are y/a_n for the integer roots y of a_n^(n-1) P(y/a_n)
    (`_integer_roots`), so no divisor is enumerated, and a large constant
    term costs about the log of its bit length in squarings of the modulus.
    Each root u gives the c with c^g = u: the exact integer g-th roots of u's
    numerator and denominator, with both signs when g is even.  Every
    ramified edge of slope -m/q has q | g, and a binomial edge a_0 + a_n c^n
    becomes linear: c^2000 - 1 takes 0.3 ms (CPython 3.11, 2-core x86).
    """
    denom = lcm(*(c.denominator for c in coeffs))
    ints = _primitive([int(c * denom) for c in coeffs])
    g = gcd(*(k for k, a in enumerate(ints) if a))
    P = ints[::g]
    lead, n = P[-1], len(P) - 1
    monic = [a * lead ** (n - 1 - k) for k, a in enumerate(P[:-1])] + [1]
    roots = [Fraction(y, lead) for y in _integer_roots(monic)]
    if g == 1:
        return roots
    out = []
    for u in roots:
        num, den = _exact_root(abs(u.numerator), g), _exact_root(u.denominator, g)
        if num is None or den is None or (u < 0 and g % 2 == 0):
            continue
        c = Fraction(num if u > 0 else -num, den)
        out += [c, -c] if g % 2 == 0 else [c]
    return out


def _exact_root(n: int, g: int) -> Optional[int]:
    """The integer r >= 0 with r^g = n, for n >= 0, or None: integer Newton
    steps down from a power of two at or above the real root."""
    if n < 2:
        return n
    r = 1 << -(-n.bit_length() // g)
    while True:
        s = ((g - 1) * r + n // r ** (g - 1)) // g
        if s >= r:
            return r if r**g == n else None
        r = s


def _pick_root(roots: List[Fraction]) -> Fraction:
    # Smallest by |numerator| then |denominator|, positive preferred on ties.
    return min(roots, key=lambda r: (abs(r.numerator), abs(r.denominator), r < 0))


# (found, e, target, rest) of `_singular_part`, rest = (residual, shift) or None
_SingularPart = Tuple[
    List[Tuple[Fraction, int]], int, Optional[int], Optional[Tuple[Dict[Tuple[int, int], int], int]]
]


def _singular_part(F: MultiPoly, xvar: str, precision: int) -> _SingularPart:
    """The stages of one branch x(t) of F(x, t) = 0 with positive order, up to
    the point where its root becomes simple.

    Deterministic: at each stage take the steepest descending Newton polygon
    edge and the smallest rational root of its edge equation.  Returns
    (found, e, target, rest): the coefficients found, each with its absolute
    exponent, and the ramification e.  The stages stop where x = 0 is a root
    of the residual, and found is the whole root (target None); where the
    edge reaches the target; or at the first residual that has the point
    (1, 0), rest = (residual, shift), whose root above t^shift the regular
    part finds.  Past (1, 0) every edge runs from (0, v0) to (1, 0) and is
    linear, so every ExtensionRequiredError of the branch is raised here.

    The residual is a primitive integer polynomial {(x-degree, t-degree):
    coefficient}: F with its denominators cleared, and after each stage the
    chart x -> t^m (c + x) scaled back to content 1.  A nonzero constant factor
    changes neither the Newton polygon nor the roots of an edge equation.  Each
    stage reads its polygon and edge equation from the whole residual, a finite
    polynomial, so every coefficient found is exact: a term far above the
    target t-degree can still fix a low coefficient of a multiple root.
    """
    x_index, t_index = F.vars.index(xvar), F.vars.index(T)
    cur = {(exp[x_index], exp[t_index]): c for exp, c in F.nums.items()}
    e = 1
    target = precision
    found: List[Tuple[Fraction, int]] = []
    shift = 0  # exponent offset of the current residual's roots
    while True:
        edge = _steepest_edge(cur)
        if edge is None:
            return found, e, None, None
        if (1, 0) in cur:
            return found, e, target, (cur, shift)
        m, q, coeffs = edge
        if q > 1:
            cur = {(i, j * q): a for (i, j), a in cur.items()}
            e *= q
            target *= q
            shift *= q
            found = [(c, k * q) for c, k in found]
        if shift + m >= target:
            return found, e, target, None
        c = _edge_root(coeffs)
        found.append((c, shift + m))
        cur = _chart_stage(cur, m, c)
        shift += m


def _newton_puiseux_root(part: _SingularPart) -> Tuple[PowerSeries, int]:
    """The branch whose singular part is `part`, and its ramification.

    The regular part: the simple root of the residual has coefficients below
    t^n, n = target - shift, that depend only on the residual's terms below
    t^n.  `_hensel_tail` computes them all at once by Newton iteration, in
    s = t^g for the gcd g of the residual's t-exponents.  The root is exact
    when that tail, read as a polynomial, is a root of the residual.
    """
    found, e, target, rest = part
    if rest is not None:
        cur, shift = rest
        nums, den, g = _hensel_tail(cur, target - shift)
        found = found + [(Fraction(c, den), shift + k * g) for k, c in enumerate(nums) if c]
        if _is_polynomial_root(cur, nums, den, g):
            target = None
    return _series_from_terms(found, precision=target), e


def _steepest_edge(cur: Dict[Tuple[int, int], int]) -> Optional[Tuple[int, int, List[int]]]:
    """The steepest descending edge of cur's Newton polygon, from (0, v0) to
    (i1, v1), the farthest point (i, v) of least slope (v - v0)/i, v the
    least t-degree at x-degree i: (m, q, edge) with slope -m/q in lowest
    terms and edge[i] the coefficient of cur at (i, v0 - m i/q), the edge
    equation.  None when no term of cur is free of x, so that x = 0 is a root.
    """
    orders: Dict[int, int] = {}
    for i, j in cur:
        orders[i] = min(j, orders.get(i, j))
    v0 = orders.pop(0, None)
    if v0 is None:
        return None
    i1 = min(orders, key=lambda i: (Fraction(orders[i] - v0, i), -i), default=None)
    if i1 is None or orders[i1] >= v0:
        raise ExtensionRequiredError(
            "no branch through the origin on this Newton polygon"
        )
    g = gcd(v0 - orders[i1], i1)
    m, q = (v0 - orders[i1]) // g, i1 // g
    # (i, v0 - m i/q) is a lattice point only where q divides i
    return m, q, [cur.get((i, v0 - m * i // q), 0) if i % q == 0 else 0 for i in range(i1 + 1)]


def _edge_root(edge: List[int]) -> Fraction:
    """The picked nonzero rational root of an edge equation."""
    roots = _rational_roots(edge)
    if not roots:
        raise ExtensionRequiredError(_Deferred(_edge_failure, edge))
    return _pick_root(roots)


class _Deferred:
    """An error message built only when it is read.  The unit search drops
    most failed lifts unread, and an edge with a 32,000-bit coefficient
    takes milliseconds to print: printed at once, the 4,096 failed lifts of
    generic-arc on x^2 + 2^32000 z1^2 + z2^2 + ... + z5^2 took it from 1.2 s
    to 6.0 s (2-core x86, Python 3.11)."""

    def __init__(self, build, *args):
        self.build, self.args = build, args

    def __str__(self) -> str:
        return self.build(*self.args)


def _edge_failure(edge: List[int]) -> str:
    terms = [(a, f"c^{k}" if k > 1 else "c" * k) for k, a in enumerate(edge) if a]
    return (
        f"edge equation {sum_text(reversed(terms), 1)} = 0 has no nonzero rational root; "
        "the branch requires an algebraic extension"
    )


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


def _is_polynomial_root(cur: Dict[Tuple[int, int], int], nums: List[int], den: int, g: int) -> bool:
    """Is y = sum nums[k]/den t^(k g), read as a polynomial, a root of cur?

    A probe at (y(2), 2) first: a nonzero value proves that y is not one, at
    the cost of one integer evaluation.  Only when it vanishes is cur
    composed exactly along y.
    """
    y_num = sum(c << (k * g) for k, c in enumerate(nums))
    at_two = (PowerSeries.from_integers([y_num], den, None), PowerSeries([2]))
    if not compose_integers(cur, 1, at_two).is_exactly_zero():
        return False
    y = [0] * (g * len(nums))
    y[::g] = nums
    along = (PowerSeries.from_integers(y, den, None), PowerSeries.t_power(1))
    return compose_integers(cur, 1, along).is_exactly_zero()


def _series_from_terms(terms: List[Tuple[Fraction, int]], precision: int | None) -> PowerSeries:
    den = lcm(*(c.denominator for c, _ in terms))
    nums = [0] * (max((m for _, m in terms), default=-1) + 1)
    for c, m in terms:
        nums[m] += c.numerator * (den // c.denominator)
    return PowerSeries.from_integers(nums, den, precision)


def _equation_on_base(
    h: TschirnhausenHypersurface, units: Sequence[Fraction], exponents: Sequence[int]
) -> MultiPoly:
    """x^b + sum B_i x^i with each base variable z_v replaced by u_v t^(a_v):
    an element of Q[x, t].

    Each nonzero B_i is composed along the base monomials by
    `compose_integers`, and the images are brought to one denominator beside
    x^b.
    """
    base = []
    for u, a in zip(units, exponents):
        u = Fraction(u)
        base.append(PowerSeries.from_integers((0,) * a + (u.numerator,), u.denominator, None))
    images = {i: compose_integers(B.nums, B.den, base) for i, B in enumerate(h.coeffs) if B}
    den = lcm(*(image.den for image in images.values()))
    out = {(h.b, 0): den}
    for i, image in images.items():
        for j, c in enumerate(image.nums):
            out[i, j] = c * (den // image.den)
    return MultiPoly.from_integers((h.var, T), out, den)


def lift_monomial_base(
    p: LocalPresentation,
    units: Sequence,
    exponents: Sequence[int],
    precision: int = DEFAULT_PRECISION,
) -> ValidatedArc:
    """Lift a monomial base arc z_i -> u_i t^(a_i), exponents not necessarily equal.

    Each separated equation is lifted independently; a common parameter is
    obtained by reparametrizing everything by the lcm of the ramifications.
    Every equation's singular part runs before any regular part, in the
    order of the equations, so a base arc that one of them cannot lift costs
    no Newton tail; the error names the equation's variable, the base arc
    and the edge equation.
    Skew exponent vectors give valid arcs that are generally not generic.
    `validate_arc` certifies the roots; an arc off the variety is an internal error.
    """
    units = tuple(Fraction(u) for u in units)
    exponents = tuple(exponents)
    if any(a < 1 for a in exponents):
        raise ValidationError("base exponents must be >= 1")
    parts = []
    for h in p.hypersurfaces:
        if not h.elimination_algebra:
            raise MaxMultArcError(
                "arc necessarily inside Max mult: the equation is a pure power"
            )
        F = _equation_on_base(h, units, exponents)
        try:
            parts.append((h.var, _singular_part(F, h.var, precision)))
        except ExtensionRequiredError as err:
            base = ", ".join(f"{v} = {fraction_text(u)} t^{a}" for v, u, a in zip(p.base_vars, units, exponents))
            failure = _Deferred("cannot lift {} over the base arc {}: {}".format, h.var, base, err)
            raise ExtensionRequiredError(failure) from err
    lifts = {var: _newton_puiseux_root(part) for var, part in parts}
    e = lcm(*(q for _, q in lifts.values()))
    coords = {var: root.reparametrize(e // q) for var, (root, q) in lifts.items()}
    for v, u, a in zip(p.base_vars, units, exponents):
        coords[v] = PowerSeries.monomial(u, a * e)
    try:
        return validate_arc(Arc(coords), p)
    except NotOnVarietyError as err:
        raise IdentityViolationError(f"Newton-Puiseux residual check: {err}") from err


def lift_to_presentation(
    p: LocalPresentation, base: DiagonalArc, precision: int = DEFAULT_PRECISION
) -> ValidatedArc:
    """Lift the diagonal base arc through every hypersurface at once."""
    return lift_monomial_base(
        p, base.units, [base.alpha] * len(base.base_vars), precision
    )


# -- generic arc construction and verification --------------------------------------


# Failed lifts (each needing an algebraic extension) after which the unit search
# stops: the whole default cube of (2*DEFAULT_SEARCH_BOUND)^d tuples for d <= 3.
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
    alpha: int = DEFAULT_ALPHA,
    search_bound: int = DEFAULT_SEARCH_BOUND,
    precision: int = DEFAULT_PRECISION,
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
        order = p.elimination_order.expect_exact("elimination order")
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
        # lift_monomial_base builds every base coordinate as u t^(alpha e)
        e = va.arc.coords[p.base_vars[0]].order().value // alpha
        return GenericArcResult(va, base, e, tuple(failed))
    if last_error is not None:
        raise ExtensionRequiredError(
            f"every admissible unit tuple within bound {search_bound} needs an "
            f"algebraic extension (last: {last_error})"
        )
    raise ValidationError(
        f"no unit tuple within bound {search_bound}; retry with a larger --search-bound"
    )


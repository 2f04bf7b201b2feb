"""Truncated univariate formal power series in t with explicit precision.

A series stores rational coefficients for t^0 .. t^(k-1) (trailing zeros
trimmed) together with a precision: an integer N means "coefficients are
only claimed below t^N", None means the series is an exact polynomial.
Arithmetic propagates precision conservatively (min of the operands), so a
stored coefficient is always correct.

Products run on integers.  Each operand is brought once to integer numerators
over the lcm of its coefficient denominators, the numerator lists are
multiplied, the denominators multiply, and a Fraction is built once per
nonzero output coefficient.

Evaluating a polynomial on series is one integer back end,
`compose_integers`.  It takes each term as an integer numerator over its
denominator and each substitute as integer numerators over one denominator
with its precision.  `poly_compose_series` is its `Fraction` front end, and
`PowerSeries.compose` goes through that; the Nash blow-up step calls the back
end directly on its integer transform and arc.  Only the first n
coefficients are computed, n = min(precision, degree bound), and each term
is its numerator over the terms' lcm denominator times powers of the
substitutes.

The work follows the support of the substitutes.  Below t^n each one is a
monomial c t^a or t^a sigma(t^g), where g is the gcd of the gaps between the
nonzero exponents of all substitutes, as on a ramified root or a root lifted
at alpha = 2 (Duval, Rational Puiseux expansions, 1989).  Monomials fold
into the term's numerator and offset o = sum a_i e_i.  When every
substitute is a monomial (g = 0) each term is one coefficient at t^o: the
monomial map, with nothing packed or convolved.  Otherwise the terms are
grouped by the residue r of o mod g, each is shifted by o // g, and each
class is a sum of products of the sigma_i in s = t^g to ceil(n/g)
coefficients; its coefficient k lands at t^(r + g k).  Only the powers the
terms use are built.  An even power is the square of its half (`_square`
forms each cross product once), so a quartic in Tschirnhausen form, which
has no x^3 term, never builds x^3; an odd one is the base times the power
below.  A short base whose powers are all used, as in `PowerSeries.compose`,
is multiplied on where that is cheaper than squaring (`_powers`).  Each
class is evaluated on one of two paths, chosen from the input size alone:

* Packed (Kronecker substitution).  Each sigma becomes one integer
  sum c_k 2^(wk); powers and term products are big-integer products cut to
  the low ceil(n/g) slots (exact modulo 2^(w ceil(n/g))) as balanced
  residues, so a short series stays a short integer even with negative
  coefficients.  A class's terms are summed, and the sum is unpacked once
  into balanced digits with borrows.  Every coefficient of a sum is at most
  the 1-norm bound, the sum over terms of |numerator| prod
  ||sigma_v||_1^(e_v), which also bounds every power and product; w is the
  bits of that bound plus a sign bit, rounded up to whole bytes, so no slot
  overflows.
* Schoolbook.  The same sums by integer convolution cut below s^ceil(n/g).

The packed path runs while w*ceil(n/g) is at most PACKED_MAX_BITS.  Both
paths were timed on every compose call of the three perfbench workloads
(CPython 3.11, 2-core x86), before the lattice, when the cut applied to n:
packed was 1.2-3x faster up to 2^14.25 bits, verify's calls lost from
2^14.5 bits up (0.3-0.8x), and lift's long sparse residual checks lost
2-20x above 2^15.5 bits: CPython multiplies big integers by Karatsuba at
best, while a convolution skips zero coefficients.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import List, Sequence, Tuple

from .errors import DimensionMismatchError, InsufficientPrecisionError
from .extorder import INFINITE, ExtOrder
from .poly import MultiPoly

# The largest packed size w*n, in bits, evaluated by Kronecker substitution.
PACKED_MAX_BITS = 1 << 14

_ZERO = Fraction(0)


def _min_precision(a: int | None, b: int | None) -> int | None:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def integer_form(coeffs: Sequence[Fraction]) -> Tuple[List[int], int]:
    """Integer numerators over the lcm of the coefficient denominators."""
    den = 1
    for c in coeffs:
        if c.denominator != 1:
            den = lcm(den, c.denominator)
    if den == 1:
        return [c.numerator for c in coeffs], 1
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _convolve(a: List[int], b: List[int], n: int | None) -> List[int]:
    """Schoolbook product of two integer coefficient lists, cut below t^n."""
    if not a or not b:
        return []
    if len(a) > len(b):
        a, b = b, a  # loop over the shorter list; the comprehension does the rest
    full = len(a) + len(b) - 1
    n = full if n is None else min(n, full)
    out = [0] * n
    for i, x in enumerate(a[:n]):
        if x:
            m = min(len(b), n - i)
            out[i : i + m] = [o + x * y for o, y in zip(out[i : i + m], b)]
    return out


def _square(a: List[int], n: int | None) -> List[int]:
    """a * a cut below t^n, each cross product a_i a_j (i < j) formed once."""
    if not a:
        return []
    full = 2 * len(a) - 1
    n = full if n is None else min(n, full)
    out = [0] * n
    for i, x in enumerate(a[: (n + 1) // 2]):
        if x:
            out[2 * i] += x * x
            m = min(len(a) - i - 1, n - 2 * i - 1)
            if m > 0:
                x2 = 2 * x
                lo = 2 * i + 1
                out[lo : lo + m] = [o + x2 * y for o, y in zip(out[lo : lo + m], a[i + 1 :])]
    return out


def from_integers(nums: Sequence[int], den: int, precision: int | None) -> "PowerSeries":
    """The series with coefficients nums[k] / den."""
    return PowerSeries([Fraction(v, den) if v else _ZERO for v in nums], precision)


class PowerSeries:
    __slots__ = ("coeffs", "precision")

    def __init__(self, coeffs: Sequence, precision: int | None = None):
        cs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        if precision is not None:
            if precision < 0:
                raise ValueError("precision must be nonnegative")
            cs = cs[:precision]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: Tuple[Fraction, ...] = tuple(cs)
        self.precision: int | None = precision

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(precision: int | None = None) -> "PowerSeries":
        return PowerSeries((), precision)

    @staticmethod
    def one(precision: int | None = None) -> "PowerSeries":
        return PowerSeries((1,), precision)

    @staticmethod
    def t_power(k: int, precision: int | None = None) -> "PowerSeries":
        return PowerSeries((0,) * k + (1,), precision)

    @staticmethod
    def monomial(coeff, k: int, precision: int | None = None) -> "PowerSeries":
        return PowerSeries((0,) * k + (Fraction(coeff),), precision)

    # -- queries -------------------------------------------------------------

    @property
    def is_exact(self) -> bool:
        return self.precision is None

    def is_exactly_zero(self) -> bool:
        return self.is_exact and not self.coeffs

    def is_zero_to_precision(self) -> bool:
        return not self.coeffs

    def __getitem__(self, k: int) -> Fraction:
        if self.precision is not None and k >= self.precision:
            raise InsufficientPrecisionError(
                f"coefficient of t^{k} requested, series known below t^{self.precision}"
            )
        if k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def order(self) -> ExtOrder:
        for k, c in enumerate(self.coeffs):
            if c != 0:
                return ExtOrder.exact(k)
        if self.is_exact:
            return INFINITE
        return ExtOrder.at_least(self.precision)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PowerSeries)
            and self.coeffs == other.coeffs
            and self.precision == other.precision
        )

    def __hash__(self) -> int:
        return hash((self.coeffs, self.precision))

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        prec = _min_precision(self.precision, other.precision)
        n = max(len(self.coeffs), len(other.coeffs))
        out = [self._at(k) + other._at(k) for k in range(n)]
        return PowerSeries(out, prec)

    def _at(self, k: int) -> Fraction:
        return self.coeffs[k] if k < len(self.coeffs) else Fraction(0)

    def __neg__(self) -> "PowerSeries":
        return PowerSeries([-c for c in self.coeffs], self.precision)

    def __sub__(self, other: "PowerSeries") -> "PowerSeries":
        return self + (-other)

    def __mul__(self, other: "PowerSeries") -> "PowerSeries":
        prec = _min_precision(self.precision, other.precision)
        a, da = integer_form(self.coeffs)
        b, db = integer_form(other.coeffs)
        return from_integers(_convolve(a, b, prec), da * db, prec)

    def __pow__(self, n: int) -> "PowerSeries":
        if n < 0:
            raise ValueError("negative power of a series")
        result = PowerSeries.one(self.precision)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def scale(self, value) -> "PowerSeries":
        c = Fraction(value)
        if c == 0:
            return PowerSeries((), self.precision)
        return PowerSeries([c * a for a in self.coeffs], self.precision)

    # -- reparametrizations -----------------------------------------------------

    def reparametrize(self, e: int) -> "PowerSeries":
        """Substitute t -> t^e; orders and precision scale by e."""
        if e < 1:
            raise ValueError("reparametrization exponent must be >= 1")
        if e == 1:
            return self
        out = [Fraction(0)] * (len(self.coeffs) * e)
        for k, c in enumerate(self.coeffs):
            out[k * e] = c
        prec = None if self.precision is None else self.precision * e
        return PowerSeries(out, prec)

    def scale_parameter(self, c) -> "PowerSeries":
        """Substitute t -> c*t for a nonzero rational c (a parameter unit)."""
        c = Fraction(c)
        if c == 0:
            raise ValueError("parameter scaling must be by a nonzero rational")
        out = []
        power = Fraction(1)
        for a in self.coeffs:
            out.append(a * power)
            power *= c
        return PowerSeries(out, self.precision)

    def compose(self, inner: "PowerSeries") -> "PowerSeries":
        """Substitute another series for t; inner must have order >= 1."""
        o = inner.order()
        if not o.is_infinite and o.lower_bound() < 1:
            raise ValueError("parameter substitution needs a series of order >= 1")
        prec = _min_precision(self.precision, inner.precision)
        f = MultiPoly._raw(("t",), {(k,): c for k, c in enumerate(self.coeffs) if c})
        image = poly_compose_series(f, {"t": PowerSeries(inner.coeffs, prec)})
        return PowerSeries(image.coeffs, prec)

    # -- printing ------------------------------------------------------------------

    def polynomial_text(self) -> str:
        """Grammar-compatible polynomial-in-t text for the stored coefficients."""
        if not self.coeffs:
            return "0"
        chunks = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                body = str(abs(c))
            elif abs(c) == 1:
                body = "t" if k == 1 else f"t^{k}"
            else:
                body = f"{abs(c)}*t" if k == 1 else f"{abs(c)}*t^{k}"
            chunks.append(("-" if c < 0 else "+", body))
        sign0, body0 = chunks[0]
        text = ("-" if sign0 == "-" else "") + body0
        for sign, body in chunks[1:]:
            text += f" {sign} {body}"
        return text

    def __str__(self) -> str:
        if self.precision is None:
            return self.polynomial_text()
        return f"{self.polynomial_text()} + O(t^{self.precision})"

    def __repr__(self) -> str:
        return f"PowerSeries({self})"


def poly_compose_series(f, substitutions: dict) -> PowerSeries:
    """Evaluate a MultiPoly on power series, one substitute per variable.

    The result's precision is the min over the substitutes of variables that
    actually occur in f (exact when they are all exact).  This is the
    `Fraction` front end of `compose_integers`.
    """
    forms = {}  # variable index -> integer form of its substitute
    for i, v in enumerate(f.vars):
        if any(exp[i] for exp in f.terms):
            if v not in substitutions:
                raise DimensionMismatchError(f"no substitute supplied for variable {v!r}")
            s = substitutions[v]
            forms[i] = (*integer_form(s.coeffs), s.precision)
    terms = [
        (coeff.numerator, coeff.denominator, [(i, e) for i, e in enumerate(exp) if e])
        for exp, coeff in f.terms.items()
    ]
    nums, common, prec = compose_integers(terms, forms)
    return from_integers(nums, common, prec)


def compose_integers(terms, forms) -> Tuple[List[int], int, int | None]:
    """The integer back end: sum over terms of num/den * prod s_i^e_i.

    A term is (num, den, [(i, e), ...]) with every e positive, and forms[i]
    is (numerators, denominator, precision) of the substitute s_i.  Returns
    (nums, common, prec): the sum is nums[k]/common t^k below t^n, where prec
    is the min precision over the substitutes the terms use and n is the
    smaller of prec and the degree bound.  The path is chosen here.
    """
    prec: int | None = None
    subs = {}  # index -> numerators of each substitute the terms use
    for _, _, factors in terms:
        for i, _ in factors:
            if i not in subs:
                nums, _, p = forms[i]
                subs[i] = nums
                prec = _min_precision(prec, p)
    # terms that no zero substitute kills, over their denominators, and the
    # degree bound of their sum
    kept = []
    degree = -1
    for num, den, factors in terms:
        d = 0
        for i, e in factors:
            nums = subs[i]
            if not nums:
                break
            den *= forms[i][1] ** e
            d += e * (len(nums) - 1)
        else:
            kept.append((num, den, factors))
            degree = max(degree, d)
    n = degree + 1 if prec is None else min(prec, degree + 1)
    if n <= 0:
        return [], 1, prec
    common = lcm(*(den for _, den, _ in kept))
    g, series, lattice = _on_lattice(kept, common, subs, n)
    out = [0] * n
    if not g:  # the monomial map: each term is one coefficient
        for num, o, _ in lattice:
            out[o] += num
        return _trim(out), common, prec
    norms = {i: sum(map(abs, sigma)) for i, sigma in series.items()}
    bound = 0
    classes = {}  # residue r of the offset -> [(num, o // g, factors)]
    for num, o, rest in lattice:
        term_bound = abs(num)
        for i, e in rest:
            term_bound *= norms[i] ** e
        bound += term_bound
        classes.setdefault(o % g, []).append((num, o // g, rest))
    slot = bound.bit_length() // 8 + 1  # bytes: the bound's bits plus a sign bit
    size = -(-n // g)
    if 8 * slot * size <= PACKED_MAX_BITS:
        sums = _packed_sum(classes, series, size, slot)
    else:
        sums = _schoolbook_sum(classes, series, size)
    for r, digits in sums.items():
        out[r::g] = digits[: len(range(r, n, g))]
    return _trim(out), common, prec


def _trim(nums: List[int]) -> List[int]:
    """nums without its trailing zeros."""
    if not any(nums):
        return []
    while not nums[-1]:
        nums.pop()
    return nums


def _on_lattice(kept, common, subs, n: int):
    """(g, series, lattice): the terms on the exponent lattice of the substitutes.

    Below t^n each substitute with a nonzero coefficient is a monomial
    c t^a or t^a sigma(t^g), g the gcd of the gaps between the nonzero
    exponents of all substitutes (0 when all are monomials); series[i] is
    sigma_i in s = t^g.  A lattice term is (num, o, factors) for
    num t^o prod sigma_i^e_i, monomials folded into num and o; terms with
    o >= n are dropped, and so are those of a substitute zero below t^n.
    """
    g, lows, monomials = 0, {}, set()
    for i, nums in subs.items():
        support = [k for k, c in enumerate(nums[:n]) if c]
        if not support:
            continue
        a = lows[i] = support[0]
        if len(support) == 1:
            monomials.add(i)
        for k in support[1:]:
            g = gcd(g, k - a)
            if g == 1:
                break
    lattice = []
    for num, den, factors in kept:
        num *= common // den
        o, rest = 0, []
        for i, e in factors:
            a = lows.get(i)
            if a is None:
                break
            o += a * e
            if o >= n:
                break
            if i in monomials:
                num *= subs[i][a] ** e
            else:
                rest.append((i, e))
        else:
            lattice.append((num, o, rest))
    series = {i: subs[i][a:n:g] for i, a in lows.items() if i not in monomials}
    return g, series, lattice


def _powers(classes, series, bases, size: int, square, multiply):
    """{i: {e: bases[i]^e cut below s^size}} for every factor (i, e) the
    terms use, built in increasing e; bases[i] is series[i] as the path
    stores it.

    An odd power is the base times the power below.  An even power is the
    square of its half, unless the power below is built already and its
    product with the base costs less: a product is priced as the product of
    its operands' lengths and a square at half that, base^k having
    min(size, k (length - 1) + 1) coefficients.  So a long base is squared,
    and a short one whose powers are all used is multiplied on.
    """
    powers = {i: {1: base} for i, base in bases.items()}

    def power(i, e):
        built = powers[i]
        if e not in built:
            step = len(series[i]) - 1
            half = min(size, e // 2 * step + 1)
            below = min(size, (e - 1) * step + 1)
            if e % 2 == 0 and (e - 1 not in built or half * half < 2 * below * (step + 1)):
                built[e] = square(power(i, e // 2))
            else:
                built[e] = multiply(power(i, e - 1), built[1])
        return built[e]

    used = {f for group in classes.values() for _, _, factors in group for f in factors}
    for i, e in sorted(used):
        power(i, e)
    return powers


def _packed_sum(classes, series, size: int, slot: int):
    """Kronecker evaluation in s: for each residue class whose sum of
    num s^j prod sigma_i^e_i is not zero, that sum as `size` signed digits.

    s -> 2^w maps Z[s]/(s^size) to the integers mod 2^(w size).  A product
    is cut to its balanced residue, the signed value of its low `size`
    slots, so a short series stays a short integer; only a sum must fit its
    slots, `slot` bytes each.
    """
    w = 8 * slot
    bits = w * size
    mask = (1 << bits) - 1

    def cut(x):
        # Any residue mod 2^bits would be exact, as only the low slots of a
        # sum are read; the masked residue of a negative value is `bits` long.
        if x.bit_length() < bits:
            return x
        x &= mask
        return x - (1 << bits) if x >> (bits - 1) else x

    packed = {}
    for i, nums in series.items():
        p = 0
        for c in reversed(nums):
            p = (p << w) + c
        packed[i] = p
    powers = _powers(classes, series, packed, size, lambda p: cut(p * p), lambda p, q: cut(p * q))
    sums = {}
    for r, group in classes.items():
        total = 0
        for num, j, factors in group:
            for i, e in factors:
                num = cut(num * powers[i][e])
            total += num << (w * j)
        total &= mask
        if not total:
            continue
        # A digit is its slot read as signed, plus 1 when the slot below is negative.
        data = total.to_bytes(slot * size, "little")
        digits, borrow = [], 0
        for k in range(0, slot * size, slot):
            s = int.from_bytes(data[k : k + slot], "little", signed=True)
            digits.append(s + borrow)
            borrow = s < 0
        sums[r] = digits
    return sums


def _schoolbook_sum(classes, series, size: int):
    """The same sums by convolution cut below s^size."""
    powers = _powers(
        classes, series, series, size,
        lambda a: _square(a, size), lambda a, b: _convolve(a, b, size),
    )
    sums = {}
    for r, group in classes.items():
        total = [0] * size
        for num, j, factors in group:
            nums = [num]
            for i, e in factors:
                nums = _convolve(nums, powers[i][e], size - j)
            total[j : j + len(nums)] = [o + v for o, v in zip(total[j:], nums)]
        sums[r] = total
    return sums

"""Truncated univariate formal power series in t with explicit precision.

A series is sum nums[k]/den t^k + O(t^precision): integer numerators over one
denominator, and a precision that is an integer N ("coefficients are only
claimed below t^N") or None (an exact polynomial).  The form is canonical:
nums has no trailing zero and nothing at or above t^precision, den > 0, and
gcd(den, *nums) = 1, so equal series have equal fields.  `coeffs` is a
read-only `Fraction` view of the numerators.  Arithmetic propagates precision
conservatively (min of the operands), so a stored coefficient is always
correct.  A product convolves the numerators and multiplies the
denominators.

Evaluating a polynomial on series is one integer back end,
`compose_integers`.  It reads the polynomial as it is stored everywhere,
{exponent tuple: integer numerator} over one denominator (`MultiPoly.nums`
and `.den`, a Nash transform, a Newton-Puiseux residual over 1), and each
substitute's numerators, denominator and precision as they are stored.
`poly_compose_series` is its `MultiPoly` front end; `PowerSeries.compose`,
the Nash blow-up step, the lift's equation on its base arc and the probe of
a Newton-Puiseux tail at t = 2 call it directly.  Only the first n
coefficients are computed: n is the smaller of the result's precision and
one past the degree of the sum.

Where only the order of the image is wanted, as for the elimination images
that the contact invariants read, `image_order` takes the same arguments
and reads each substitute's leading term below the precision instead: the
least offset of a term is the order unless the terms there cancel, and only
then does it fall back to `compose_integers`.

The work follows the support of the substitutes, read once per call.  Below
the precision each substitute s_i = (numerators)/d_i is zero, one term
c_i t^a_i, or t^a_i sigma_i(t^g), where g is the gcd of the gaps between the
nonzero exponents of all substitutes of two terms or more, as on a ramified
root or a root lifted at alpha = 2 (Duval, Rational Puiseux expansions,
1989); a count of zeros settles the one-term case before any scan.  With E_i the
highest power of s_i, every term is brought to the one denominator
den prod d_i^E_i by a table per substitute, c_i^e d_i^(E_i - e) for a
monomial (c_i = 0 for zero) and d_i^(E_i - e) for a series.  One walk over
the terms multiplies each numerator by its tables and adds a_i e_i to its
offset o.  When no substitute is a series (g = 0), as in most Nash arc
checks and at the probe t = 2 of a lifted root, each term is one
coefficient at t^o and the walk sums them there.  Otherwise it appends each
term to its residue class r = o mod g, shifted by o // g; each class is a
sum of products of the sigma_i in s = t^g to ceil(n/g) coefficients, and
its coefficient k lands at t^(r + g k).  Only the powers the terms use are
built.  An even power is the square of its half (`_square`
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
from .poly import sum_text

# The largest packed size w*n, in bits, evaluated by Kronecker substitution.
PACKED_MAX_BITS = 1 << 14

_ZERO = Fraction(0)


def _min_precision(a: int | None, b: int | None) -> int | None:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _convolve(a: Sequence[int], b: Sequence[int], n: int | None) -> List[int]:
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


def _square(a: Sequence[int], n: int | None) -> List[int]:
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


class PowerSeries:
    """sum nums[k]/den t^k + O(t^precision) in canonical form (see the module)."""

    __slots__ = ("nums", "den", "precision")

    def __new__(cls, coeffs: Sequence, precision: int | None = None) -> "PowerSeries":
        cs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        den = lcm(*(c.denominator for c in cs))
        return cls.from_integers([c.numerator * (den // c.denominator) for c in cs], den, precision)

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_integers(cls, nums: Sequence[int], den: int, precision: int | None) -> "PowerSeries":
        """The series sum nums[k]/den t^k + O(t^precision), den nonzero."""
        if precision is not None:
            if precision < 0:
                raise ValueError("precision must be nonnegative")
            nums = nums[:precision]
        top = len(nums) if any(nums) else 0
        while top and not nums[top - 1]:
            top -= 1
        nums = tuple(nums[:top])
        common = gcd(den, *nums) if den != 1 else 1
        if den < 0:
            common = -common
        if common != 1:
            nums = tuple(c // common for c in nums)
            den //= common
        s = object.__new__(cls)
        s.nums, s.den, s.precision = nums, den, precision
        return s

    @staticmethod
    def t_power(k: int, precision: int | None = None) -> "PowerSeries":
        return PowerSeries.from_integers((0,) * k + (1,), 1, precision)

    @staticmethod
    def monomial(coeff, k: int, precision: int | None = None) -> "PowerSeries":
        c = Fraction(coeff)
        return PowerSeries.from_integers((0,) * k + (c.numerator,), c.denominator, precision)

    # -- queries -------------------------------------------------------------

    @property
    def coeffs(self) -> Tuple[Fraction, ...]:
        """The stored coefficients as Fractions, t^0 first."""
        den = self.den
        return tuple(Fraction(c, den) if c else _ZERO for c in self.nums)

    @property
    def is_exact(self) -> bool:
        return self.precision is None

    def is_exactly_zero(self) -> bool:
        return self.is_exact and not self.nums

    def is_zero_to_precision(self) -> bool:
        return not self.nums

    def __getitem__(self, k: int) -> Fraction:
        if self.precision is not None and k >= self.precision:
            raise InsufficientPrecisionError(
                f"coefficient of t^{k} requested, series known below t^{self.precision}"
            )
        if k < len(self.nums):
            return Fraction(self.nums[k], self.den)
        return Fraction(0)

    def order(self) -> ExtOrder:
        for k, c in enumerate(self.nums):
            if c:
                return ExtOrder.exact(k)
        if self.is_exact:
            return INFINITE
        return ExtOrder.at_least(self.precision)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PowerSeries)
            and self.nums == other.nums
            and self.den == other.den
            and self.precision == other.precision
        )

    def __hash__(self) -> int:
        return hash((self.nums, self.den, self.precision))

    # -- arithmetic -----------------------------------------------------------

    def __mul__(self, other: "PowerSeries") -> "PowerSeries":
        prec = _min_precision(self.precision, other.precision)
        return PowerSeries.from_integers(
            _convolve(self.nums, other.nums, prec), self.den * other.den, prec
        )

    # -- reparametrizations -----------------------------------------------------

    def reparametrize(self, e: int) -> "PowerSeries":
        """Substitute t -> t^e; orders and precision scale by e."""
        if e < 1:
            raise ValueError("reparametrization exponent must be >= 1")
        if e == 1:
            return self
        out = [0] * (len(self.nums) * e)
        out[::e] = self.nums
        prec = None if self.precision is None else self.precision * e
        return PowerSeries.from_integers(out, self.den, prec)

    def scale_parameter(self, c) -> "PowerSeries":
        """Substitute t -> c*t for a nonzero rational c (a parameter unit)."""
        c = Fraction(c)
        if c == 0:
            raise ValueError("parameter scaling must be by a nonzero rational")
        # nums[k] p^k / (den q^k) over the denominator den q^top
        p, q = c.numerator, c.denominator
        top = max(len(self.nums) - 1, 0)
        out, p_power = [], 1
        for k, a in enumerate(self.nums):
            out.append(a * p_power * q ** (top - k))
            p_power *= p
        return PowerSeries.from_integers(out, self.den * q**top, self.precision)

    def compose(self, inner: "PowerSeries") -> "PowerSeries":
        """Substitute another series for t; inner must have order >= 1."""
        o = inner.order()
        if not o.is_infinite and o.value < 1:
            raise ValueError("parameter substitution needs a series of order >= 1")
        prec = _min_precision(self.precision, inner.precision)
        inner = PowerSeries.from_integers(inner.nums, inner.den, prec)
        image = compose_integers({(k,): c for k, c in enumerate(self.nums) if c}, self.den, [inner])
        return PowerSeries.from_integers(image.nums, image.den, prec)

    # -- printing ------------------------------------------------------------------

    def polynomial_text(self) -> str:
        """Grammar-compatible polynomial-in-t text for the stored coefficients."""
        terms = [(c, "" if k == 0 else "t" if k == 1 else f"t^{k}") for k, c in enumerate(self.nums) if c]
        return sum_text(terms, self.den)

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
    `MultiPoly` front end of `compose_integers`, which reads the substitute
    of each variable an exponent uses and no other.
    """
    forms = [None] * len(f.vars)
    for i, top in enumerate(map(max, zip(*f.nums))):
        if top:
            v = f.vars[i]
            if v not in substitutions:
                raise DimensionMismatchError(f"no substitute supplied for variable {v!r}")
            forms[i] = substitutions[v]
    return compose_integers(f.nums, f.den, forms)


def compose_integers(nums, den: int, forms) -> PowerSeries:
    """The integer back end: sum over exponents e of nums[e]/den * prod s_i^e_i.

    nums is {exponent tuple: nonzero int} over one denominator den, the form
    of `MultiPoly.nums`, and forms[i] is the substitute s_i for position i
    (None where no exponent uses it).  The result has precision prec, the
    min precision over the substitutes the terms use.  Each substitute's
    shape below t^prec is decided once, zero, one term or t^a sigma(t^g)
    (see the module), and one walk over the terms folds the substitutes'
    tables into the numerators and their offsets into o, then sums at t^o
    (g = 0) or groups by o mod g.  Only offsets below prec are kept, and a
    class is computed below t^n, n = min(prec, one past the degree of the
    sum), so the work follows the degree, not a large declared precision.
    """
    prec: int | None = None
    used = []  # (i, E_i, s_i): each substitute some exponent uses, E_i its top power
    for i, top in enumerate(map(max, zip(*nums))):
        if top:
            s = forms[i]
            prec = _min_precision(prec, s.precision)
            used.append((i, top, s))
    g, monomials, lattice = 0, [], []  # (i, a_i, table or None when all ones, numerators below t^prec)
    for i, top, s in used:
        s_nums, cut, d = s.nums, s.nums[:prec], s.den
        if s_nums.count(0) + 1 >= len(s_nums):  # zero, or one term c t^a in all
            support = [len(cut) - 1] if cut and len(cut) == len(s_nums) else []
        else:
            support = [k for k, c in enumerate(cut) if c]
        a, c = (support[0], cut[support[0]]) if support else (0, 0)
        if len(support) > 1:  # t^a sigma(t^g): the table leaves sigma's numerators
            c = 1
            for k in support[1:]:
                g = gcd(g, k - a)
                if g == 1:
                    break
        den *= d**top
        table = None if c == d == 1 else [c**e * d ** (top - e) for e in range(top + 1)]
        (lattice if len(support) > 1 else monomials).append((i, a, table, cut))
    series = {i: cut[a::g] for i, a, _, cut in lattice}
    norms = {i: sum(map(abs, sigma)) for i, sigma in series.items()}
    # g = 0: offset o -> coefficient at t^o; else residue of o mod g ->
    # [(num, o // g, factors)] for num t^o prod sigma_i^e_i
    sums, reach, bound = {}, -1, 0
    for exp, num in nums.items():
        o = 0
        for i, a, table, _ in monomials:
            e = exp[i]
            o += a * e
            if table:
                num *= table[e]
        if not num:  # a substitute zero below t^prec occurs in the term
            continue
        if not g:
            if prec is None or o < prec:
                sums[o] = sums.get(o, 0) + num
            continue
        factors, degree, term_bound = [], 0, 1
        for i, a, table, _ in lattice:
            e = exp[i]
            if table:
                num *= table[e]
            if e:
                o += a * e
                factors.append((i, e))
                degree += e * (len(series[i]) - 1)
                term_bound *= norms[i] ** e
        if prec is None or o < prec:
            reach, bound = max(reach, o + g * degree), bound + abs(num) * term_bound
            sums.setdefault(o % g, []).append((num, o // g, factors))
    if not g:
        out = [0] * max((o + 1 for o, c in sums.items() if c), default=0)
        for o, c in sums.items():
            if c:
                out[o] = c
        return PowerSeries.from_integers(out, den, prec)
    n = reach + 1 if prec is None else min(prec, reach + 1)
    slot = bound.bit_length() // 8 + 1  # bytes: the bound's bits plus a sign bit
    size = -(-n // g)
    if 8 * slot * size <= PACKED_MAX_BITS:
        sums = _packed_sum(sums, series, size, slot)
    else:
        sums = _schoolbook_sum(sums, series, size)
    out = [0] * n
    for r, digits in sums.items():
        out[r::g] = digits[: len(range(r, n, g))]
    return PowerSeries.from_integers(out, den, prec)


def image_order(nums, den: int, forms) -> ExtOrder:
    """compose_integers(nums, den, forms).order(), read from leading terms.

    The arguments are those of `compose_integers`, and prec is again the min
    precision over the substitutes the terms use.  Each of them is read
    below t^prec as zero or its leading term c_i t^k_i over d_i.  A term
    that uses a zero substitute drops out, and any other leads at
    o = sum e_i k_i.  With no term left below t^prec the image is zero
    there.  Otherwise the least such o is the order unless the terms that
    lead there cancel: their sum, num prod c_i^e_i d_i^(E_i - e_i) over
    den prod d_i^E_i, is the image's coefficient at t^o.  Only then is the
    image composed in full.
    """
    used = [(i, top) for i, top in enumerate(map(max, zip(*nums))) if top]
    prec: int | None = None
    for i, _ in used:
        prec = _min_precision(prec, forms[i].precision)
    leads = []  # (i, E_i, k_i, c_i, d_i), c_i = 0 for a substitute zero below t^prec
    for i, top in used:
        s = forms[i]
        k = next((k for k, c in enumerate(s.nums) if c), None)
        c = 0 if k is None or prec is not None and k >= prec else s.nums[k]
        leads.append((i, top, k, c, s.den))
    least, meet = None, []  # the least offset o below t^prec and the terms there
    for exp, num in nums.items():
        o = 0
        for i, _, k, c, _ in leads:
            if exp[i]:
                if not c:
                    break  # the term drops out
                o += k * exp[i]
        else:
            if (prec is None or o < prec) and (least is None or o <= least):
                if o != least:
                    least, meet = o, []
                meet.append((exp, num))
    if least is None:
        return INFINITE if prec is None else ExtOrder.at_least(prec)
    total = 0
    for exp, num in meet:
        for i, top, _, c, d in leads:
            num *= c ** exp[i] * d ** (top - exp[i])
        total += num
    if total:
        return ExtOrder.exact(least)
    return compose_integers(nums, den, forms).order()


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

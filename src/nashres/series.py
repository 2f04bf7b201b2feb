"""Truncated univariate formal power series in t with explicit precision.

A series stores rational coefficients for t^0 .. t^(k-1) (trailing zeros
trimmed) together with a precision: an integer N means "coefficients are
only claimed below t^N", None means the series is an exact polynomial.
Arithmetic propagates precision conservatively (min of the operands), so a
stored coefficient is always correct.

Products run on one integer kernel.  Each operand is brought once to integer
numerators over the lcm of its coefficient denominators; the numerator lists
are multiplied by schoolbook convolution cut below the result's precision,
the denominators multiply, and a Fraction is built once per output
coefficient.  `poly_compose_series` uses the same kernel and, within one
call, caches the integer powers 1, s, s^2, ... of every substitute, so each
term of the polynomial is its coefficient times cached powers and the terms
are summed over their lcm denominator.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import List, Sequence, Tuple

from .errors import InsufficientPrecisionError
from .extorder import INFINITE, ExtOrder


def _min_precision(a: int | None, b: int | None) -> int | None:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _integer_form(coeffs: Sequence[Fraction]) -> Tuple[List[int], int]:
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


def _from_integers(nums: List[int], den: int, precision: int | None) -> "PowerSeries":
    """The series with coefficients nums[k] / den."""
    if den == 1:
        return PowerSeries([Fraction(v) for v in nums], precision)
    return PowerSeries([Fraction(v, den) for v in nums], precision)


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

    def constant_term(self) -> Fraction:
        return self[0]

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
        a, da = _integer_form(self.coeffs)
        b, db = _integer_form(other.coeffs)
        return _from_integers(_convolve(a, b, prec), da * db, prec)

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
        result = PowerSeries.zero(prec)
        for c in reversed(self.coeffs):
            result = result * inner + PowerSeries((c,), prec)
        return result

    def divide_t_power(self, k: int) -> "PowerSeries":
        """Exact division by t^k; precision drops by k."""
        if k == 0:
            return self
        for j, c in enumerate(self.coeffs[:k]):
            if c != 0:
                raise ValueError(f"series has nonzero coefficient at t^{j}, not divisible by t^{k}")
        if self.precision is not None and self.precision < k:
            raise InsufficientPrecisionError(
                f"cannot certify divisibility by t^{k}: series known below t^{self.precision}"
            )
        prec = None if self.precision is None else self.precision - k
        return PowerSeries(self.coeffs[k:], prec)

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
    actually occur in f (exact when they are all exact).
    """
    from .errors import DimensionMismatchError

    prec: int | None = None
    for i, v in enumerate(f.vars):
        if any(exp[i] for exp in f.terms):
            if v not in substitutions:
                raise DimensionMismatchError(f"no substitute supplied for variable {v!r}")
            prec = _min_precision(prec, substitutions[v].precision)
    # powers[v][k] is the integer form of substitutions[v] ** k, cut below prec
    powers: dict = {}
    terms = []
    for exp, coeff in f.terms.items():
        nums, den = [coeff.numerator], coeff.denominator
        for v, e in zip(f.vars, exp):
            if not e:
                continue
            cache = powers.get(v)
            if cache is None:
                cache = powers[v] = [([1], 1), _integer_form(substitutions[v].coeffs)]
            while len(cache) <= e:
                (pn, pd), (sn, sd) = cache[-1], cache[1]
                cache.append((_convolve(pn, sn, prec), pd * sd))
            pn, pd = cache[e]
            nums, den = _convolve(nums, pn, prec), den * pd
        terms.append((nums, den))
    common = lcm(*(den for _, den in terms))
    width = max((len(nums) for nums, _ in terms), default=0)
    total = [0] * width
    for nums, den in terms:
        scale = common // den
        total[: len(nums)] = [o + v * scale for o, v in zip(total, nums)]
    return _from_integers(total, common, prec)

"""Sparse exact multivariate polynomials over the rationals.

A polynomial is sum nums[e]/den z^e over an ordered variable list: integer
numerators keyed by exponent vector over one denominator.  The form is
canonical: no numerator is zero, den > 0 and gcd(den, *nums) = 1, so equal
polynomials have equal fields and `__eq__` and `__hash__` read them.  Ring
operations, the Taylor shift, derivatives and printing all work on the
integers; `terms` is a read-only `Fraction` view built on demand, for tests
and callers off the hot paths.  `shift_integer_terms` is the one Taylor
shift, on bare integer numerators: `MultiPoly.translate`, the Nash blow-up
step and the Newton-Puiseux stages all shift there, and the last two make
their charts as exponent maps on the numerators.  Everything is immutable by
convention and exact; there is no floating point anywhere.  Terms are kept
in no particular order internally; printing uses graded lexicographic order
so output is deterministic.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Iterable, Mapping, Sequence, Tuple

from .errors import DimensionMismatchError, UnknownVariableError
from .extorder import INFINITE, ExtOrder

Exponent = Tuple[int, ...]
Terms = Dict[Exponent, Fraction]
Nums = Dict[Exponent, int]


def _gradlex_key(exp: Exponent):
    # Graded lexicographic: compare total degree first, then the vector.
    return (sum(exp), exp)


class MultiPoly:
    """sum nums[e]/den z^e in canonical form (see the module)."""

    __slots__ = ("vars", "nums", "den")

    def __init__(self, variables: Sequence[str], terms: Mapping[Exponent, Fraction] | None = None):
        variables = tuple(variables)
        coeffs: Terms = {}
        if terms:
            width = len(variables)
            for exp, coeff in terms.items():
                if len(exp) != width:
                    raise DimensionMismatchError(
                        f"exponent vector {exp} has length {len(exp)}, expected {width}"
                    )
                coeffs[tuple(exp)] = coeff if type(coeff) is Fraction else Fraction(coeff)
        den = lcm(*(c.denominator for c in coeffs.values()))
        self._set(variables, {e: c.numerator * (den // c.denominator) for e, c in coeffs.items()}, den)

    def _set(self, variables: Tuple[str, ...], nums: Mapping[Exponent, int], den: int) -> None:
        nums = {e: c for e, c in nums.items() if c}
        if den != 1:
            common = gcd(den, *nums.values())
            if den < 0:
                common = -common
            if common != 1:
                nums = {e: c // common for e, c in nums.items()}
                den //= common
        self.vars, self.nums, self.den = variables, nums, den

    @classmethod
    def from_integers(
        cls, variables: Sequence[str], nums: Mapping[Exponent, int], den: int
    ) -> "MultiPoly":
        """The polynomial sum nums[e]/den z^e, den nonzero; exponent widths unchecked."""
        self = object.__new__(cls)
        self._set(tuple(variables), nums, den)
        return self

    @classmethod
    def _raw(cls, variables: Tuple[str, ...], nums: Nums, den: int) -> "MultiPoly":
        """Skip normalization for numerators already in canonical form."""
        self = object.__new__(cls)
        self.vars, self.nums, self.den = variables, nums, den
        return self

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(variables: Sequence[str]) -> "MultiPoly":
        return MultiPoly(variables)

    @staticmethod
    def constant(variables: Sequence[str], value) -> "MultiPoly":
        c = Fraction(value)
        variables = tuple(variables)
        nums = {(0,) * len(variables): c.numerator} if c else {}
        return MultiPoly._raw(variables, nums, c.denominator)

    @staticmethod
    def variable(variables: Sequence[str], name: str) -> "MultiPoly":
        variables = tuple(variables)
        if name not in variables:
            raise UnknownVariableError(f"variable {name!r} not among {variables}")
        exp = [0] * len(variables)
        exp[variables.index(name)] = 1
        return MultiPoly._raw(variables, {tuple(exp): 1}, 1)

    # -- basic queries -----------------------------------------------------

    @property
    def terms(self) -> Terms:
        """The coefficients as Fractions, built on demand; writing to it changes nothing."""
        den = self.den
        return {e: Fraction(c, den) for e, c in self.nums.items()}

    def is_zero(self) -> bool:
        return not self.nums

    def __bool__(self) -> bool:
        return bool(self.nums)

    def total_degree(self) -> int:
        """Total degree; zero polynomial reports -1."""
        if not self.nums:
            return -1
        return max(sum(e) for e in self.nums)

    def degree_in(self, name: str) -> int:
        i = self._index(name)
        if not self.nums:
            return -1
        return max(e[i] for e in self.nums)

    def _index(self, name: str) -> int:
        try:
            return self.vars.index(name)
        except ValueError:
            raise UnknownVariableError(f"variable {name!r} not among {self.vars}") from None

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultiPoly)
            and self.vars == other.vars
            and self.den == other.den
            and self.nums == other.nums
        )

    def __hash__(self) -> int:
        return hash((self.vars, self.den, frozenset(self.nums.items())))

    # -- ring operations ---------------------------------------------------

    def _check_same_vars(self, other: "MultiPoly") -> None:
        if self.vars != other.vars:
            raise DimensionMismatchError(
                f"variable lists differ: {self.vars} vs {other.vars}"
            )

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check_same_vars(other)
        den = lcm(self.den, other.den)
        out = {e: c * (den // self.den) for e, c in self.nums.items()}
        scale = den // other.den
        for e, c in other.nums.items():
            out[e] = out.get(e, 0) + c * scale
        return MultiPoly.from_integers(self.vars, out, den)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._raw(self.vars, {e: -c for e, c in self.nums.items()}, self.den)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        self._check_same_vars(other)
        out: Nums = {}
        for e1, c1 in self.nums.items():
            for e2, c2 in other.nums.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                out[exp] = out.get(exp, 0) + c1 * c2
        return MultiPoly.from_integers(self.vars, out, self.den * other.den)

    def __pow__(self, n: int) -> "MultiPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        if len(self.nums) == 1:
            ((exp, c),) = self.nums.items()
            return MultiPoly._raw(self.vars, {tuple(e * n for e in exp): c**n}, self.den**n)
        result = MultiPoly.constant(self.vars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def scale(self, value) -> "MultiPoly":
        c = Fraction(value)
        p = c.numerator
        return MultiPoly.from_integers(
            self.vars, {e: v * p for e, v in self.nums.items()}, self.den * c.denominator
        )

    # -- structure ---------------------------------------------------------

    def coefficients_in(self, name: str) -> Dict[int, "MultiPoly"]:
        """Split as a polynomial in one variable: degree -> coefficient.

        Coefficients keep the full variable list (with exponent 0 in `name`).
        """
        i = self._index(name)
        buckets: Dict[int, Nums] = {}
        for exp, c in self.nums.items():
            buckets.setdefault(exp[i], {})[exp[:i] + (0,) + exp[i + 1:]] = c
        return {d: MultiPoly.from_integers(self.vars, t, self.den) for d, t in buckets.items()}

    def involves(self, name: str) -> bool:
        i = self._index(name)
        return any(e[i] > 0 for e in self.nums)

    def extend_vars(self, variables: Sequence[str]) -> "MultiPoly":
        """Reinterpret over a larger (or reordered) variable list."""
        variables = tuple(variables)
        if variables == self.vars:
            return self
        positions = []
        for v in self.vars:
            if v not in variables:
                raise DimensionMismatchError(
                    f"variable {v!r} missing from target list {variables}"
                )
            positions.append(variables.index(v))
        out: Nums = {}
        for exp, c in self.nums.items():
            new = [0] * len(variables)
            for p, e in zip(positions, exp):
                new[p] = e
            out[tuple(new)] = c
        return MultiPoly._raw(variables, out, self.den)

    def restrict_vars(self, variables: Sequence[str]) -> "MultiPoly":
        """Drop unused variables; every dropped variable must have exponent 0."""
        variables = tuple(variables)
        keep = [self._index(v) for v in variables]
        dropped = [i for i in range(len(self.vars)) if i not in keep]
        out: Nums = {}
        for exp, c in self.nums.items():
            if any(exp[i] for i in dropped):
                raise DimensionMismatchError(
                    f"polynomial involves {self.vars[next(i for i in dropped if exp[i])]!r}, "
                    f"cannot restrict to {variables}"
                )
            out[tuple(exp[i] for i in keep)] = c
        return MultiPoly._raw(variables, out, self.den)

    def initial_form(self) -> "MultiPoly":
        """Homogeneous part of lowest total degree (initial form at the origin)."""
        if not self.nums:
            return self
        low = min(sum(e) for e in self.nums)
        return MultiPoly.from_integers(
            self.vars, {e: c for e, c in self.nums.items() if sum(e) == low}, self.den
        )

    def leading_coefficient(self) -> Fraction:
        """Coefficient of the graded-lex leading term; 0 for the zero polynomial."""
        if not self.nums:
            return Fraction(0)
        return Fraction(self.nums[max(self.nums, key=_gradlex_key)], self.den)

    def monic_normalized(self) -> "MultiPoly":
        """Divide by the graded-lex leading coefficient (canonical scalar form):
        f / (lead/den) is the numerators over the leading one."""
        if not self.nums:
            return self
        lead = self.nums[max(self.nums, key=_gradlex_key)]
        if lead == self.den:
            return self
        return MultiPoly.from_integers(self.vars, self.nums, lead)

    # -- evaluation and shifts ----------------------------------------------

    def _point(self, point: Sequence) -> Tuple[Fraction, ...]:
        pt = tuple(Fraction(c) for c in point)
        if len(pt) != len(self.vars):
            raise DimensionMismatchError(
                f"point has {len(pt)} coordinates, polynomial has {len(self.vars)} variables"
            )
        return pt

    def eval_at(self, point: Sequence) -> Fraction:
        pt = self._point(point)
        total = Fraction(0)
        for exp, c in self.nums.items():
            v = Fraction(c)
            for p, e in zip(pt, exp):
                if e:
                    v *= p**e
            total += v
        return total / self.den

    def translate(self, point: Sequence) -> "MultiPoly":
        """Taylor shift: returns g with g(y) = f(y + p), exactly."""
        out = self
        for i, c in enumerate(self._point(point)):
            if c != 0:
                # the integer grouped shift's output over q^N den is the shifted polynomial
                shifted, scale = shift_integer_terms(out.nums, i, c.numerator, c.denominator)
                out = MultiPoly.from_integers(out.vars, shifted, out.den * scale)
        return out

    def derive(self, name: str) -> "MultiPoly":
        """Formal partial derivative."""
        i = self._index(name)
        out: Nums = {}
        for exp, c in self.nums.items():
            if exp[i]:
                out[exp[:i] + (exp[i] - 1,) + exp[i + 1:]] = c * exp[i]
        return MultiPoly.from_integers(self.vars, out, self.den)

    def substitute(self, name: str, replacement: "MultiPoly") -> "MultiPoly":
        """Substitute a polynomial (over the same variable list) for one variable."""
        self._check_same_vars(replacement)
        by_degree = self.coefficients_in(name)
        result = MultiPoly(self.vars)
        power = MultiPoly.constant(self.vars, 1)
        for d in range(max(by_degree, default=0) + 1):
            if d in by_degree:
                result = result + by_degree[d] * power
            power = power * replacement
        return result

    # -- orders --------------------------------------------------------------

    def order_at_origin(self) -> ExtOrder:
        if not self.nums:
            return INFINITE
        return ExtOrder.exact(min(sum(e) for e in self.nums))

    def order_at(self, point: Sequence) -> ExtOrder:
        return self.translate(point).order_at_origin()

    # -- printing --------------------------------------------------------------

    def __str__(self) -> str:
        terms = []
        for exp in sorted(self.nums, key=_gradlex_key, reverse=True):
            factors = (v if e == 1 else f"{v}^{e}" for v, e in zip(self.vars, exp) if e)
            terms.append((self.nums[exp], "*".join(factors)))
        return sum_text(terms, self.den)

    def __repr__(self) -> str:
        return f"MultiPoly({self.vars!r}, {self})"


def sum_text(terms: Iterable[Tuple[int, str]], den: int) -> str:
    """The sum of c/den m over (c, m): a nonzero integer c and a monomial's text
    m, "" for 1.  Every printer of polynomials and series writes through here."""
    text = ""
    for c, monomial in terms:
        mag = ratio_text(abs(c), den)  # str(abs(Fraction(c, den)))
        body = mag if not monomial else monomial if mag == "1" else f"{mag}*{monomial}"
        text += (" - " if c < 0 else " + ") + body
    return "0" if not text else text[3:] if text[1] == "+" else "-" + text[3:]


def ratio_text(num: int, den: int) -> str:
    """num/den for den > 0, as `str(Fraction(num, den))` prints it but at any
    size: `str(int)` refuses integers past the interpreter's digit limit
    (4,300 digits by default on Python >= 3.11)."""
    common = gcd(num, den)
    num, den = num // common, den // common
    text = "-" * (num < 0) + _digits(abs(num))
    return text if den == 1 else f"{text}/{_digits(den)}"


def fraction_text(value) -> str:
    """Exact fraction string for reports."""
    return ratio_text(*Fraction(value).as_integer_ratio())


def _digits(n: int) -> str:
    """str(n) for n >= 0, split at a power of ten into halves that each stay
    within the digit limit (0: none; a limit is at least 640 digits, and
    3 bits per digit keeps n below it)."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit or n.bit_length() <= 3 * limit:
        return str(n)
    k = n.bit_length() * 3 // 20  # about half of n's digits
    high, low = divmod(n, 10**k)
    return _digits(high) + _digits(low).zfill(k)


def shift_integer_terms(
    terms: Mapping[Exponent, int], index: int, p: int, q: int
) -> Tuple[Dict[Exponent, int], int]:
    """Integer Taylor shift of one variable by p/q: returns (H, q^N) with
    H = q^N f(.., y + p/q, ..) for f = terms and N its degree in the variable
    at `index`.

    The terms are grouped by the exponent vector of the other variables.  For
    a group sum a_k y^k, q^N f(y + p/q) = sum a_k q^(N-k) (qy + p)^k: the
    integers a_k q^(N-k) are shifted by p with Horner additions to H_j (von
    zur Gathen-Gerhard, ISSAC 1997), and the coefficient of y^j is H_j q^j.
    Every group is scaled by the same q^N, so H is one integer polynomial,
    and no two groups share an output exponent, so each term is written once.
    `MultiPoly.translate`, the Nash blow-up step and the Newton-Puiseux stage
    of `generic` all shift here.
    """
    groups: Dict[Exponent, Dict[int, int]] = {}
    for exp, a in terms.items():
        groups.setdefault(exp[:index] + exp[index + 1:], {})[exp[index]] = a
    q_powers = [1]
    for _ in range(max((e[index] for e in terms), default=0)):
        q_powers.append(q_powers[-1] * q)
    top = len(q_powers) - 1
    out: Dict[Exponent, int] = {}
    for rest, group in groups.items():
        head, tail = rest[:index], rest[index:]
        n = max(group)
        if n == 0:
            out[head + (0,) + tail] = group[0] * q_powers[top]
            continue
        h = [0] * (n + 1)
        for k, a in group.items():
            h[k] = a * q_powers[top - k]
        for i in range(n):
            for j in range(n - 1, i - 1, -1):
                h[j] += p * h[j + 1]
        for j, hj in enumerate(h):
            if hj:
                out[head + (j,) + tail] = hj * q_powers[j]
    return out, q_powers[top]


def canonical_var_key(name: str):
    """Sort key giving the toolkit's variable order: x's, then z's, then t."""
    family = name[0]
    rank = {"x": 0, "z": 1, "t": 2}.get(family, 3)
    index = int(name[1:]) if len(name) > 1 and name[1:].isdigit() else 0
    return (rank, index, name)

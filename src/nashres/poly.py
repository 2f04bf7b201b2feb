"""Sparse exact multivariate polynomials over the rationals.

A polynomial is a map from exponent vectors to nonzero Fractions, tagged with
an ordered variable list.  Everything is immutable by convention and exact;
there is no floating point anywhere.  Terms are kept in no particular order
internally; printing and hashing use graded lexicographic order so output is
deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Dict, Iterable, Mapping, Sequence, Tuple

from .errors import DimensionMismatchError, UnknownVariableError
from .extorder import INFINITE, ExtOrder

Exponent = Tuple[int, ...]
Terms = Dict[Exponent, Fraction]

_ZERO = Fraction(0)


def _gradlex_key(exp: Exponent):
    # Graded lexicographic: compare total degree first, then the vector.
    return (sum(exp), exp)


class MultiPoly:
    __slots__ = ("vars", "terms")

    def __init__(self, variables: Sequence[str], terms: Mapping[Exponent, Fraction] | None = None):
        self.vars: Tuple[str, ...] = tuple(variables)
        clean: Terms = {}
        if terms:
            width = len(self.vars)
            for exp, coeff in terms.items():
                if len(exp) != width:
                    raise DimensionMismatchError(
                        f"exponent vector {exp} has length {len(exp)}, expected {width}"
                    )
                c = coeff if type(coeff) is Fraction else Fraction(coeff)
                if c != 0:
                    clean[tuple(exp)] = c
        self.terms: Terms = clean

    @classmethod
    def _raw(cls, variables: Tuple[str, ...], terms: Terms) -> "MultiPoly":
        """Skip validation for internally built term maps (no zero values,
        correct exponent widths, Fraction coefficients)."""
        self = object.__new__(cls)
        self.vars = variables
        self.terms = terms
        return self

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(variables: Sequence[str]) -> "MultiPoly":
        return MultiPoly(variables)

    @staticmethod
    def constant(variables: Sequence[str], value) -> "MultiPoly":
        c = Fraction(value)
        if c == 0:
            return MultiPoly(variables)
        return MultiPoly(variables, {(0,) * len(variables): c})

    @staticmethod
    def variable(variables: Sequence[str], name: str) -> "MultiPoly":
        variables = tuple(variables)
        if name not in variables:
            raise UnknownVariableError(f"variable {name!r} not among {variables}")
        exp = [0] * len(variables)
        exp[variables.index(name)] = 1
        return MultiPoly(variables, {tuple(exp): Fraction(1)})

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def total_degree(self) -> int:
        """Total degree; zero polynomial reports -1."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, name: str) -> int:
        i = self._index(name)
        if not self.terms:
            return -1
        return max(e[i] for e in self.terms)

    def _index(self, name: str) -> int:
        try:
            return self.vars.index(name)
        except ValueError:
            raise UnknownVariableError(f"variable {name!r} not among {self.vars}") from None

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultiPoly)
            and self.vars == other.vars
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.vars, tuple(sorted(self.terms.items()))))

    # -- ring operations ---------------------------------------------------

    def _check_same_vars(self, other: "MultiPoly") -> None:
        if self.vars != other.vars:
            raise DimensionMismatchError(
                f"variable lists differ: {self.vars} vs {other.vars}"
            )

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check_same_vars(other)
        out = dict(self.terms)
        for exp, coeff in other.terms.items():
            s = out.get(exp, _ZERO) + coeff
            if s == 0:
                out.pop(exp, None)
            else:
                out[exp] = s
        return MultiPoly._raw(self.vars, out)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._raw(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        self._check_same_vars(other)
        out: Terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(exp, _ZERO) + c1 * c2
                if s == 0:
                    out.pop(exp, None)
                else:
                    out[exp] = s
        return MultiPoly._raw(self.vars, out)

    def __pow__(self, n: int) -> "MultiPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        if len(self.terms) == 1:
            ((exp, coeff),) = self.terms.items()
            return MultiPoly._raw(self.vars, {tuple(e * n for e in exp): coeff**n})
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
        if c == 0:
            return MultiPoly(self.vars)
        return MultiPoly._raw(self.vars, {e: c * coeff for e, coeff in self.terms.items()})

    # -- structure ---------------------------------------------------------

    def coefficients_in(self, name: str) -> Dict[int, "MultiPoly"]:
        """Split as a polynomial in one variable: degree -> coefficient.

        Coefficients keep the full variable list (with exponent 0 in `name`).
        """
        i = self._index(name)
        buckets: Dict[int, Terms] = {}
        for exp, coeff in self.terms.items():
            rest = list(exp)
            d = rest[i]
            rest[i] = 0
            buckets.setdefault(d, {})[tuple(rest)] = coeff
        return {d: MultiPoly._raw(self.vars, t) for d, t in buckets.items()}

    def involves(self, name: str) -> bool:
        i = self._index(name)
        return any(e[i] > 0 for e in self.terms)

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
        out: Terms = {}
        for exp, coeff in self.terms.items():
            new = [0] * len(variables)
            for p, e in zip(positions, exp):
                new[p] = e
            out[tuple(new)] = coeff
        return MultiPoly._raw(variables, out)

    def restrict_vars(self, variables: Sequence[str]) -> "MultiPoly":
        """Drop unused variables; every dropped variable must have exponent 0."""
        variables = tuple(variables)
        keep = [self._index(v) for v in variables]
        dropped = [i for i in range(len(self.vars)) if i not in keep]
        out: Terms = {}
        for exp, coeff in self.terms.items():
            if any(exp[i] for i in dropped):
                raise DimensionMismatchError(
                    f"polynomial involves {self.vars[next(i for i in dropped if exp[i])]!r}, "
                    f"cannot restrict to {variables}"
                )
            out[tuple(exp[i] for i in keep)] = coeff
        return MultiPoly._raw(tuple(variables), out)

    def initial_form(self) -> "MultiPoly":
        """Homogeneous part of lowest total degree (initial form at the origin)."""
        if not self.terms:
            return self
        low = min(sum(e) for e in self.terms)
        return MultiPoly._raw(
            self.vars, {e: c for e, c in self.terms.items() if sum(e) == low}
        )

    def leading_coefficient(self) -> Fraction:
        """Coefficient of the graded-lex leading term; 0 for the zero polynomial."""
        if not self.terms:
            return Fraction(0)
        return self.terms[max(self.terms, key=_gradlex_key)]

    def monic_normalized(self) -> "MultiPoly":
        """Divide by the graded-lex leading coefficient (canonical scalar form)."""
        lc = self.leading_coefficient()
        if lc in (0, 1):
            return self
        return self.scale(Fraction(1) / lc)

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
        for exp, coeff in self.terms.items():
            v = coeff
            for c, e in zip(pt, exp):
                if e:
                    v *= c**e
            total += v
        return total

    def translate(self, point: Sequence) -> "MultiPoly":
        """Taylor shift: returns g with g(y) = f(y + p), exactly."""
        pt = self._point(point)
        out = self
        for i, c in enumerate(pt):
            if c != 0:
                out = out._shift_one(i, c)
        return out

    def _shift_one(self, index: int, c: Fraction) -> "MultiPoly":
        # Integer Taylor shift, one group of terms per exponent vector of the
        # other variables.  With c = p/q and the group's coefficients a_k =
        # N_k / D over their lcm D, q^n D f(y + c) = sum N_k q^(n-k) (qy + p)^k:
        # shift the integers N_k q^(n-k) by p with Horner additions to get H_j,
        # and the coefficient of y^j is H_j q^j / (q^n D).  No two groups share
        # an output exponent, so each term is written once.
        p, q = c.numerator, c.denominator
        groups: Dict[Exponent, Dict[int, Fraction]] = {}
        for exp, coeff in self.terms.items():
            groups.setdefault(exp[:index] + exp[index + 1:], {})[exp[index]] = coeff
        q_powers = [1]
        for _ in range(max((e[index] for e in self.terms), default=0)):
            q_powers.append(q_powers[-1] * q)
        out: Terms = {}
        for rest, group in groups.items():
            head, tail = rest[:index], rest[index:]
            n = max(group)
            if n == 0:
                out[head + (0,) + tail] = group[0]
                continue
            den = lcm(*(a.denominator for a in group.values()))
            h = [0] * (n + 1)
            for k, a in group.items():
                h[k] = a.numerator * (den // a.denominator) * q_powers[n - k]
            for i in range(n):
                for j in range(n - 1, i - 1, -1):
                    h[j] += p * h[j + 1]
            den *= q_powers[n]
            for j, hj in enumerate(h):
                if hj:
                    out[head + (j,) + tail] = Fraction(hj * q_powers[j], den)
        return MultiPoly._raw(self.vars, out)

    def t_chart(self, t: str, weights: Mapping[str, int], drop: int = 0) -> "MultiPoly":
        """Chart change in t: each t-exponent becomes sum(w_v e_v) - drop.

        Weights missing from the map are 0 and the other exponents stay as
        they are, so weight m on x is x -> t^m x, weight q on t is t -> t^q,
        and drop divides by t^drop.  With the weight of t at least 1 no two
        terms collide.  Raises ValueError when an exponent would go negative.
        """
        ti = self._index(t)
        t_weight = weights.get(t, 0)
        if t_weight < 1:
            raise ValueError(f"weight of {t} must be >= 1, got {t_weight}")
        w = [(i, weights[v]) for i, v in enumerate(self.vars) if weights.get(v, 0)]
        out: Terms = {}
        for exp, coeff in self.terms.items():
            e = sum(exp[i] * wi for i, wi in w) - drop
            if e < 0:
                raise ValueError(f"{t}^{drop} does not divide a chart term in {t}^{e + drop}")
            out[exp[:ti] + (e,) + exp[ti + 1:]] = coeff
        return MultiPoly._raw(self.vars, out)

    def derive(self, name: str) -> "MultiPoly":
        """Formal partial derivative."""
        i = self._index(name)
        out: Terms = {}
        for exp, coeff in self.terms.items():
            if exp[i] == 0:
                continue
            new = list(exp)
            new[i] -= 1
            out[tuple(new)] = coeff * exp[i]
        return MultiPoly._raw(self.vars, out)

    def substitute(self, name: str, replacement: "MultiPoly") -> "MultiPoly":
        """Substitute a polynomial (over the same variable list) for one variable."""
        self._check_same_vars(replacement)
        i = self._index(name)
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
        if not self.terms:
            return INFINITE
        return ExtOrder.exact(min(sum(e) for e in self.terms))

    def order_at(self, point: Sequence) -> ExtOrder:
        return self.translate(point).order_at_origin()

    # -- printing --------------------------------------------------------------

    def sorted_terms(self) -> Iterable[Tuple[Exponent, Fraction]]:
        """Terms in descending graded-lex order (leading term first)."""
        return sorted(self.terms.items(), key=lambda kv: _gradlex_key(kv[0]), reverse=True)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        chunks = []
        for exp, coeff in self.sorted_terms():
            factors = [
                v if e == 1 else f"{v}^{e}"
                for v, e in zip(self.vars, exp)
                if e
            ]
            if not factors:
                body = str(abs(coeff))
            else:
                mag = abs(coeff)
                body = "*".join(([str(mag)] if mag != 1 else []) + factors)
            sign = "-" if coeff < 0 else "+"
            chunks.append((sign, body))
        first_sign, first_body = chunks[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in chunks[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self) -> str:
        return f"MultiPoly({self.vars!r}, {self})"


def canonical_var_key(name: str):
    """Sort key giving the toolkit's variable order: x's, then z's, then t."""
    family = name[0]
    rank = {"x": 0, "z": 1, "t": 2}.get(family, 3)
    index = int(name[1:]) if len(name) > 1 and name[1:].isdigit() else 0
    return (rank, index, name)

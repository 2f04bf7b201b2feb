"""Rees algebras as weighted generator lists.

An algebra is a finite list of pairs f*W^n (polynomial, positive weight).
The operations here are the ones every invariant in the toolkit reduces to:
differential closure, order at a point, and the one-dimensional transform
model over K[[t]] that computes blow-up counts by repeated subtraction.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from .errors import (
    DimensionMismatchError,
    InsufficientPrecisionError,
    NotPermissibleError,
    ValidationError,
)
from .extorder import INFINITE, ExtOrder, ext_min
from .poly import MultiPoly


@dataclass(frozen=True)
class ReesGenerator:
    f: MultiPoly
    weight: int

    def __post_init__(self):
        if self.weight < 1:
            raise ValidationError(f"generator weight must be >= 1, got {self.weight}")
        if self.f.is_zero():
            raise ValidationError("zero polynomial cannot be a generator")

    def dedup_key(self):
        return (self.f.monic_normalized(), self.weight)

    def __str__(self) -> str:
        body = str(self.f)
        if " " in body:
            body = f"({body})"
        return f"{body}*W^{self.weight}"


class ReesAlgebra:
    __slots__ = ("ambient_vars", "generators")

    def __init__(self, ambient_vars: Sequence[str], generators: Sequence[ReesGenerator] = ()):
        self.ambient_vars: Tuple[str, ...] = tuple(ambient_vars)
        gens: list[ReesGenerator] = []
        seen = set()
        for g in generators:
            if g.f.vars != self.ambient_vars:
                raise DimensionMismatchError(
                    f"generator over {g.f.vars} does not match ambient {self.ambient_vars}"
                )
            key = g.dedup_key()
            if key in seen:
                continue
            seen.add(key)
            gens.append(g)
        self.generators: Tuple[ReesGenerator, ...] = tuple(gens)

    @staticmethod
    def from_pairs(ambient_vars: Sequence[str], pairs) -> "ReesAlgebra":
        return ReesAlgebra(
            ambient_vars, [ReesGenerator(f, n) for f, n in pairs]
        )

    def is_empty(self) -> bool:
        return not self.generators

    def __str__(self) -> str:
        if not self.generators:
            return "[]"
        return "[" + ", ".join(str(g) for g in self.generators) + "]"


def _tschirnhausen_split(f: MultiPoly, weight: int) -> Optional[Tuple[str, dict]]:
    """Detect f = x^b + sum_{i<=b-2} B_i x^i (up to a constant) with b == weight.

    Returns (variable, {i: B_i}) for the first matching variable, or None.
    """
    if weight < 2:
        return None
    for var in f.vars:
        if f.degree_in(var) != weight:
            continue
        coeffs = f.coefficients_in(var)
        lead = coeffs.get(weight)
        if lead is None or lead.total_degree() != 0:
            continue
        if weight - 1 in coeffs:
            continue
        c = lead.leading_coefficient()
        return var, {
            i: g.scale(Fraction(1) / c) for i, g in coeffs.items() if i <= weight - 2
        }
    return None


def diff_closure(algebra: ReesAlgebra) -> ReesAlgebra:
    """Close under weighted differential operators.

    Plain generators contribute all iterated partial derivatives with the
    weight dropped accordingly.  A generator that is (a constant multiple of)
    a Tschirnhausen polynomial x^b + sum B_i x^i of degree b equal to its
    weight is replaced by x*W and the coefficient generators B_i*W^(b-i),
    which generate the same closure with a smaller set.  Idempotent.
    """
    out: list[ReesGenerator] = []
    visited = set()
    queue = deque((g.f, g.weight, True) for g in algebra.generators)
    while queue:
        f, n, original = queue.popleft()
        if f.is_zero():
            continue
        key = (f.monic_normalized(), n)
        if key in visited:
            continue
        visited.add(key)
        split = _tschirnhausen_split(f, n)
        if split is not None:
            var, coeffs = split
            queue.appendleft((MultiPoly.variable(f.vars, var), 1, False))
            for i in sorted(coeffs, reverse=True):
                queue.append((coeffs[i], n - i, False))
            continue
        out.append(ReesGenerator(f if original else f.monic_normalized(), n))
        if n >= 2:
            for var in f.vars:
                d = f.derive(var)
                if not d.is_zero():
                    queue.append((d, n - 1, False))
    return ReesAlgebra(algebra.ambient_vars, out)


def algebra_order_at(algebra: ReesAlgebra, point: Sequence) -> ExtOrder:
    """min over generators of ord_p(f)/weight; infinite for the empty algebra."""
    if not algebra.generators:
        return INFINITE
    quotients = []
    for g in algebra.generators:
        o = g.f.order_at(point)
        quotients.append(o.divided_by(g.weight))
    return ext_min(quotients)


# -- one-dimensional model over K[[t]] ---------------------------------------


@dataclass(frozen=True)
class OneDimGenerator:
    """t^a * W^l over K[[t]]; `a` may be censored by arc precision."""

    a: ExtOrder
    l: int

    def __post_init__(self):
        if self.l < 1:
            raise ValidationError(f"weight must be >= 1, got {self.l}")
        if self.a.is_infinite:
            raise ValidationError("infinite exponents are dropped, not stored")

    def __str__(self) -> str:
        return f"t^{self.a}*W^{self.l}"


class OneDimAlgebra:
    __slots__ = ("generators",)

    def __init__(self, generators: Sequence[OneDimGenerator]):
        self.generators: Tuple[OneDimGenerator, ...] = tuple(generators)

    @staticmethod
    def from_pairs(pairs) -> "OneDimAlgebra":
        gens = []
        for a, l in pairs:
            if isinstance(a, int):
                a = ExtOrder.exact(a)
            gens.append(OneDimGenerator(a, l))
        return OneDimAlgebra(gens)

    def is_empty(self) -> bool:
        return not self.generators

    def __str__(self) -> str:
        return "[" + ", ".join(str(g) for g in self.generators) + "]"


def onedim_order_witness(algebra: OneDimAlgebra) -> Tuple[Fraction, int]:
    """Exact order together with the index of the first minimizing generator.

    Raises InsufficientPrecisionError unless every censored exponent is
    dominated (its bound can no longer undercut the exact minimum).  The
    quotients a/l are compared by cross-multiplication.
    """
    best = low = None  # (a, l, i) of the first least exact quotient; (a, l) of the least bound
    for i, g in enumerate(algebra.generators):
        a, l = g.a.value, g.l
        if g.a.is_exact:
            if best is None or a * best[1] < best[0] * l:
                best = a, l, i
        elif low is None or a * low[1] < low[0] * l:
            low = a, l
    if best is None or low is not None and low[0] * best[1] < best[0] * low[1]:
        bound = INFINITE if low is None else ExtOrder.at_least(Fraction(*low))
        bound.expect_exact("one-dimensional algebra order")
    a, l, i = best
    return Fraction(a, l), i


def onedim_transform(algebra: OneDimAlgebra) -> OneDimAlgebra:
    """Blow-up transform at the origin: t^a W^l  ->  t^(a-l) W^l.

    Permissible only when every quotient a/l is >= 1.
    """
    if algebra.is_empty():
        raise ValidationError("cannot transform the empty algebra")
    new = []
    for g in algebra.generators:
        bound = g.a.value
        if bound < g.l:
            if g.a.is_censored:
                raise InsufficientPrecisionError(
                    f"exponent of {g} only known to be >= {bound}, need >= {g.l}"
                )
            raise NotPermissibleError(
                f"not permissible: generator {g} has order {Fraction(bound, g.l)} < 1"
            )
        new.append(OneDimGenerator(g.a.shifted(-g.l), g.l))
    return OneDimAlgebra(new)


def onedim_resolution_steps(algebra: OneDimAlgebra) -> int:
    """Number of transforms until the order drops below 1.

    Equals floor(min_j a_j/l_j); computed by literal iteration.
    """
    if algebra.is_empty():
        raise ValidationError("resolution steps undefined for the empty algebra")
    steps = 0
    current = algebra
    while True:
        censored_low = False
        done = False
        for g in current.generators:
            if g.a.value < g.l:
                if g.a.is_censored:
                    censored_low = True
                else:
                    done = True
        if done:
            return steps
        if censored_low:
            raise InsufficientPrecisionError(
                "resolution step count blocked by a censored exponent; "
                "supply the arc to more terms"
            )
        current = onedim_transform(current)
        steps += 1

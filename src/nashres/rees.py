"""Rees algebras as tuples of weighted generators.

An algebra is a tuple of `ReesGenerator`s f*W^n (polynomial, positive weight)
over one variable list.  The operations here are the ones every invariant in
the toolkit reduces to: differential closure, order at a point, and the
one-dimensional transform model over K[[t]] that computes blow-up counts by
repeated subtraction.  `_tschirnhausen_split` is the one reader of the
Tschirnhausen form, for `diff_closure` and `presentation.tschirnhausen_normalize`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple

from .errors import InsufficientPrecisionError, ValidationError
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


def _tschirnhausen_split(f: MultiPoly, var: str, b: int) -> Optional[Dict[int, MultiPoly]]:
    """{i: B_i} when f = lead * (var^b + sum_{i<=b-2} B_i var^i) for a
    constant lead and b >= 2; None otherwise.  The B_i keep f's variables."""
    if b < 2 or f.degree_in(var) != b:
        return None
    coeffs = f.coefficients_in(var)
    lead = coeffs.pop(b)
    if lead.total_degree() != 0 or b - 1 in coeffs:
        return None
    c = lead.leading_coefficient()
    if c == 1:
        return coeffs
    return {i: g.scale(1 / c) for i, g in coeffs.items()}


def diff_closure(generators: Sequence[ReesGenerator]) -> Tuple[ReesGenerator, ...]:
    """Close under weighted differential operators.

    Plain generators contribute all iterated partial derivatives with the
    weight dropped accordingly.  A generator that is (a constant multiple of)
    a Tschirnhausen polynomial x^b + sum B_i x^i of degree b equal to its
    weight is replaced by x*W and the coefficient generators B_i*W^(b-i),
    which generate the same closure with a smaller set.  Idempotent, and no
    two results share a `dedup_key`: each is the key it was visited under.
    """
    out: list[ReesGenerator] = []
    visited = set()
    queue = deque((g.f, g.weight, True) for g in generators)
    while queue:
        f, n, original = queue.popleft()
        key = (f.monic_normalized(), n)
        if key in visited:
            continue
        visited.add(key)
        for var in f.vars:
            coeffs = _tschirnhausen_split(f, var, n)
            if coeffs is not None:
                queue.appendleft((MultiPoly.variable(f.vars, var), 1, False))
                for i in sorted(coeffs, reverse=True):
                    queue.append((coeffs[i], n - i, False))
                break
        else:
            out.append(ReesGenerator(f if original else f.monic_normalized(), n))
            if n >= 2:
                for var in f.vars:
                    d = f.derive(var)
                    if not d.is_zero():
                        queue.append((d, n - 1, False))
    return tuple(out)


def algebra_order_at(generators: Sequence[ReesGenerator], point: Sequence) -> ExtOrder:
    """min over generators of ord_p(f)/weight; infinite for no generators."""
    return ext_min(g.f.order_at(point).divided_by(g.weight) for g in generators)


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


def onedim_order_witness(algebra: Sequence[OneDimGenerator]) -> Tuple[Fraction, int]:
    """Exact order together with the index of the first generator whose
    exact quotient a/l attains it.

    Raises InsufficientPrecisionError unless every censored exponent is
    dominated (its bound can no longer undercut the exact minimum).  A
    censored generator whose bound ties the minimum is passed over, so the
    witness can move when the arc is refined: along A_7's generic arc at
    alpha 2 it is z^8*W^2 at precision 8 and x*W^1 at 16.  The quotients
    a/l are compared by cross-multiplication.
    """
    best = low = None  # (a, l, i) of the first least exact quotient; (a, l) of the least bound
    for i, g in enumerate(algebra):
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


def onedim_resolution_steps(algebra: Sequence[OneDimGenerator]) -> int:
    """Number of transforms t^a W^l -> t^(a-l) W^l until the order drops below 1.

    Equals floor(min_j a_j/l_j); computed by literal iteration on the
    exponents, each generator read once as (a, censored, l).  A censored
    exponent below its weight, with no exact one below its own, raises
    InsufficientPrecisionError.
    """
    if not algebra:
        raise ValidationError("resolution steps undefined for the empty algebra")
    exponents = [(g.a.value, g.a.is_censored, g.l) for g in algebra]
    steps = 0
    while True:
        low = [censored for a, censored, l in exponents if a < l]
        if low:
            if not all(low):
                return steps
            raise InsufficientPrecisionError(
                "resolution step count blocked by a censored exponent; "
                "supply the arc to more terms"
            )
        exponents = [(a - l, censored, l) for a, censored, l in exponents]
        steps += 1

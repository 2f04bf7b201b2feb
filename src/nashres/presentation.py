"""Tschirnhausen hypersurfaces, local presentations, and elimination algebras.

A presentation is a separated-variable system: one monic equation per
distinguished variable x_i, with coefficients in the shared base variables.
The elimination algebra of each hypersurface lives on the base alone and its
order, minimized over the hypersurfaces, is the resolution invariant every
arc computation in this package is compared against.  The B_i are read by
`rees._tschirnhausen_split`, and `LocalPresentation` alone checks the base
count d and that the distinguished variables differ.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Sequence, Tuple

from .errors import (
    DimensionMismatchError,
    IdentityViolationError,
    NotCenteredError,
    ValidationError,
)
from .extorder import ExtOrder, ext_min
from .poly import MultiPoly, fraction_text
from .rees import ReesGenerator, _tschirnhausen_split, diff_closure


@dataclass(frozen=True)
class TschirnhausenHypersurface:
    """x^b + B_{b-2} x^{b-2} + ... + B_0 with B_i over the base variables.

    Derived objects are cached on the instance: it is immutable, so each is
    computed once and lives exactly as long as the hypersurface.
    """

    var: str
    b: int
    base_vars: Tuple[str, ...]
    coeffs: Tuple[MultiPoly, ...]  # B_0 .. B_{b-2}

    def __post_init__(self):
        if self.b < 2:
            raise ValidationError(f"multiplicity must be >= 2, got {self.b}")
        if len(self.coeffs) != self.b - 1:
            raise ValidationError(
                f"expected {self.b - 1} coefficients B_0..B_{self.b - 2}, got {len(self.coeffs)}"
            )
        if self.var in self.base_vars:
            raise ValidationError(f"distinguished variable {self.var!r} also a base variable")
        for i, B in enumerate(self.coeffs):
            if B.vars != self.base_vars:
                raise DimensionMismatchError(
                    f"B_{i} over {B.vars}, expected base variables {self.base_vars}"
                )
            o = B.order_at_origin()
            if not o.is_infinite and o.value < self.b - i:
                raise NotCenteredError(
                    f"not centered at origin: ord(B_{i}) = {o.value} < {self.b - i}"
                )

    @property
    def ambient_vars(self) -> Tuple[str, ...]:
        return (self.var,) + self.base_vars

    @cached_property
    def polynomial(self) -> MultiPoly:
        """The defining equation over (var, base variables): x^b over the lcm
        of the B_i denominators, and each B_i's numerators at (i,) + e.  Each
        B_i is canonical, so the sum is too (no gcd is needed)."""
        den = lcm(*(B.den for B in self.coeffs))
        nums = {(self.b,) + (0,) * len(self.base_vars): den}
        for i, B in enumerate(self.coeffs):
            scale = den // B.den
            for e, c in B.nums.items():
                nums[(i,) + e] = c * scale
        return MultiPoly._raw(self.ambient_vars, nums, den)

    @cached_property
    def elimination_algebra(self) -> Tuple[ReesGenerator, ...]:
        return elimination_algebra(self)


def tschirnhausen_normalize(f: MultiPoly, var: str) -> TschirnhausenHypersurface:
    """Bring an equation into Tschirnhausen form by x -> x - D_{b-1}/(b lead).

    Accepts a constant leading coefficient, kills the degree b-1 term, reads
    the B_i through `rees._tschirnhausen_split` (which divides by the lead)
    and checks the centering bounds; base variables are everything else in
    f's variable list.
    """
    b = f.degree_in(var)
    if b < 2:
        raise ValidationError(f"degree in {var!r} is {b}, need >= 2")
    coeffs = f.coefficients_in(var)
    lead = coeffs[b]
    if lead.total_degree() != 0:
        raise ValidationError(f"equation is not monic in {var!r}: leading coefficient {lead}")
    d_top = coeffs.get(b - 1)
    if d_top is not None:
        x = MultiPoly.variable(f.vars, var)
        f = f.substitute(var, x - d_top.scale(Fraction(1, b) / lead.leading_coefficient()))
    split = _tschirnhausen_split(f, var, b)
    if split is None:
        raise IdentityViolationError(
            f"Tschirnhausen normalization in {var!r}: the shift left a {var}^{b - 1} term in {f}"
        )
    base_vars = tuple(v for v in f.vars if v != var)
    zero = MultiPoly.zero(f.vars)
    bs = tuple(split.get(i, zero).restrict_vars(base_vars) for i in range(b - 1))
    return TschirnhausenHypersurface(var, b, base_vars, bs)


def elimination_algebra(h: TschirnhausenHypersurface) -> Tuple[ReesGenerator, ...]:
    """Differential closure of the coefficient generators B_i W^(b-i).

    A diff-closed Rees algebra over the base variables; read it through the
    cached `h.elimination_algebra`.
    """
    gens = [
        ReesGenerator(B.monic_normalized(), h.b - i)
        for i, B in enumerate(h.coeffs)
        if not B.is_zero()
    ]
    return diff_closure(gens)


def elimination_order(h: TschirnhausenHypersurface) -> ExtOrder:
    """Closed form min_i ord(B_i)/(b-i); infinite when every B_i vanishes.

    Always >= 1 by centering; derivatives in the closure never achieve a
    smaller quotient, so the closed form equals the algebra order.
    """
    quotients = []
    for i, B in enumerate(h.coeffs):
        o = B.order_at_origin()
        quotients.append(o.divided_by(h.b - i))
    return ext_min(quotients)


@dataclass(frozen=True)
class LocalPresentation:
    """Hypersurfaces over a shared base; the ambient algebra and the
    elimination order are cached."""

    d: int
    hypersurfaces: Tuple[TschirnhausenHypersurface, ...]

    def __post_init__(self):
        if not self.hypersurfaces:
            raise ValidationError("a presentation needs at least one hypersurface")
        base = self.hypersurfaces[0].base_vars
        if len(base) != self.d:
            raise ValidationError(f"equations mention base variables {base}, but d = {self.d}")
        names = [h.var for h in self.hypersurfaces]
        if len(set(names)) != len(names):
            raise ValidationError(f"distinguished variables not pairwise distinct: {names}")
        for h in self.hypersurfaces:
            if h.base_vars != base:
                raise DimensionMismatchError(
                    f"hypersurfaces disagree on base variables: {h.base_vars} vs {base}"
                )

    @property
    def base_vars(self) -> Tuple[str, ...]:
        return self.hypersurfaces[0].base_vars

    @property
    def ambient_vars(self) -> Tuple[str, ...]:
        return tuple(h.var for h in self.hypersurfaces) + self.base_vars

    @cached_property
    def ambient_algebra(self) -> Tuple[ReesGenerator, ...]:
        return ambient_algebra(self)

    @cached_property
    def elimination_order(self) -> ExtOrder:
        """Hironaka's order in base dimension: min over hypersurfaces."""
        return ext_min(elimination_order(h) for h in self.hypersurfaces)


def ambient_algebra(p: LocalPresentation) -> Tuple[ReesGenerator, ...]:
    """Diff-closed algebra representing the top multiplicity stratum.

    Generated by x_i W for every distinguished variable together with all
    elimination generators, everything extended to the joint ambient ring.
    Two hypersurfaces can share an elimination generator: the first copy of
    each `dedup_key` is kept, in order.  Read it through the cached
    `p.ambient_algebra`.
    """
    ambient = p.ambient_vars
    gens = [ReesGenerator(MultiPoly.variable(ambient, h.var), 1) for h in p.hypersurfaces]
    gens += [
        ReesGenerator(g.f.extend_vars(ambient), g.weight)
        for h in p.hypersurfaces for g in h.elimination_algebra
    ]
    first = {}
    for g in gens:
        first.setdefault(g.dedup_key(), g)
    return tuple(first.values())


def hypersurface_multiplicity_at(h: TschirnhausenHypersurface, point: Sequence) -> int:
    """Multiplicity of the hypersurface at a rational point on it."""
    f = h.polynomial
    if f.eval_at(point) != 0:
        at = ", ".join(map(fraction_text, point))
        raise ValidationError(f"point not on hypersurface: f({at}) != 0")
    return f.order_at(point).value

"""Arcs on a presentation and the contact invariants r, r-bar, rho, rho-bar.

An arc is a tuple of power series through the origin, one per ambient
variable.  Validation substitutes the arc into every defining equation and
records the precision below which each vanishes on the arc, None when it
vanishes exactly.  The order of contact r is the order of the
one-dimensional algebra obtained by pushing the full diff-closed ambient
algebra through the arc; rho is its integral part.

Validation composes every defining equation in full, which certifies that
the arc lies on the variety, and keeps the order of the arc's image through
every elimination generator, read from leading terms by `image_order`: r
uses nothing else of an image.  The ambient algebra is x_i*W plus the
elimination generators, so its image, read for r, is the x-coordinate
orders plus those orders.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import floor
from typing import Dict, Mapping, Optional, Sequence, Tuple

from .errors import (
    DimensionMismatchError,
    InsufficientPrecisionError,
    MaxMultArcError,
    NotOnVarietyError,
    ValidationError,
)
from .extorder import ExtOrder, ext_min
from .poly import MultiPoly
from .presentation import LocalPresentation
from .rees import OneDimGenerator, ReesGenerator, onedim_order_witness
from .series import PowerSeries, image_order, poly_compose_series


class Arc:
    """Power-series coordinates through the origin, one per variable."""

    __slots__ = ("coords",)

    def __init__(self, coords: Mapping[str, PowerSeries]):
        if not coords:
            raise ValidationError("an arc needs at least one coordinate")
        for name, s in coords.items():
            o = s.order()
            if o.is_exact and o.value == 0:
                raise ValidationError(
                    f"arc not through the origin: coordinate {name!r} has nonzero constant term"
                )
            if o.is_censored and o.value == 0:
                raise InsufficientPrecisionError(
                    f"coordinate {name!r} has precision 0; nothing is known about it"
                )
        if all(s.is_exactly_zero() for s in coords.values()):
            raise ValidationError("the zero tuple is not an arc")
        self.coords: Dict[str, PowerSeries] = dict(coords)

    @property
    def precision(self) -> int | None:
        precs = [s.precision for s in self.coords.values() if s.precision is not None]
        return min(precs) if precs else None

    def order(self) -> ExtOrder:
        return ext_min(s.order() for s in self.coords.values())

    def restrict(self, variables) -> "Arc":
        missing = [v for v in variables if v not in self.coords]
        if missing:
            raise DimensionMismatchError(f"arc missing coordinates {missing}")
        return Arc({v: self.coords[v] for v in variables})

    def reparametrize(self, e: int) -> "Arc":
        return Arc({v: s.reparametrize(e) for v, s in self.coords.items()})

    def scale_parameter(self, c) -> "Arc":
        return Arc({v: s.scale_parameter(c) for v, s in self.coords.items()})

    def substitute_parameter(self, inner: PowerSeries) -> "Arc":
        """Compose every coordinate with a parameter series of order 1.

        Sends valid arcs to valid arcs: substitution commutes with evaluating
        the defining equations.
        """
        return Arc({v: s.compose(inner) for v, s in self.coords.items()})

    def __str__(self) -> str:
        inner = ", ".join(f"{v}={s}" for v, s in sorted(self.coords.items()))
        return f"({inner})"


def arc_order(a: Arc) -> int:
    """Smallest order among the coordinates; refuses censored answers."""
    return a.order().expect_exact("arc order")


@dataclass(frozen=True)
class ValidatedArc:
    arc: Arc
    presentation: LocalPresentation
    # per hypersurface variable: the precision below which its equation vanishes, None if exactly
    vanishing: Dict[str, Optional[int]]
    # per hypersurface variable: its elimination generators of finite image order
    elimination_images: Dict[str, Tuple[Tuple[OneDimGenerator, ReesGenerator], ...]]

    @property
    def in_max_mult(self) -> bool:  # every elimination image is exactly zero
        return not any(self.elimination_images.values())

    @cached_property
    def contact(self) -> "ContactResult":
        """contact_order(self), computed once per validated arc."""
        return contact_order(self)


def validate_arc(a: Arc, p: LocalPresentation) -> ValidatedArc:
    """Check the arc lies on every hypersurface and classify its contact.

    Rejects any nonzero coefficient in an image phi(f_i) and keeps the image
    of every elimination generator; censored-only images raise instead of
    guessing whether the arc lies in the top multiplicity stratum.
    """
    arc = a.restrict(p.ambient_vars)
    vanishing, images = {}, {}
    for h in p.hypersurfaces:
        image = poly_compose_series(h.polynomial, arc.coords)
        if not image.is_zero_to_precision():
            raise NotOnVarietyError(
                f"arc not on variety: phi({h.var}-equation) = {image}"
            )
        vanishing[h.var] = image.precision
        images[h.var] = _generator_images(arc, h.base_vars, h.elimination_algebra)
    exact = [img.a.is_exact for pairs in images.values() for img, _ in pairs]
    if exact and not any(exact):
        raise InsufficientPrecisionError(
            "cannot decide containment in the top multiplicity stratum: "
            "every elimination image is zero to precision but not exactly"
        )
    return ValidatedArc(arc, p, vanishing, images)


def _generator_images(
    a: Arc, variables: Sequence[str], generators: Sequence[ReesGenerator]
) -> Tuple[Tuple[OneDimGenerator, ReesGenerator], ...]:
    """(image, generator) for each generator over `variables` pushed through
    an arc with a coordinate for each of them.

    The image is the order of the image series with the generator's weight,
    read by `image_order` from the arc's leading terms.  Exact-zero images
    contribute no finite generator and are dropped; censored orders are
    preserved as censored exponents.
    """
    forms = [a.coords[v] for v in variables]
    pairs = []
    for g in generators:
        o = image_order(g.f.nums, g.f.den, forms)
        if not o.is_infinite:
            pairs.append((OneDimGenerator(o, g.weight), g))
    return tuple(pairs)


def image_of_algebra(a: Arc, generators: Sequence[ReesGenerator]) -> Tuple[OneDimGenerator, ...]:
    """Push each generator through the arc: orders of the image series, over
    the first generator's variables; () for no generators."""
    if not generators:
        return ()
    variables = generators[0].f.vars
    return tuple(img for img, _ in _generator_images(a.restrict(variables), variables, generators))


@dataclass(frozen=True)
class ContactResult:
    r: Fraction
    r_bar: Fraction
    rho: int
    rho_bar: Fraction
    arc_order: int
    witness: str
    image: Tuple[OneDimGenerator, ...] = field(compare=False, repr=False)  # ambient algebra through the arc


def contact_order(va: ValidatedArc) -> ContactResult:
    """The contact invariants of the arc with the top multiplicity stratum, read
    in the ambient generators' order: x-coordinates, then elimination images."""
    if va.in_max_mult:
        raise MaxMultArcError(
            "arc inside Max mult: the Nash multiplicity sequence never drops"
        )
    pairs = []
    for h in va.presentation.hypersurfaces:
        o = va.arc.coords[h.var].order()
        if not o.is_infinite:
            x = ReesGenerator(MultiPoly.variable(va.presentation.ambient_vars, h.var), 1)
            pairs.append((OneDimGenerator(o, 1), x))
    for group in va.elimination_images.values():
        pairs.extend(group)
    image = tuple(img for img, _ in pairs)
    r, idx = onedim_order_witness(image)
    order = arc_order(va.arc)
    rho = floor(r)
    return ContactResult(
        r=r,
        r_bar=r / order,
        rho=rho,
        rho_bar=Fraction(rho, order),
        arc_order=order,
        witness=str(pairs[idx][1]),
        image=image,
    )


def contact_order_without_x(va: ValidatedArc) -> Fraction:
    """r computed from the elimination images alone.

    The x-coordinate images can never undercut the elimination part for an
    arc on the variety, so this must agree with contact_order(...).r.
    """
    if va.in_max_mult:
        raise MaxMultArcError("arc inside Max mult")
    r, _ = onedim_order_witness([img for group in va.elimination_images.values() for img, _ in group])
    return r

"""Extended order values: exact, censored-from-below, or infinite.

Orders of polynomials are always exact; orders of truncated power series may
only be known to exceed the precision bound, and the literal zero object has
infinite order.  ``ExtOrder`` keeps these three cases apart so that no
computation ever mistakes a truncation artifact for an exact value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

from .errors import InsufficientPrecisionError

Number = Union[int, Fraction]

_EXACT = "exact"
_ATLEAST = "atleast"
_INFINITE = "infinite"


@dataclass(frozen=True)
class ExtOrder:
    kind: str
    value: Number | None = None

    @staticmethod
    def exact(value: Number) -> "ExtOrder":
        return ExtOrder(_EXACT, value)

    @staticmethod
    def at_least(value: Number) -> "ExtOrder":
        return ExtOrder(_ATLEAST, value)

    @property
    def is_exact(self) -> bool:
        return self.kind == _EXACT

    @property
    def is_censored(self) -> bool:
        return self.kind == _ATLEAST

    @property
    def is_infinite(self) -> bool:
        return self.kind == _INFINITE

    def expect_exact(self, context: str = "order") -> Number:
        """Return the exact value, refusing to guess through censoring."""
        if self.is_exact:
            return self.value
        if self.is_censored:
            raise InsufficientPrecisionError(
                f"{context} is only known to be >= {self.value}; "
                "supply more coefficients"
            )
        raise InsufficientPrecisionError(f"{context} is infinite")

    def divided_by(self, weight: int) -> "ExtOrder":
        if self.is_infinite:
            return self
        return ExtOrder(self.kind, Fraction(self.value, weight))

    def __str__(self) -> str:
        if self.is_infinite:
            return "infinite"
        if self.is_censored:
            return f">={self.value}"
        return str(self.value)


INFINITE = ExtOrder(_INFINITE, None)


def ext_min(orders: Iterable[ExtOrder]) -> ExtOrder:
    """Minimum of extended orders, honest about censoring.

    Returns Exact(m) only when some input is exactly m and every censored
    input has lower bound >= m (its true value cannot undercut the minimum).
    Otherwise returns AtLeast(best common lower bound), or INFINITE when all
    inputs are infinite.
    """
    exacts: list[Number] = []
    bounds: list[Number] = []
    for o in orders:
        if o.is_exact:
            exacts.append(o.value)
        elif o.is_censored:
            bounds.append(o.value)
    if not exacts and not bounds:
        return INFINITE
    if exacts:
        m = min(exacts)
        if all(b >= m for b in bounds):
            return ExtOrder.exact(m)
        return ExtOrder.at_least(min(bounds))
    return ExtOrder.at_least(min(bounds))

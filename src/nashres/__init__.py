"""Exact arc-based resolution invariants for algebraic varieties.

Computes, in exact rational arithmetic: Tschirnhausen normal forms and
elimination algebras of local presentations, orders of contact of arcs with
the top multiplicity stratum, Nash multiplicity sequences by directed blow-up
simulation, and diagonal-generic arcs realizing the minimal normalized
contact order.  The `verify` harness machine-checks the identities tying
these quantities together.
"""

from .arcs import (
    Arc,
    ContactResult,
    ValidatedArc,
    arc_order,
    contact_order,
    contact_order_without_x,
    image_of_algebra,
    validate_arc,
)
from .errors import (
    ExtensionRequiredError,
    IdentityViolationError,
    InsufficientPrecisionError,
    MaxMultArcError,
    NashresError,
    NotCenteredError,
    NotOnVarietyError,
    NotPermissibleError,
    ParseError,
    ValidationError,
)
from .extorder import INFINITE, ExtOrder, ext_min
from .generic import (
    DiagonalArc,
    GenericArcResult,
    build_diagonal_arc,
    construct_generic_arc,
    lift_monomial_base,
    lift_to_presentation,
)
from .nash import (
    NashSequence,
    NashState,
    nash_sequence_equation,
    nash_sequence_presentation,
    nash_step,
)
from .parsing import (
    arc_to_document,
    load_presentation,
    parse_arc,
    parse_poly,
    presentation_to_document,
)
from .poly import MultiPoly
from .presentation import (
    LocalPresentation,
    TschirnhausenHypersurface,
    ambient_algebra,
    elimination_algebra,
    elimination_order,
    hypersurface_multiplicity_at,
    tschirnhausen_normalize,
)
from .rees import (
    OneDimGenerator,
    ReesGenerator,
    algebra_order_at,
    diff_closure,
    onedim_resolution_steps,
    onedim_transform,
)
from .series import PowerSeries, poly_compose_series

__version__ = "0.1.0"

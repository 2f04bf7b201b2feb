"""Command line front end and the main-theorem verification harness.

Subcommands: mult, tsch, elim, contact, nash, generic-arc, verify.  Reports
are plain text or JSON (--json); every rational is serialized as an exact
fraction string, and a fixed --seed replays the same report (timing aside).

Exit codes: 0 pass, 2 parse/validation error, 3 insufficient precision,
4 extension required, 5 identity violation.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
import time
from fractions import Fraction
from math import floor
from typing import Dict, List, Optional, Tuple

from .arcs import Arc, ContactResult, ValidatedArc, contact_order_without_x, validate_arc
from .errors import (
    ExtensionRequiredError,
    IdentityViolationError,
    MaxMultArcError,
    NashresError,
)
from .generic import (
    GenericArcResult,
    admissible_unit_tuples,
    arc_base_exponent,
    construct_generic_arc,
    lift_monomial_base,
)
from .nash import nash_sequence_presentation
from .parsing import (
    arc_to_document,
    load_presentation,
    parse_arc,
    parse_poly,
    presentation_to_document,
)
from .poly import fraction_text
from .presentation import (
    LocalPresentation,
    elimination_order,
    hypersurface_multiplicity_at,
    max_mult_contains,
    presentation_elimination_order,
)
from .rees import algebra_order_at, onedim_resolution_steps
from .series import PowerSeries


def _check(name: str, passed: bool, witness=None) -> dict:
    entry = {"name": name, "status": "pass" if passed else "fail"}
    entry["witness"] = witness if witness is not None else ""
    return entry


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as err:
        raise NashresError(f"cannot read {path}: {err}") from None
    except json.JSONDecodeError as err:
        raise NashresError(f"{path} is not valid JSON: {err}") from None


def _origin(n: int) -> Tuple[Fraction, ...]:
    return (Fraction(0),) * n


def _parse_point(text: str, width: int) -> Tuple[Fraction, ...]:
    """Comma-separated constants of the polynomial grammar, within its limits."""
    parts = text.split(",")
    if len(parts) != width:
        raise NashresError(f"point needs {width} coordinates, got {len(parts)}")
    constants = [parse_poly(p, ()) for p in parts]
    return tuple(Fraction(c.nums.get((), 0), c.den) for c in constants)


# -- subcommand handlers -----------------------------------------------------


def _cmd_mult(args, p: LocalPresentation, report: dict) -> List[dict]:
    point = (
        _origin(len(p.ambient_vars))
        if args.point is None
        else _parse_point(args.point, len(p.ambient_vars))
    )
    coord = dict(zip(p.ambient_vars, point))
    rows = []
    for h in p.hypersurfaces:
        sub = [coord[v] for v in h.ambient_vars]
        rows.append(
            {
                "var": h.var,
                "multiplicity": hypersurface_multiplicity_at(h, sub),
                "b": h.b,
            }
        )
    report["inputs"]["point"] = [fraction_text(c) for c in point]
    report["results"]["hypersurfaces"] = rows
    report["results"]["in_max_mult"] = max_mult_contains(p, point)
    return []


def _cmd_tsch(args, p: LocalPresentation, report: dict) -> List[dict]:
    rows = []
    for h in p.hypersurfaces:
        rows.append(
            {
                "var": h.var,
                "b": h.b,
                "f": str(h.polynomial),
                "coefficients": {f"B_{i}": str(B) for i, B in enumerate(h.coeffs)},
            }
        )
    report["results"]["hypersurfaces"] = rows
    checks = [
        _check(
            "no_subprincipal_term",
            all(h.polynomial.coefficients_in(h.var).get(h.b - 1) is None
                for h in p.hypersurfaces),
        )
    ]
    return checks


def _cmd_elim(args, p: LocalPresentation, report: dict) -> List[dict]:
    rows = []
    for h in p.hypersurfaces:
        rows.append(
            {
                "var": h.var,
                "generators": [str(g) for g in h.elimination_algebra.generators],
                "order": str(elimination_order(h)),
            }
        )
    report["results"]["hypersurfaces"] = rows
    report["results"]["presentation_order"] = str(presentation_elimination_order(p))
    amb = p.ambient_algebra
    amb_order = algebra_order_at(amb, _origin(len(p.ambient_vars)))
    report["results"]["ambient_order_at_origin"] = str(amb_order)
    return [
        _check(
            "ambient_order_is_one",
            amb_order.is_exact and amb_order.value == 1,
            witness=str(amb),
        )
    ]


def _cmd_contact(args, p: LocalPresentation, report: dict) -> List[dict]:
    arc = parse_arc(_load_json(args.arc))
    report["inputs"]["arc"] = arc_to_document(arc)
    va = validate_arc(arc, p)
    result = va.contact
    report["results"]["certificates"] = {
        var: str(cert) for var, cert in va.certificates
    }
    report["results"].update(
        {
            "r": fraction_text(result.r),
            "r_bar": fraction_text(result.r_bar),
            "rho": result.rho,
            "rho_bar": fraction_text(result.rho_bar),
            "arc_order": result.arc_order,
            "witness": result.witness,
        }
    )
    ord_d = presentation_elimination_order(p).expect_exact("elimination order")
    without_x = contact_order_without_x(va)
    return [
        _check("rho_is_floor_r", result.rho == floor(result.r)),
        _check(
            "r_bar_at_least_elimination_order",
            result.r_bar >= ord_d,
            witness=f"r_bar = {result.r_bar}, order = {ord_d}",
        ),
        _check(
            "x_generators_do_not_matter",
            without_x == result.r,
            witness=f"without x: {without_x}, full: {result.r}",
        ),
    ]


def _cmd_nash(args, p: LocalPresentation, report: dict) -> List[dict]:
    arc = parse_arc(_load_json(args.arc))
    report["inputs"]["arc"] = arc_to_document(arc)
    va = validate_arc(arc, p)
    result = va.contact
    summary = nash_sequence_presentation(p, va, trace=args.trace)
    rows = []
    for var, seq in summary.per_hypersurface:
        if seq is None:
            rows.append({"var": var, "drops": False})
            continue
        row = {
            "var": var,
            "drops": True,
            "multiplicities": list(seq.multiplicities),
            "rho": seq.rho,
            "centers": [[fraction_text(c) for c in center] for center in seq.centers],
            "precision_consumed": seq.rho,
        }
        if seq.equations is not None:
            row["equations"] = list(seq.equations)
        rows.append(row)
    report["results"]["hypersurfaces"] = rows
    report["results"]["rho"] = summary.rho
    report["results"]["r"] = fraction_text(result.r)
    return [_check("geometric_rho_is_floor_r", summary.rho == result.rho)]


def _cmd_generic_arc(args, p: LocalPresentation, report: dict) -> List[dict]:
    result = construct_generic_arc(
        p, alpha=args.alpha, search_bound=args.search_bound, precision=args.precision
    )
    c = result.arc.contact
    order = presentation_elimination_order(p).expect_exact("elimination order")
    n = arc_base_exponent(result.arc)
    report["results"].update(
        {
            "arc": arc_to_document(result.arc.arc),
            "units": [fraction_text(u) for u in result.base.units],
            "alpha": result.base.alpha,
            "ramification": result.ramification,
            "units_tried": result.units_tried,
            "r_bar": fraction_text(c.r_bar),
            "elimination_order": fraction_text(order),
            "witness": c.witness,
            "arc_order": c.arc_order,
        }
    )
    return [
        _check("attains_elimination_order", c.r_bar == order, witness=f"r_bar = {c.r_bar}"),
        _check(
            "arc_order_equals_base_exponent",
            c.arc_order == n,
            witness=f"order {c.arc_order}, base exponent {n}",
        ),
    ]


# -- the verify harness ---------------------------------------------------------

_SCALES = (
    Fraction(1),
    Fraction(-1),
    Fraction(2),
    Fraction(-2),
    Fraction(3),
    Fraction(1, 2),
    Fraction(-1, 2),
)


def _arc_key(arc: Arc) -> tuple:
    """The arc's content: equal keys mean equal coordinates and precisions."""
    return tuple(sorted(arc.coords.items()))


def _validated(arc: Arc, p: LocalPresentation, arcs: Dict[tuple, ValidatedArc]) -> ValidatedArc:
    """validate_arc(arc, p), run once per distinct arc in `arcs`."""
    key = _arc_key(arc)
    va = arcs.get(key)
    if va is None:
        va = arcs[key] = validate_arc(arc, p)
    return va


def _sample_arcs(
    p: LocalPresentation,
    generic: GenericArcResult,
    trials: int,
    rng: random.Random,
    precision: int,
    search_bound: int,
    arcs: Dict[tuple, ValidatedArc],
) -> List[Tuple[str, ValidatedArc]]:
    """Deterministic corpus of valid arcs: transformations of the generic
    branch plus fresh lifts over other admissible diagonal bases.

    The same arc is often drawn more than once.  A repeat reuses the first
    draw's ValidatedArc object: `arcs` maps each arc's content to it, and a
    dict local to the call maps each (units, exponents) to its lift, or to
    None when the lift needed an algebraic extension, starting from the
    generic-arc search's lifts.  Nothing outlives the caller's verify run,
    and the draws are the same, in the same order, whether or not one repeats.
    """
    algebras = [h.elimination_algebra for h in p.hypersurfaces]
    admissible: List[Tuple[int, ...]] = []
    for u in admissible_unit_tuples(algebras, p.d, search_bound):
        admissible.append(u)
        if len(admissible) >= 6:
            break
    samples: List[Tuple[str, ValidatedArc]] = []
    diagonal = (generic.base.alpha,) * len(p.base_vars)
    lifts: Dict[tuple, Optional[ValidatedArc]] = {(u, diagonal): None for u in generic.failed_units}
    lifts[generic.base.units, diagonal] = generic.arc
    for k in range(trials):
        kind = rng.choice(("reparam", "scale", "deform", "fresh", "skew", "reparam_scale"))
        va: Optional[ValidatedArc]
        if kind in ("fresh", "skew"):
            if kind == "fresh":
                alpha = rng.randint(1, 3)
                u = admissible[rng.randrange(len(admissible))]
                exponents = (alpha,) * len(p.base_vars)
            else:
                # independent base exponents: valid but usually non-generic arcs
                u = admissible[rng.randrange(len(admissible))]
                exponents = tuple(rng.randint(1, 3) for _ in p.base_vars)
            key = (u, exponents)
            if key not in lifts:
                try:
                    lifted = lift_monomial_base(p, u, exponents, precision)
                except ExtensionRequiredError:
                    lifts[key] = None
                else:
                    lifts[key] = arcs.setdefault(_arc_key(lifted.arc), lifted)
            va = lifts[key]
            if va is None:  # fall back to a reparametrized generic branch
                va = _validated(generic.arc.arc.reparametrize(rng.randint(2, 3)), p, arcs)
        else:
            arc = generic.arc.arc
            if kind in ("reparam", "reparam_scale"):
                arc = arc.reparametrize(rng.randint(2, 3))
            if kind in ("scale", "reparam_scale"):
                arc = arc.scale_parameter(rng.choice(_SCALES))
            if kind == "deform":
                c = rng.choice(_SCALES)
                tau = PowerSeries((0, 1, c))  # t + c*t^2
                arc = arc.substitute_parameter(tau)
            va = _validated(arc, p, arcs)
        samples.append((f"trial-{k}", va))
    return samples


def _every_sample(name: str, sampled: List[Tuple[ContactResult, dict]], holds) -> dict:
    """The check that holds(contact, row) on every sample; its witness is
    the arc of the first sample where it fails."""
    failing = next((row for c, row in sampled if not holds(c, row)), None)
    witness = "" if failing is None else json.dumps(failing["arc"], sort_keys=True)
    return _check(name, failing is None, witness=witness)


def verify_main_theorem(
    p: LocalPresentation,
    trials: int = 20,
    seed: int = 0,
    alpha: int = 1,
    search_bound: int = 8,
    precision: int = 64,
) -> Tuple[dict, List[dict]]:
    """Machine-check the arc characterization of the elimination order.

    Returns (results, checks).  Checks cover: the constructed arc attains the
    order; every sampled arc respects the lower bound; rho agrees with
    floor(r) by closed form, one-dimensional iteration, and the geometric
    simulation; the reparametrized arc attains rho-bar; and the chain
    r_bar >= rho_bar >= floor(order) holds throughout.

    Within one call every distinct arc is validated once, and its
    one-dimensional steps, Nash sequence and arc document are computed once;
    repeated samples reuse them (see _sample_arcs).  The cache lives and dies
    with the call.
    """
    results: dict = {}
    checks: List[dict] = []
    ord_ext = presentation_elimination_order(p)
    if ord_ext.is_infinite:
        raise MaxMultArcError(
            "arc necessarily inside Max mult: the elimination order is infinite"
        )
    ord_d = Fraction(ord_ext.expect_exact("elimination order"))
    results["elimination_order"] = fraction_text(ord_d)

    generic = construct_generic_arc(
        p, alpha=alpha, search_bound=search_bound, precision=precision
    )
    gen_contact = generic.arc.contact
    results["generic_arc"] = arc_to_document(generic.arc.arc)
    results["generic_r_bar"] = fraction_text(gen_contact.r_bar)
    checks.append(
        _check(
            "generic_arc_attains_min",
            gen_contact.r_bar == ord_d,
            witness=json.dumps(results["generic_arc"], sort_keys=True),
        )
    )

    rng = random.Random(seed)
    arcs = {_arc_key(generic.arc.arc): generic.arc}
    samples = _sample_arcs(p, generic, trials, rng, precision, search_bound, arcs)
    # id of each distinct sampled ValidatedArc -> its row without the name
    seen: Dict[int, dict] = {}
    rows, sampled = [], []  # sampled: (contact, row) per sample
    for name, va in samples:
        c = va.contact
        if id(va) not in seen:
            steps = onedim_resolution_steps(c.image)
            try:
                geo_rho: Optional[int] = nash_sequence_presentation(p, va).rho
            except IdentityViolationError:
                geo_rho = None
            seen[id(va)] = {
                "arc": arc_to_document(va.arc),
                "r": fraction_text(c.r),
                "r_bar": fraction_text(c.r_bar),
                "rho": c.rho,
                "rho_bar": fraction_text(c.rho_bar),
                "arc_order": c.arc_order,
                "rho_onedim": steps,
                "rho_geometric": geo_rho,
            }
        sampled.append((c, seen[id(va)]))
        rows.append({"name": name, **seen[id(va)]})
    results["samples"] = rows
    min_rbar = min([gen_contact.r_bar] + [c.r_bar for c, _ in sampled])
    minimizing_rho_bars = [gen_contact.rho_bar] + [c.rho_bar for c, _ in sampled if c.r_bar == ord_d]
    checks += [
        _every_sample("samples_r_bar_lower_bound", sampled, lambda c, row: c.r_bar >= ord_d),
        _every_sample(
            "samples_rho_three_ways",
            sampled,
            lambda c, row: c.rho == floor(c.r) == row["rho_onedim"] == row["rho_geometric"],
        ),
        _every_sample("samples_chain", sampled, lambda c, row: c.r_bar >= c.rho_bar >= floor(ord_d)),
        _check(
            "min_r_bar_attained",
            min_rbar == ord_d,
            witness=f"min r_bar over samples = {min_rbar}, order = {ord_d}",
        ),
    ]

    repar = ord_d.denominator
    attaining = _validated(generic.arc.arc.reparametrize(repar), p, arcs)
    att_contact = attaining.contact
    results["rho_bar_arc"] = arc_to_document(attaining.arc)
    results["rho_bar_attained"] = fraction_text(att_contact.rho_bar)
    checks.append(
        _check(
            "rho_bar_attained_after_reparametrization",
            att_contact.rho_bar == ord_d,
            witness=json.dumps(results["rho_bar_arc"], sort_keys=True),
        )
    )
    if att_contact.r_bar == ord_d:
        minimizing_rho_bars.append(att_contact.rho_bar)
    checks.append(
        _check(
            "minimizing_arcs_max_rho_bar",
            max(minimizing_rho_bars) == ord_d
            and all(rb <= ord_d for rb in minimizing_rho_bars),
            witness=f"rho_bar over minimizing arcs: max = {max(minimizing_rho_bars)}",
        )
    )
    return results, checks


def _cmd_verify(args, p: LocalPresentation, report: dict) -> List[dict]:
    report["inputs"]["trials"] = args.trials
    results, checks = verify_main_theorem(
        p,
        trials=args.trials,
        seed=args.seed,
        alpha=args.alpha,
        search_bound=args.search_bound,
        precision=args.precision,
    )
    report["results"].update(results)
    return checks


# -- driver ------------------------------------------------------------------------

# The largest --precision and --alpha accepted.  Lifting costs grow quickly
# with the precision: generic-arc on x^2 - z^2 - z^3 takes about 0.25 s at
# precision 512 and 2.0 s at 1024 (subprocess wall time, 2-core Intel Xeon
# x86, Python 3.11.7).  An --alpha above it would only build a longer
# diagonal arc that the lift cannot reach.
MAX_PRECISION = 1024


def _int_in(low: int, high: Optional[int] = None):
    """An argparse type: an integer in low..high (no upper end when None)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
        if value < low or (high is not None and value > high):
            bounds = f"at least {low}" if high is None else f"between {low} and {high}"
            raise argparse.ArgumentTypeError(f"must be {bounds}, got {value}")
        return value

    return parse


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nashres",
        description="Exact arc-based resolution invariants for local presentations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, arc_file=False):
        sp.add_argument("presentation", help="presentation JSON file")
        if arc_file:
            sp.add_argument("arc", help="arc JSON file")
        sp.add_argument("--json", action="store_true", help="emit a JSON report")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--precision", type=_int_in(1, MAX_PRECISION), default=64)

    sp = sub.add_parser("mult", help="multiplicities at a rational point")
    common(sp)
    sp.add_argument(
        "--point", help="comma-separated constants of the polynomial grammar, e.g. 3/2,0,5"
    )
    sp.set_defaults(handler=_cmd_mult)

    sp = sub.add_parser("tsch", help="echo the Tschirnhausen normal forms")
    common(sp)
    sp.set_defaults(handler=_cmd_tsch)

    sp = sub.add_parser("elim", help="elimination algebras and their orders")
    common(sp)
    sp.set_defaults(handler=_cmd_elim)

    sp = sub.add_parser("contact", help="order of contact of an arc")
    common(sp, arc_file=True)
    sp.set_defaults(handler=_cmd_contact)

    sp = sub.add_parser("nash", help="directed blow-up sequences of an arc")
    common(sp, arc_file=True)
    sp.add_argument("--trace", action="store_true", help="record per-step transforms")
    sp.set_defaults(handler=_cmd_nash)

    sp = sub.add_parser("generic-arc", help="construct an arc attaining the order")
    common(sp)
    sp.add_argument("--alpha", type=_int_in(1, MAX_PRECISION), default=1)
    sp.add_argument("--search-bound", type=_int_in(1), default=8)
    sp.set_defaults(handler=_cmd_generic_arc)

    sp = sub.add_parser("verify", help="machine-check the arc/order identities")
    common(sp)
    sp.add_argument("--alpha", type=_int_in(1, MAX_PRECISION), default=1)
    sp.add_argument("--search-bound", type=_int_in(1), default=8)
    sp.add_argument("--trials", type=_int_in(0), default=20)
    sp.set_defaults(handler=_cmd_verify)
    return parser


def _emit(report: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return
    print(f"command: {report['command']}")
    for key, value in report["results"].items():
        if key == "samples":
            print(f"  samples: {len(value)}")
            continue
        print(f"  {key}: {value}")
    for check in report["checks"]:
        print(f"check {check['name']}: {check['status']}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    report = {
        "command": args.command,
        "inputs": {
            "defaults": {
                "precision": args.precision,
                "search_bound": getattr(args, "search_bound", 8),
                "seed": args.seed,
            }
        },
        "results": {},
        "checks": [],
        "seed": args.seed,
        "elapsed_ms": 0,
    }
    try:
        p = load_presentation(_load_json(args.presentation))
        report["inputs"]["presentation"] = presentation_to_document(p)
        checks = args.handler(args, p, report)
    except NashresError as err:
        report["results"]["error"] = str(err)
        report["checks"] = [_check("no_errors", False, witness=str(err))]
        report["elapsed_ms"] = int((time.monotonic() - started) * 1000)
        _emit(report, args.json)
        return err.exit_code
    report["checks"] = checks
    report["elapsed_ms"] = int((time.monotonic() - started) * 1000)
    _emit(report, args.json)
    if any(c["status"] == "fail" for c in checks):
        return 5
    return 0


if __name__ == "__main__":
    sys.exit(main())

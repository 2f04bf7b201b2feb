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
from typing import List, Optional, Set, Tuple

from .arcs import ValidatedArc, contact_order_without_x, validate_arc
from .errors import (
    ExtensionRequiredError,
    IdentityViolationError,
    MaxMultArcError,
    NashresError,
)
from .generic import (
    admissible_unit_tuples,
    construct_generic_arc,
    lift_monomial_base,
)
from .nash import nash_sequence_presentation
from .parsing import (
    arc_to_document,
    fraction_text,
    load_presentation,
    parse_arc,
    presentation_to_document,
)
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
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != width:
        raise NashresError(f"point needs {width} coordinates, got {len(parts)}")
    try:
        return tuple(Fraction(p) for p in parts)
    except (ValueError, ZeroDivisionError) as err:
        raise NashresError(f"bad point coordinate: {err}") from None


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
            "precision_consumed": seq.precision_consumed,
        }
        if seq.equations is not None:
            row["equations"] = list(seq.equations)
        rows.append(row)
    report["results"]["hypersurfaces"] = rows
    report["results"]["rho"] = summary.rho
    report["results"]["r"] = fraction_text(summary.contact_r)
    return [_check("geometric_rho_is_floor_r", summary.rho == result.rho)]


def _cmd_generic_arc(args, p: LocalPresentation, report: dict) -> List[dict]:
    result = construct_generic_arc(
        p, alpha=args.alpha, search_bound=args.search_bound, precision=args.precision
    )
    genericity = result.genericity
    report["results"].update(
        {
            "arc": arc_to_document(result.arc.arc),
            "units": [fraction_text(u) for u in result.base.units],
            "alpha": result.base.alpha,
            "ramification": result.ramification,
            "units_tried": result.units_tried,
            "r_bar": fraction_text(genericity.r_bar),
            "elimination_order": fraction_text(genericity.expected_order),
            "witness": genericity.witness,
            "arc_order": genericity.arc_order,
        }
    )
    return [
        _check(
            "attains_elimination_order",
            genericity.generic,
            witness=f"r_bar = {genericity.r_bar}",
        ),
        _check(
            "arc_order_equals_base_exponent",
            genericity.order_matches_base is True,
            witness=f"order {genericity.arc_order}, base exponent {genericity.base_exponent}",
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


def _sample_arcs(
    p: LocalPresentation,
    generic: ValidatedArc,
    trials: int,
    rng: random.Random,
    precision: int,
    search_bound: int,
) -> List[Tuple[str, ValidatedArc]]:
    """Deterministic corpus of valid arcs: transformations of the generic
    branch plus fresh lifts over other admissible diagonal bases."""
    algebras = [h.elimination_algebra for h in p.hypersurfaces]
    admissible: List[Tuple[int, ...]] = []
    for u in admissible_unit_tuples(algebras, p.d, search_bound):
        admissible.append(u)
        if len(admissible) >= 6:
            break
    samples: List[Tuple[str, ValidatedArc]] = []
    # (units, exponents) whose lift needed an algebraic extension; drawing one
    # again falls back at once, with the same random draws as a fresh failure
    failed: Set[Tuple[Tuple[int, ...], Tuple[int, ...]]] = set()
    for k in range(trials):
        kind = rng.choice(("reparam", "scale", "deform", "fresh", "skew", "reparam_scale"))
        try:
            if kind in ("fresh", "skew"):
                if kind == "fresh":
                    alpha = rng.randint(1, 3)
                    u = admissible[rng.randrange(len(admissible))]
                    exponents = (alpha,) * len(p.base_vars)
                else:
                    # independent base exponents: valid but usually non-generic arcs
                    u = admissible[rng.randrange(len(admissible))]
                    exponents = tuple(rng.randint(1, 3) for _ in p.base_vars)
                if (u, exponents) in failed:
                    raise ExtensionRequiredError("lift already failed")
                try:
                    va = lift_monomial_base(p, u, exponents, precision)
                except ExtensionRequiredError:
                    failed.add((u, exponents))
                    raise
            else:
                arc = generic.arc
                if kind in ("reparam", "reparam_scale"):
                    arc = arc.reparametrize(rng.randint(2, 3))
                if kind in ("scale", "reparam_scale"):
                    arc = arc.scale_parameter(rng.choice(_SCALES))
                if kind == "deform":
                    c = rng.choice(_SCALES)
                    tau = PowerSeries((0, 1, c))  # t + c*t^2
                    arc = arc.substitute_parameter(tau)
                va = validate_arc(arc, p)
        except ExtensionRequiredError:
            arc = generic.arc.reparametrize(rng.randint(2, 3))
            va = validate_arc(arc, p)
        samples.append((f"trial-{k}", va))
    return samples


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
    samples = _sample_arcs(p, generic.arc, trials, rng, precision, search_bound)
    rows = []
    lower_bound_ok, lb_witness = True, ""
    rho_ok, rho_witness = True, ""
    chain_ok, chain_witness = True, ""
    min_rbar = gen_contact.r_bar
    minimizing_rho_bars = [gen_contact.rho_bar]
    for name, va in samples:
        c = va.contact
        min_rbar = min(min_rbar, c.r_bar)
        steps = onedim_resolution_steps(c.image)
        try:
            geo = nash_sequence_presentation(p, va)
            geo_rho: Optional[int] = geo.rho
        except IdentityViolationError:
            geo_rho = None
        arc_doc = arc_to_document(va.arc)
        rows.append(
            {
                "name": name,
                "arc": arc_doc,
                "r": fraction_text(c.r),
                "r_bar": fraction_text(c.r_bar),
                "rho": c.rho,
                "rho_bar": fraction_text(c.rho_bar),
                "arc_order": c.arc_order,
                "rho_onedim": steps,
                "rho_geometric": geo_rho,
            }
        )
        doc = json.dumps(arc_doc, sort_keys=True)
        if c.r_bar == ord_d:
            minimizing_rho_bars.append(c.rho_bar)
        if c.r_bar < ord_d and lower_bound_ok:
            lower_bound_ok, lb_witness = False, doc
        if not (c.rho == floor(c.r) == steps == geo_rho) and rho_ok:
            rho_ok, rho_witness = False, doc
        if not (c.r_bar >= c.rho_bar >= floor(ord_d)) and chain_ok:
            chain_ok, chain_witness = False, doc
    results["samples"] = rows
    checks.append(_check("samples_r_bar_lower_bound", lower_bound_ok, witness=lb_witness))
    checks.append(_check("samples_rho_three_ways", rho_ok, witness=rho_witness))
    checks.append(_check("samples_chain", chain_ok, witness=chain_witness))
    checks.append(
        _check(
            "min_r_bar_attained",
            min_rbar == ord_d,
            witness=f"min r_bar over samples = {min_rbar}, order = {ord_d}",
        )
    )

    repar = ord_d.denominator
    attaining = validate_arc(generic.arc.arc.reparametrize(repar), p)
    att_contact = attaining.contact
    results["rho_bar_arc"] = arc_to_document(attaining.arc)
    results["rho_bar_attained"] = fraction_text(att_contact.rho_bar)
    checks.append(
        _check(
            "rho_bar_attained_after_reparametrization",
            att_contact.rho_bar == ord_d,
            witness=json.dumps(arc_to_document(attaining.arc), sort_keys=True),
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

# The largest --precision accepted.  Lifting costs grow quickly with it:
# generic-arc on x^2 - z^2 - z^3 took 18 s at precision 1000 and 198 s at 2000.
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
    sp.add_argument("--point", help="comma-separated rational coordinates")
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
    sp.add_argument("--alpha", type=int, default=1)
    sp.add_argument("--search-bound", type=int, default=8)
    sp.set_defaults(handler=_cmd_generic_arc)

    sp = sub.add_parser("verify", help="machine-check the arc/order identities")
    common(sp)
    sp.add_argument("--alpha", type=int, default=1)
    sp.add_argument("--search-bound", type=int, default=8)
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

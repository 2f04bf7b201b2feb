"""Command line front end and the main-theorem verification harness.

Subcommands: mult, tsch, elim, contact, nash, generic-arc, verify.  Reports
are plain text or JSON (--json); every rational is serialized as an exact
fraction string, and a fixed --seed replays the same report (timing aside).

Exit codes: 0 pass, 2 parse/validation error, 3 insufficient precision,
4 extension required, 5 identity violation.

`main` reads its presentation file on every call and loads each distinct
text once: it keeps the presentations of the last PRESENTATION_MEMO_SIZE = 64
distinct texts, keyed on the exact text (`_loaded_presentation`).  Beside it,
`verify` keeps what its sampler learns in `_sampler`: one slot per
(presentation, alpha, search bound, precision), keyed on the presentation's
value, for the last PRESENTATION_MEMO_SIZE keys, shared by every verify call
of the process.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import random
import sys
import time
from fractions import Fraction
from math import floor
from typing import List, Optional, Tuple

from .arcs import Arc, ContactResult, ValidatedArc, contact_order_without_x, validate_arc
from .errors import (
    ExtensionRequiredError,
    IdentityViolationError,
    MaxMultArcError,
    NashresError,
)
from .generic import (
    DEFAULT_ALPHA,
    DEFAULT_PRECISION,
    DEFAULT_SEARCH_BOUND,
    GenericArcResult,
    admissible_unit_tuples,
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
)
from .rees import algebra_order_at, onedim_resolution_steps
from .series import PowerSeries


def _check(name: str, passed: bool, witness: str = "") -> dict:
    return {"name": name, "status": "pass" if passed else "fail", "witness": witness}


class _NotJSON(Exception):
    """A refusal of the JSON decoder, without the path of its text."""


def _decode_json(text: str):
    """json.loads(text).  Besides a JSONDecodeError, the decoder raises a
    RecursionError on arrays or objects nested past the recursion limit, and
    a ValueError on an integer past int()'s digit limit; each is a _NotJSON."""
    try:
        return json.loads(text)
    except (RecursionError, ValueError) as err:  # JSONDecodeError is a ValueError
        raise _NotJSON(err) from None


def _load_json(path: str, decode=_decode_json):
    """decode(the text of the file at path), the errors of reading it and of
    its JSON named by path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as err:
        raise NashresError(f"cannot read {path}: {err}") from None
    try:
        return decode(text)
    except _NotJSON as err:
        raise NashresError(f"{path} is not valid JSON: {err}") from None


# The most presentation texts `main` keeps loaded; the perfbench tables hold 27.
# `_sampler` keeps as many (presentation, alpha, search bound, precision)
# slots, and a verify call starts its slot afresh when the slot already holds
# more than MAX_TRIALS arcs.
PRESENTATION_MEMO_SIZE = 64

# The largest --trials accepted.  Every trial keeps its sample row until the
# report is written: verify on x^2 - z^3 at seed 7 takes 0.94 s and 49 MB
# peak RSS at 10,000 trials, with a 3.6 MB JSON report (subprocess).  The
# worst case measured is d = 3: on x^2 - z1^3 - z2^4 - z3^5 the same call
# takes about 8 s and 150 MB with a 43 MB report, 166 MB once verify on 64
# distinct such presentations (z3^5 .. z3^68) has filled every sampler slot,
# and 176 MB after two more such calls on that slot (in-process `main`;
# 2-core Intel Xeon x86, Python 3.11.7).
MAX_TRIALS = 10000


@functools.lru_cache(maxsize=PRESENTATION_MEMO_SIZE)
def _loaded_presentation(text: str) -> Tuple[LocalPresentation, dict]:
    """The presentation of a file's JSON text and its report document, shared
    by every report on that text and never changed.  A rewritten file is a
    new key, and a text that fails to load is loaded again on each call
    (`lru_cache` stores no exception)."""
    p = load_presentation(_decode_json(text))
    return p, presentation_to_document(p)


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
    report["results"]["in_max_mult"] = all(row["multiplicity"] >= row["b"] for row in rows)
    return []


def _cmd_tsch(args, p: LocalPresentation, report: dict) -> List[dict]:
    report["results"]["hypersurfaces"] = [
        {
            "var": h.var,
            "b": h.b,
            "f": str(h.polynomial),
            "coefficients": {f"B_{i}": str(B) for i, B in enumerate(h.coeffs)},
        }
        for h in p.hypersurfaces
    ]
    return [
        _check(
            "no_subprincipal_term",
            all(h.polynomial.coefficients_in(h.var).get(h.b - 1) is None
                for h in p.hypersurfaces),
        )
    ]


def _cmd_elim(args, p: LocalPresentation, report: dict) -> List[dict]:
    report["results"]["hypersurfaces"] = [
        {
            "var": h.var,
            "generators": [str(g) for g in h.elimination_algebra],
            "order": str(elimination_order(h)),
        }
        for h in p.hypersurfaces
    ]
    report["results"]["presentation_order"] = str(p.elimination_order)
    amb = p.ambient_algebra
    amb_order = algebra_order_at(amb, _origin(len(p.ambient_vars)))
    report["results"]["ambient_order_at_origin"] = str(amb_order)
    return [
        _check(
            "ambient_order_is_one",
            amb_order.is_exact and amb_order.value == 1,
            witness="[" + ", ".join(map(str, amb)) + "]",
        )
    ]


def _load_arc(args, p: LocalPresentation, report: dict) -> ValidatedArc:
    """The arc file, echoed into the report's inputs, validated on p."""
    arc = parse_arc(_load_json(args.arc))
    report["inputs"]["arc"] = arc_to_document(arc)
    return validate_arc(arc, p)


def _contact_fields(c: ContactResult) -> dict:
    """The contact invariants of a report: r, r_bar, rho, rho_bar and arc_order."""
    return {
        "r": fraction_text(c.r),
        "r_bar": fraction_text(c.r_bar),
        "rho": c.rho,
        "rho_bar": fraction_text(c.rho_bar),
        "arc_order": c.arc_order,
    }


def _cmd_contact(args, p: LocalPresentation, report: dict) -> List[dict]:
    va = _load_arc(args, p, report)
    result = va.contact
    report["results"]["certificates"] = {
        var: "exact zero" if n is None else f"zero below t^{n}" for var, n in va.vanishing.items()
    }
    report["results"].update({**_contact_fields(result), "witness": result.witness})
    ord_d = p.elimination_order.expect_exact("elimination order")
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
    va = _load_arc(args, p, report)
    summary = nash_sequence_presentation(va, trace=args.trace)
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
    report["results"]["r"] = fraction_text(va.contact.r)
    return [_check("geometric_rho_is_floor_r", summary.rho == va.contact.rho)]


def _cmd_generic_arc(args, p: LocalPresentation, report: dict) -> List[dict]:
    result = construct_generic_arc(
        p, alpha=args.alpha, search_bound=args.search_bound, precision=args.precision
    )
    c = result.arc.contact
    order = p.elimination_order.expect_exact("elimination order")
    n = result.ramification * result.base.alpha
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


class _Sampler:
    """What verify learns on one presentation at one (alpha, search bound,
    precision), kept for every later call on its `_sampler` slot."""

    def __init__(self, generic: GenericArcResult):
        self.generic = generic
        self.restart()

    def restart(self) -> None:
        g = self.generic
        diagonal = (g.base.alpha,) * len(g.base.units)
        self.arcs = {_arc_key(g.arc.arc): g.arc}  # an arc's content -> its ValidatedArc
        # (units, exponents) -> its lift, or None when it needs an algebraic extension
        self.lifts = {(u, diagonal): None for u in g.failed_units}
        self.lifts[g.base.units, diagonal] = g.arc
        self.rows = {}  # id of a ValidatedArc of arcs -> its row without the name

    def validated(self, arc: Arc, p: LocalPresentation, lifted: Optional[ValidatedArc] = None):
        """The ValidatedArc of arc's content: the first one kept, else lifted
        or validate_arc(arc, p)."""
        key = _arc_key(arc)
        if key not in self.arcs:
            self.arcs[key] = lifted or validate_arc(arc, p)
        return self.arcs[key]


@functools.lru_cache(maxsize=PRESENTATION_MEMO_SIZE)
def _sampler(p: LocalPresentation, alpha: int, search_bound: int, precision: int) -> _Sampler:
    """The slot of an equal presentation at these settings.  A search that
    raises keeps no slot (`lru_cache` stores no exception)."""
    return _Sampler(
        construct_generic_arc(p, alpha=alpha, search_bound=search_bound, precision=precision)
    )


def _sample_arcs(
    p: LocalPresentation,
    sampler: _Sampler,
    trials: int,
    rng: random.Random,
    precision: int,
    search_bound: int,
) -> List[ValidatedArc]:
    """Deterministic corpus of valid arcs: transformations of the generic
    branch plus fresh lifts over other admissible diagonal bases.

    Each draw takes the one path of `tests/test_cli.py::_reference_samples`,
    which recomputes every sample with no reuse.  A repeated arc, or a
    repeated (units, exponents), reuses what the sampler's slot holds, from
    this call or an earlier one.  The draws are the same, in the same order,
    whether or not one repeats.
    """
    algebras = [h.elimination_algebra for h in p.hypersurfaces]
    admissible = list(itertools.islice(admissible_unit_tuples(algebras, p.d, search_bound), 6))
    generic, lifts = sampler.generic, sampler.lifts
    samples = []
    for _ in range(trials):
        kind = rng.choice(("reparam", "scale", "deform", "fresh", "skew", "reparam_scale"))
        arc, lifted = generic.arc.arc, None
        if kind in ("fresh", "skew"):
            if kind == "fresh":
                alpha = rng.randint(1, 3)
                base = (admissible[rng.randrange(len(admissible))], (alpha,) * p.d)
            else:
                # independent base exponents: valid but usually non-generic arcs
                u = admissible[rng.randrange(len(admissible))]
                base = (u, tuple(rng.randint(1, 3) for _ in range(p.d)))
            if base not in lifts:
                try:
                    lifts[base] = lift_monomial_base(p, *base, precision)
                except ExtensionRequiredError:
                    lifts[base] = None
            lifted = lifts[base]
            arc = arc.reparametrize(rng.randint(2, 3)) if lifted is None else lifted.arc
        if kind in ("reparam", "reparam_scale"):
            arc = arc.reparametrize(rng.randint(2, 3))
        if kind in ("scale", "reparam_scale"):
            arc = arc.scale_parameter(rng.choice(_SCALES))
        if kind == "deform":
            arc = arc.substitute_parameter(PowerSeries((0, 1, rng.choice(_SCALES))))
        samples.append(sampler.validated(arc, p, lifted))
    return samples


def _every_sample(name: str, sampled: List[Tuple[ContactResult, dict]], holds) -> dict:
    """The check that holds(contact, row) on every sample; its witness is
    the arc of the first sample where it fails."""
    failing = next((row for c, row in sampled if not holds(c, row)), None)
    witness = "" if failing is None else json.dumps(failing["arc"], sort_keys=True)
    return _check(name, failing is None, witness=witness)


# The defaults of verify's arc sampling: its number of trials and its seed.
DEFAULT_TRIALS = 20
DEFAULT_SEED = 0


def verify_main_theorem(
    p: LocalPresentation,
    trials: int = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED,
    alpha: int = DEFAULT_ALPHA,
    search_bound: int = DEFAULT_SEARCH_BOUND,
    precision: int = DEFAULT_PRECISION,
) -> Tuple[dict, List[dict]]:
    """Machine-check the arc characterization of the elimination order.

    Returns (results, checks).  Checks cover: the constructed arc attains the
    order; every sampled arc respects the lower bound; rho agrees with
    floor(r) by closed form, one-dimensional iteration, and the geometric
    simulation; the reparametrized arc attains rho-bar; and the chain
    r_bar >= rho_bar >= floor(order) holds throughout.

    Every distinct arc, the rho-bar-attaining one included, is validated
    once through the slot of (p, alpha, search_bound, precision) in
    `_sampler`, and its one-dimensional steps, Nash sequence and arc
    document are computed once, in one row that its repeats reuse, in this
    call and in every later call on that slot.
    """
    results: dict = {}
    checks: List[dict] = []
    ord_ext = p.elimination_order
    if ord_ext.is_infinite:
        raise MaxMultArcError(
            "arc necessarily inside Max mult: the elimination order is infinite"
        )
    ord_d = Fraction(ord_ext.expect_exact("elimination order"))
    results["elimination_order"] = fraction_text(ord_d)

    sampler = _sampler(p, alpha, search_bound, precision)
    if len(sampler.arcs) > MAX_TRIALS:
        sampler.restart()
    generic = sampler.generic
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

    samples = _sample_arcs(p, sampler, trials, random.Random(seed), precision, search_bound)
    rows = sampler.rows
    for va in samples:
        if id(va) not in rows:
            c = va.contact
            try:
                geo_rho: Optional[int] = nash_sequence_presentation(va).rho
            except IdentityViolationError:
                geo_rho = None
            rows[id(va)] = {
                "arc": arc_to_document(va.arc),
                **_contact_fields(c),
                "rho_onedim": onedim_resolution_steps(c.image),
                "rho_geometric": geo_rho,
            }
    sampled = [(va.contact, rows[id(va)]) for va in samples]
    results["samples"] = [{"name": f"trial-{k}", **row} for k, (_, row) in enumerate(sampled)]
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

    arc = generic.arc.arc.reparametrize(ord_d.denominator)
    attaining = sampler.validated(arc, p)
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
# with the precision.  The worst input known is the double branch
# x^4 - 2 (z^2 + z^3) x^2 + (z^2 + z^3)^2: generic-arc on it takes 0.20,
# 0.54, 3.48 and 34.7 s at precision 64, 128, 256 and 512 (subprocess wall
# time, 2-core x86, Python 3.11.7), and does not finish in minutes at 1024
# (ROADMAP item 2).  An --alpha above it would only build a longer diagonal
# arc that the lift cannot reach.
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


def _build_parser() -> argparse.ArgumentParser:
    return _parsers()[0]


@functools.cache
def _parsers() -> Tuple[argparse.ArgumentParser, dict]:
    """The nashres parser, built once, and its subparsers by command name."""
    parser = argparse.ArgumentParser(
        prog="nashres",
        description="Exact arc-based resolution invariants for local presentations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help, arc_file=False):
        sp = sub.add_parser(name, help=help)
        sp.add_argument("presentation", help="presentation JSON file")
        if arc_file:
            sp.add_argument("arc", help="arc JSON file")
        sp.add_argument("--json", action="store_true", help="emit a JSON report")
        sp.set_defaults(handler=handler)
        return sp

    def lifting(sp):
        sp.add_argument("--precision", type=_int_in(1, MAX_PRECISION), default=DEFAULT_PRECISION)
        sp.add_argument("--alpha", type=_int_in(1, MAX_PRECISION), default=DEFAULT_ALPHA)
        sp.add_argument("--search-bound", type=_int_in(1), default=DEFAULT_SEARCH_BOUND)

    command("mult", _cmd_mult, "multiplicities at a rational point").add_argument(
        "--point", help="comma-separated constants of the polynomial grammar, e.g. 3/2,0,5"
    )
    command("tsch", _cmd_tsch, "echo the Tschirnhausen normal forms")
    command("elim", _cmd_elim, "elimination algebras and their orders")
    command("contact", _cmd_contact, "order of contact of an arc", arc_file=True)
    sp = command("nash", _cmd_nash, "directed blow-up sequences of an arc", arc_file=True)
    sp.add_argument("--trace", action="store_true", help="record per-step transforms")
    lifting(command("generic-arc", _cmd_generic_arc, "construct an arc attaining the order"))
    sp = command("verify", _cmd_verify, "machine-check the arc/order identities")
    lifting(sp)
    sp.add_argument("--trials", type=_int_in(0, MAX_TRIALS), default=DEFAULT_TRIALS)
    sp.add_argument("--seed", type=int, default=DEFAULT_SEED)
    return parser, sub.choices


def _parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    """_build_parser().parse_args(argv), in one pass of the subcommand's own
    parser when argv[0] names one and it reads every argument.  Anything
    else (help, a usage error, an unknown command) goes to the whole parser,
    so its messages and exit codes are argparse's own."""
    parser, commands = _parsers()
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in commands:
        args, rest = commands[argv[0]].parse_known_args(argv[1:])
        if not rest:
            args.command = argv[0]
            return args
    return parser.parse_args(argv)


_encode_str = json.encoder.encode_basestring_ascii
_STR_KEYS = {str}


def _json_text(value, newline: str = "\n") -> str:
    """json.dumps(value, indent=2, sort_keys=True), each line break written
    as `newline`.  With an indent, json runs its pure-Python encoder; this
    writes dicts with str keys, lists and tuples itself, each str by json's
    C ASCII encoder and each int by int.__repr__, as json does.  Any other
    value goes to json.dumps and is re-indented, which is exact because JSON
    text holds no raw line break."""
    kind = type(value)
    if kind is str:
        return _encode_str(value)
    if kind is int:
        return int.__repr__(value)
    inner = newline + "  "
    if kind is dict and value and set(map(type, value)) == _STR_KEYS:
        items = []
        for key in sorted(value):
            v = value[key]
            text = (
                _encode_str(v) if type(v) is str
                else int.__repr__(v) if type(v) is int
                else _json_text(v, inner)
            )
            items.append(f"{_encode_str(key)}: {text}")
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if (kind is list or kind is tuple) and value:
        return "[" + inner + ("," + inner).join([_json_text(v, inner) for v in value]) + newline + "]"
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", newline)


def _emit(report: dict, as_json: bool) -> None:
    if as_json:
        print(_json_text(report))
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
    args = _parse_args(argv)
    started = time.monotonic()
    # a subcommand without the option echoes the default it runs with
    seed = getattr(args, "seed", DEFAULT_SEED)
    report = {
        "command": args.command,
        "inputs": {
            "defaults": {
                "precision": getattr(args, "precision", DEFAULT_PRECISION),
                "search_bound": getattr(args, "search_bound", DEFAULT_SEARCH_BOUND),
                "seed": seed,
            }
        },
        "results": {},
        "checks": [],
        "seed": seed,
        "elapsed_ms": 0,
    }
    try:
        p, report["inputs"]["presentation"] = _load_json(args.presentation, _loaded_presentation)
        checks = args.handler(args, p, report)
        code = 5 if any(c["status"] == "fail" for c in checks) else 0
    except NashresError as err:
        report["results"]["error"] = str(err)
        checks = [_check("no_errors", False, witness=str(err))]
        code = err.exit_code
    report["checks"] = checks
    report["elapsed_ms"] = int((time.monotonic() - started) * 1000)
    _emit(report, args.json)
    return code


if __name__ == "__main__":
    sys.exit(main())

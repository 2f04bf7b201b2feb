"""The three workloads: their inputs, their op lists and their pinned answers.

Every answer an op is checked against is written here by hand (the
elimination order of each presentation, read off its equation), never taken
from a second run of the code under test.  The program only ever sees the
JSON documents written to the run directory.

The x^3 - 2^71 z^4 presentation is left out on purpose: at the commit that
defined this benchmark, `generic._rational_roots` enumerates divisors up to
sqrt(2^71) and does not finish.  Adding it is a separate change.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Tuple

# name -> (d, [(distinguished variable, degree b, equation)], elimination order)
Presentation = Tuple[int, List[Tuple[str, int, str]], Fraction]

ACCEPTANCE: Dict[str, Presentation] = {
    "cusp": (1, [("x", 2, "x^2 - z^3")], Fraction(3, 2)),
    "umbrella": (2, [("x", 2, "x^2 - z1^2 z2")], Fraction(3, 2)),
    "two_hyp": (
        2,
        [("x1", 2, "x1^2 - z1^3"), ("x2", 2, "x2^2 - z1 z2^2")],
        Fraction(3, 2),
    ),
}
for _n in range(1, 9):
    # A_n: x^2 - z^(n+1) has elimination order (n+1)/2
    ACCEPTANCE[f"A_{_n}"] = (1, [("x", 2, f"x^2 - z^{_n + 1}")], Fraction(_n + 1, 2))

# The cases of tests/test_harness_extended.py with their `expected` column.
EXTENDED: Dict[str, Presentation] = {
    "cubic_with_middle_term": (1, [("x", 3, "x^3 + z^2 x + z^4")], Fraction(1)),
    "degree_three_cusp": (1, [("x", 3, "x^3 - z^4")], Fraction(4, 3)),
    "degree_three_steep": (1, [("x", 3, "x^3 - z^7")], Fraction(7, 3)),
    "three_base_variables": (3, [("x", 2, "x^2 - z1 z2 z3")], Fraction(3, 2)),
    "needs_normalization": (1, [("x", 2, "x^2 + 2z x + z^3")], Fraction(1)),
    "nonterminating_branch": (1, [("x", 2, "x^2 - z^2 - z^3")], Fraction(1)),
    "mixed_weights": (
        1,
        [("x1", 2, "x1^2 - z^3"), ("x2", 3, "x2^3 - z^4")],
        Fraction(4, 3),
    ),
    "three_hypersurfaces": (
        2,
        [("x1", 2, "x1^2 - z1^3"), ("x2", 2, "x2^2 - z1 z2^2"), ("x3", 2, "x3^2 - z2^4")],
        Fraction(3, 2),
    ),
}

# generic-arc inputs: Newton polygons with one or several edges, ramification
# 1 to 6, a degree-3 edge with a large constant term for _rational_roots, and
# two hypersurfaces over three base variables.
LIFT: Dict[str, Presentation] = {
    "quadratic_tail": (1, [("x", 2, "x^2 - z^2 - z^3")], Fraction(1)),
    "cubic_tail": (1, [("x", 3, "x^3 - z^4 - z^5")], Fraction(4, 3)),
    "quartic_tail": (1, [("x", 4, "x^4 - z^5 - z^7")], Fraction(5, 4)),
    "quartic_middle": (1, [("x", 4, "x^4 - 2 z^3 x^2 + z^6 - z^7")], Fraction(3, 2)),
    "cubic_two_base": (2, [("x", 3, "x^3 - z1^2 z2^2 - z1^5")], Fraction(4, 3)),
    "cubic_big_constant": (1, [("x", 3, "x^3 - 8000000000000 z^4")], Fraction(4, 3)),
    "cubic_middle": (1, [("x", 3, "x^3 - 2 z^2 x - z^4 - z^5")], Fraction(1)),
    "two_hyp_three_base": (
        3,
        [("x1", 3, "x1^3 - z1^4 - z2^5"), ("x3", 2, "x3^2 - z1 z2 z3")],
        Fraction(4, 3),
    ),
}

CONTACT_PRESENTATIONS = (
    "cusp", "umbrella", "two_hyp", "three_base_variables", "mixed_weights", "A_4", "A_7",
)
CONTACT_CYCLES = 16  # 48 queries each; a multiple of both lists below
_SCALES = tuple(Fraction(c) for c in ("1", "-1", "2", "-2", "3", "-3", "1/2", "-1/2"))
_DEFORMS = tuple(Fraction(c) for c in ("1", "-1", "2", "1/3"))
VERIFY_SEEDS_PER_PRESENTATION = 2


def _corpus(name: str) -> Presentation:
    for table in (ACCEPTANCE, EXTENDED, LIFT):
        if name in table:
            return table[name]
    raise KeyError(name)


def presentation_document(name: str) -> dict:
    d, equations, _ = _corpus(name)
    return {"d": d, "hypersurfaces": [{"var": v, "b": b, "f": f} for v, b, f in equations]}


def _write(path: str, document: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, sort_keys=True)
    return path


@dataclass(frozen=True)
class Op:
    """One `nashres` invocation and the answer it must give."""

    label: str
    argv: Tuple[str, ...]
    check: Callable[[int, dict], str]  # (exit code, report) -> "" or a reason


def _checker(key: str, order: Fraction, at_least: bool = False):
    def check(code: int, report: dict) -> str:
        if code != 0:
            return f"exit code {code}"
        bad = [c["name"] for c in report.get("checks", []) if c.get("status") != "pass"]
        if bad:
            return f"checks not passing: {bad}"
        value = report.get("results", {}).get(key)
        if value is None:
            return f"no {key} in the report"
        got = Fraction(value)
        if got < order if at_least else got != order:
            relation = ">=" if at_least else "=="
            return f"{key} = {got}, pinned {relation} {order}"
        return ""

    return check


@dataclass
class Workload:
    """The op list of one run, built from the seed in the run directory."""

    ops: List[Op]
    input_size: str
    deadline_s: float  # per op
    nominal_pass_s: float  # one pass on a 2-core x86 sandbox, Python 3.11


def build_verify(seed: int, root: str) -> Workload:
    """Each presentation VERIFY_SEEDS_PER_PRESENTATION times, each op with
    its own --seed drawn from the workload seed.  One --seed shared by all
    ops draws the same sequence of sample kinds for every presentation, so
    the work of a whole pass moved by +-20% from one workload seed to the
    next; independent draws average out.  More draws per presentation do
    not steady the tail: the 11th-largest op then moves from the middle to
    the top of the cluster of 0.8-1.2 s ops (the extended cases at
    --trials 10), whose per-op times vary most with the op's seed."""
    rng = random.Random(seed)
    ops = []
    for _ in range(VERIFY_SEEDS_PER_PRESENTATION):
        for table, trials in ((ACCEPTANCE, 20), (EXTENDED, 10)):
            for name, (_, _, order) in table.items():
                path = _write(os.path.join(root, f"{name}.json"), presentation_document(name))
                op_seed = rng.randrange(1 << 31)
                argv = ("verify", path, "--json", "--trials", str(trials), "--seed", str(op_seed))
                ops.append(Op(f"{name}/seed={op_seed}", argv, _checker("elimination_order", order)))
    size = f"19 presentations x {VERIFY_SEEDS_PER_PRESENTATION} seeds, 300 sampled arcs each"
    return Workload(ops, size, 30.0, 26.0)


def build_lift(seed: int, root: str) -> Workload:
    ops = []
    for name, (_, _, order) in LIFT.items():
        path = _write(os.path.join(root, f"{name}.json"), presentation_document(name))
        for alpha in (1, 2):
            argv = ("generic-arc", path, "--json", "--precision", "96", "--alpha", str(alpha))
            ops.append(Op(f"{name}/alpha={alpha}", argv, _checker("r_bar", order)))
    random.Random(seed).shuffle(ops)
    return Workload(ops, "16 generic arcs at precision 96", 20.0, 5.5)


def build_contact(seed: int, root: str) -> Workload:
    """Contact queries on arcs derived from generic arcs.

    Reparametrization t -> t^e, scaling t -> c t and substitution
    t -> t + c t^2 all preserve r_bar, so a derived arc must give exactly the
    pinned order.  Skew lifts (unequal base exponents) only promise
    r_bar >= the order; they give some arcs with r_bar > ord^(d).

    The stream is stratified: every presentation appears under every e in
    1..3, with and without the substitution, CONTACT_CYCLES times, and each
    of these slots runs through a fixed multiset of scalings and
    substitutions.  The seed shuffles those, draws the skew exponents and
    orders the stream.  Query cost grows steeply with e and with the size of
    the constants, so drawing them freely made a pass's work, and above all
    its tail, depend on the seed.
    """
    from nashres.errors import ExtensionRequiredError
    from nashres.generic import construct_generic_arc, lift_monomial_base
    from nashres.parsing import arc_to_document, load_presentation
    from nashres.series import PowerSeries

    rng = random.Random(seed)
    presentations, generic, pres_paths = {}, {}, {}
    for name in CONTACT_PRESENTATIONS:
        document = presentation_document(name)
        pres_paths[name] = _write(os.path.join(root, f"{name}.json"), document)
        presentations[name] = load_presentation(document)
        generic[name] = construct_generic_arc(presentations[name])

    def shuffled(values):
        out = list(values) * (CONTACT_CYCLES // len(values))
        rng.shuffle(out)
        return out

    def derived(name, e, scale, deform):
        arc = generic[name].arc.arc.reparametrize(e).scale_parameter(scale)
        if deform is not None:
            arc = arc.substitute_parameter(PowerSeries((0, 1, deform)))
        return name, arc, False

    lifted = {}

    def skew(name):
        p = presentations[name]
        exponents = (1,) * p.d
        while len(set(exponents)) == 1:
            exponents = tuple(rng.randint(1, 3) for _ in range(p.d))
        if (name, exponents) not in lifted:
            try:
                arc = lift_monomial_base(p, generic[name].base.units, exponents).arc
            except ExtensionRequiredError:
                arc = None
            lifted[name, exponents] = arc
        if lifted[name, exponents] is None:
            return derived(name, rng.randint(1, 3), rng.choice(_SCALES), None)
        return name, lifted[name, exponents], True

    queries = []
    for name in CONTACT_PRESENTATIONS:
        for e in (1, 2, 3):
            queries += [derived(name, e, c, None) for c in shuffled(_SCALES)]
            queries += [
                derived(name, e, c, deform)
                for c, deform in zip(shuffled(_SCALES), shuffled(_DEFORMS))
            ]
        if presentations[name].d >= 2:
            queries += [skew(name) for _ in range(2 * CONTACT_CYCLES)]
    rng.shuffle(queries)
    ops = []
    for k, (name, arc, at_least) in enumerate(queries):
        arc_path = _write(os.path.join(root, f"arc-{k}.json"), arc_to_document(arc))
        argv = ("contact", pres_paths[name], arc_path, "--json")
        kind = "skew" if at_least else "derived"
        order = _corpus(name)[2]
        ops.append(Op(f"{name}/{kind}-{k}", argv, _checker("r_bar", order, at_least)))
    size = f"{len(ops)} contact queries over {len(CONTACT_PRESENTATIONS)} presentations"
    return Workload(ops, size, 5.0, 17.0)


BUILDERS = {"verify": build_verify, "lift": build_lift, "contact": build_contact}

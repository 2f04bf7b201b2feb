"""Acceptance suite: one test per criterion, exact values, stated time budgets.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per criterion.
"""

import json
import random
import time
from fractions import Fraction
from math import floor

from nashres import (
    Arc,
    ExtOrder,
    MultiPoly,
    OneDimGenerator,
    PowerSeries,
    algebra_order_at,
    ambient_algebra,
    contact_order,
    contact_order_without_x,
    construct_generic_arc,
    elimination_algebra,
    elimination_order,
    image_of_algebra,
    nash_sequence_presentation,
    onedim_resolution_steps,
    tschirnhausen_normalize,
    validate_arc,
)
from nashres.cli import main
from nashres.poly import canonical_var_key

from conftest import a_n, exact_arc, make_presentation


class Budget:
    def __init__(self, seconds):
        self.limit = seconds
        self.start = time.monotonic()

    def check(self):
        elapsed = time.monotonic() - self.start
        assert elapsed < self.limit, f"runtime {elapsed:.2f}s exceeds {self.limit}s"
        return elapsed


def done(n, name, budget):
    elapsed = budget.check()
    print(f"ACCEPTANCE {n} [{name}]: PASS ({elapsed:.2f}s)")


def sequence_of(va, var):
    return dict(nash_sequence_presentation(va).per_hypersurface)[var]


def rho_three_ways(p, va):
    """persistance by closed form, one-dimensional iteration, and geometry."""
    result = contact_order(va)
    closed_form = result.rho
    iterated = onedim_resolution_steps(image_of_algebra(va.arc, ambient_algebra(p)))
    geometric = nash_sequence_presentation(va).rho
    assert closed_form == floor(result.r)
    assert iterated == closed_form
    assert geometric == closed_form
    return result


def test_acceptance_1_cusp_end_to_end():
    budget = Budget(1.0)
    p = make_presentation(1, ("x", "x^2 - z^3"))
    assert p.elimination_order.value == Fraction(3, 2)
    va = validate_arc(exact_arc(x="t^3", z="t^2"), p)
    result = contact_order(va)
    assert result.r == 3 and result.rho == 3
    seq = sequence_of(va, "x")
    assert seq.multiplicities == (2, 2, 2, 1)
    assert result.rho == floor(result.r) == seq.rho
    done(1, "cusp end-to-end", budget)


def test_acceptance_2_a_family():
    budget = Budget(5.0)
    for n in range(1, 9):
        p = a_n(n)
        expected = Fraction(n + 1, 2)
        assert p.elimination_order.value == expected
        built = construct_generic_arc(p)
        if n % 2 == 0:
            assert built.ramification == 2
        result = contact_order(built.arc)
        assert result.r_bar == expected
        seq = sequence_of(built.arc, "x")
        assert seq.rho == floor(result.r)
        doubled = validate_arc(built.arc.arc.reparametrize(2), p)
        result2 = contact_order(doubled)
        seq2 = sequence_of(doubled, "x")
        assert seq2.rho == floor(result2.r) == floor(2 * result.r)
    done(2, "A_n family n=1..8", budget)


def _umbrella_corpus(p):
    """20 exact arcs on the Whitney umbrella."""
    minimizing = exact_arc(x="t^3", z1="t^2", z2="t^2")
    fast = exact_arc(x="t^2", z1="t", z2="t^2")
    arcs = [minimizing, fast]
    for e in (2, 3):
        arcs.append(minimizing.reparametrize(e))
        arcs.append(fast.reparametrize(e))
    for c in (Fraction(2), Fraction(-1), Fraction(1, 2)):
        arcs.append(minimizing.scale_parameter(c))
        arcs.append(fast.scale_parameter(c))
    for c in (Fraction(1), Fraction(-2)):
        tau = PowerSeries([0, 1, c])
        arcs.append(minimizing.substitute_parameter(tau))
        arcs.append(fast.substitute_parameter(tau))
    from nashres import build_diagonal_arc, lift_to_presentation

    for alpha, units in ((1, (-1, 1)), (2, (1, 1)), (2, (-1, 1)), (3, (-1, 1))):
        base = build_diagonal_arc(units, alpha, ("z1", "z2"))
        arcs.append(lift_to_presentation(p, base).arc)
    assert len(arcs) == 20
    return arcs


def test_acceptance_3_whitney_umbrella():
    budget = Budget(5.0)
    p = make_presentation(2, ("x", "x^2 - z1^2*z2"))
    assert p.elimination_order.value == Fraction(3, 2)
    built = construct_generic_arc(p)
    assert contact_order(built.arc).r_bar == Fraction(3, 2)
    for arc in _umbrella_corpus(p):
        va = validate_arc(arc, p)
        result = rho_three_ways(p, va)
        assert result.r_bar >= Fraction(3, 2)
    done(3, "Whitney umbrella, 20 arcs, rho three ways", budget)


def test_acceptance_4_lemma_suite():
    budget = Budget(30.0)
    rng = random.Random(74)

    # (a) the x-generators never matter for the order of contact
    presentations = [
        make_presentation(1, ("x", "x^2 - z^3")),
        make_presentation(2, ("x", "x^2 - z1^2*z2")),
        make_presentation(2, ("x1", "x1^2 - z1^3"), ("x2", "x2^2 - z1*z2^2")),
        a_n(3),
        a_n(4),
    ]
    generics = [construct_generic_arc(p).arc.arc for p in presentations]
    scales = (Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-3))
    for k in range(200):
        i = k % len(presentations)
        p, arc = presentations[i], generics[i]
        e = rng.randint(1, 3)
        arc = arc.reparametrize(e) if e > 1 else arc
        arc = arc.scale_parameter(rng.choice(scales))
        if rng.random() < 0.3:
            arc = arc.substitute_parameter(PowerSeries([0, 1, rng.choice(scales)]))
        va = validate_arc(arc, p)
        assert contact_order_without_x(va) == contact_order(va).r

    # (b) diagonal lower bound: ord(phi(G)) >= ord(phi) * ord(G)
    algebras = [
        elimination_algebra(h) for p in presentations for h in p.hypersurfaces
    ]
    for k in range(200):
        algebra = algebras[k % len(algebras)]
        nvars = len(algebra[0].f.vars)
        coords = {}
        while True:
            for v in algebra[0].f.vars:
                cs = [Fraction(0)] + [
                    Fraction(rng.randint(-3, 3)) for _ in range(rng.randint(1, 4))
                ]
                coords[v] = PowerSeries(cs)
            if not all(s.is_exactly_zero() for s in coords.values()):
                break
        arc = Arc(coords)
        arc_ord = arc.order().value
        algebra_ord = algebra_order_at(algebra, (Fraction(0),) * nvars).value
        for g in image_of_algebra(arc, algebra):
            assert Fraction(g.a.value, g.l) >= arc_ord * algebra_ord

    # (c) resolution step count equals the floor of the minimal quotient
    for _ in range(200):
        pairs = [
            (rng.randint(1, 40), rng.randint(1, 8))
            for _ in range(rng.randint(1, 4))
        ]
        algebra = [OneDimGenerator(ExtOrder.exact(a), l) for a, l in pairs]
        expected = min(Fraction(a, l) for a, l in pairs).__floor__()
        assert onedim_resolution_steps(algebra) == expected

    # (d) normalization kills the subprincipal term; elimination order is
    # invariant under pre-composing with x -> x + c z_j
    for _ in range(200):
        b = rng.randint(2, 4)
        base = tuple(sorted(
            {f"z{i + 1}" for i in range(rng.randint(1, 2))}, key=canonical_var_key
        ))
        ambient = ("x",) + base
        x = MultiPoly.variable(ambient, "x")

        def random_coeff(min_order):
            terms = {}
            for _ in range(rng.randint(0, 2)):
                total = rng.randint(min_order, min_order + 2)
                cuts = sorted(rng.randint(0, total) for _ in range(len(base) - 1))
                degrees = [b2 - a2 for a2, b2 in zip([0] + cuts, cuts + [total])]
                exp = [0] + degrees
                terms[tuple(exp)] = Fraction(rng.choice([-2, -1, 1, 2, 3]))
            return MultiPoly(ambient, terms)

        f = x**b
        for i in range(b - 1):
            f = f + random_coeff(b - i) * x**i
        f = f + random_coeff(1) * x ** (b - 1)
        direct = tschirnhausen_normalize(f, "x")
        assert all(
            exp[0] != direct.b - 1 for exp in direct.polynomial.terms
        )
        c = Fraction(rng.choice([-2, -1, 1, 2]))
        j = rng.randrange(len(base))
        shift = x + MultiPoly.variable(ambient, base[j]).scale(c)
        detour = tschirnhausen_normalize(f.substitute("x", shift), "x")
        assert elimination_order(direct) == elimination_order(detour)

    done(4, "lemma suite, 200 randomized instances each", budget)


def test_acceptance_5_two_hypersurfaces():
    budget = Budget(5.0)
    p = make_presentation(2, ("x1", "x1^2 - z1^3"), ("x2", "x2^2 - z1*z2^2"))
    va = validate_arc(exact_arc(x1="t^3", x2="t^4", z1="t^2", z2="t^3"), p)
    summary = nash_sequence_presentation(va)
    per = {var: seq.rho for var, seq in summary.per_hypersurface}
    assert per == {"x1": 3, "x2": 4}
    assert summary.rho == min(per.values())

    result = contact_order(va)
    per_r = {}
    for h in p.hypersurfaces:
        from nashres import LocalPresentation

        sub = LocalPresentation(2, (h,))
        arc = va.arc.restrict(h.ambient_vars)
        per_r[h.var] = contact_order(validate_arc(arc, sub)).r
    assert result.r == min(per_r.values()) == 3

    origin = (Fraction(0),) * len(p.ambient_vars)
    assert algebra_order_at(ambient_algebra(p), origin).value == 1
    done(5, "two-hypersurface presentation", budget)


def _corpus_documents():
    docs = {
        "cusp": {"d": 1, "hypersurfaces": [{"var": "x", "b": 2, "f": "x^2 - z^3"}]},
        "umbrella": {
            "d": 2,
            "hypersurfaces": [{"var": "x", "b": 2, "f": "x^2 - z1^2*z2"}],
        },
        "two_hyp": {
            "d": 2,
            "hypersurfaces": [
                {"var": "x1", "b": 2, "f": "x1^2 - z1^3"},
                {"var": "x2", "b": 2, "f": "x2^2 - z1*z2^2"},
            ],
        },
    }
    for n in range(1, 9):
        docs[f"a{n}"] = {
            "d": 1,
            "hypersurfaces": [{"var": "x", "b": 2, "f": f"x^2 - z^{n + 1}"}],
        }
    return docs


def test_acceptance_6_verify_harness(tmp_path, capsys):
    budget = Budget(60.0)
    for name, doc in _corpus_documents().items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        code = main(["verify", str(path), "--trials", "20", "--seed", "7", "--json"])
        out = capsys.readouterr().out
        assert code == 0, f"verify failed on {name}: {out}"
        report = json.loads(out)
        assert all(c["status"] == "pass" for c in report["checks"]), name
    done(6, "verify harness over the full corpus", budget)

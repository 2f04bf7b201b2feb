"""Property tests for the algebraic identities the toolkit is built on."""

import random
import sys
from collections import Counter
from fractions import Fraction
from itertools import zip_longest
from math import comb, gcd, isqrt, lcm, prod

import pytest
from hypothesis import assume, example, given, seed, settings
from hypothesis import strategies as st

from nashres import (
    LocalPresentation,
    TschirnhausenHypersurface,
    MultiPoly,
    PowerSeries,
    ReesGenerator,
    algebra_order_at,
    diff_closure,
    elimination_order,
    lift_monomial_base,
    nash_sequence_equation,
    parse_poly,
    poly_compose_series,
    tschirnhausen_normalize,
)
from nashres import generic as generic_module
from nashres import nash as nash_module
from nashres import series as series_module
from nashres.errors import (
    ExtensionRequiredError,
    IdentityViolationError,
    InsufficientPrecisionError,
    NashresError,
    ValidationError,
)
from nashres.extorder import INFINITE, ExtOrder
from nashres.generic import (
    _integer_roots,
    _newton_puiseux_root,
    _pick_root,
    _rational_roots,
    _singular_part,
    _steepest_edge,
)
from nashres.rees import _tschirnhausen_split

V2 = ("z1", "z2")
ORIGIN2 = (Fraction(0), Fraction(0))

coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=4).filter(
    lambda c: c != 0
)


def polys(variables, max_degree=4, max_terms=4, min_order=0):
    exponents = st.tuples(
        *[st.integers(min_value=0, max_value=max_degree) for _ in variables]
    ).filter(lambda e: sum(e) >= min_order)
    return st.dictionaries(exponents, coeffs, max_size=max_terms).map(
        lambda terms: MultiPoly(variables, terms)
    )


def series(max_len=5):
    return st.builds(
        PowerSeries,
        st.lists(
            st.fractions(min_value=-3, max_value=3, max_denominator=3),
            max_size=max_len,
        ),
        st.one_of(st.none(), st.integers(min_value=1, max_value=8)),
    )


def test_order_matches_generic_line_probe():
    # min over 20 random directions of ord_t f(p + v t) recovers the
    # Taylor-shift order, on instances of <= 4 variables and degree <= 6
    rng = random.Random(20110)
    for _ in range(40):
        nvars = rng.randint(1, 4)
        variables = tuple(f"z{i + 1}" for i in range(nvars))
        terms = {}
        for _ in range(rng.randint(1, 5)):
            exp = tuple(rng.randint(0, 6 // max(1, nvars - 1)) for _ in variables)
            terms[exp] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
        f = MultiPoly(variables, terms)
        if f.is_zero():
            continue
        point = tuple(
            rng.choice([Fraction(0), Fraction(1), Fraction(-1, 2)]) for _ in variables
        )
        expected = f.order_at(point)
        shifted = f.translate(point)
        best = None
        for _ in range(20):
            direction = {
                v: PowerSeries(
                    [0, Fraction(rng.randint(1, 9), rng.randint(1, 3)) * rng.choice([-1, 1])]
                )
                for v in variables
            }
            o = poly_compose_series(shifted, direction).order()
            if o.is_exact and (best is None or o.value < best):
                best = o.value
        assert best == expected.value


@given(series(), st.integers(min_value=1, max_value=4))
def test_reparametrization_scales_order(s, e):
    before = s.order()
    after = s.reparametrize(e).order()
    if before.is_exact:
        assert after.is_exact and after.value == e * before.value


@given(polys(V2), polys(V2), series(), series())
def test_composition_is_ring_homomorphism(f, g, s1, s2):
    subs = {"z1": s1, "z2": s2}
    fg = poly_compose_series(f * g, subs)
    separately = poly_compose_series(f, subs) * poly_compose_series(g, subs)
    n = min(len(fg.coeffs), len(separately.coeffs))
    assert fg.coeffs[:n] == separately.coeffs[:n]
    total = poly_compose_series(f + g, subs)
    a, b = poly_compose_series(f, subs).coeffs, poly_compose_series(g, subs).coeffs
    split = tuple(x + y for x, y in zip_longest(a, b, fillvalue=Fraction(0)))
    n = min(len(total.coeffs), len(split))
    assert total.coeffs[:n] == split[:n]


# -- series products against a pure-Fraction schoolbook reference ---------------


def _trimmed(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


@seed(20151118)
@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=12), max_size=8),
    st.one_of(st.none(), st.integers(min_value=0, max_value=10)),
    st.integers(min_value=-12, max_value=12).filter(bool),
)
def test_series_have_one_canonical_form(cs, precision, k):
    # PowerSeries(cs) and the same numerators times k over k times the
    # denominator are one series: equal fields, equal hashes
    s = PowerSeries(cs, precision)
    den = lcm(*(c.denominator for c in cs))
    nums = [k * c.numerator * (den // c.denominator) for c in cs]
    scaled = PowerSeries.from_integers(nums, k * den, precision)
    assert scaled == s and hash(scaled) == hash(s)
    expected = _trimmed(cs if precision is None else cs[:precision])
    for form in (s, scaled):
        assert form.den > 0 and gcd(form.den, *form.nums) == 1
        assert not form.nums or form.nums[-1] != 0
        assert form.precision == precision
        assert form.coeffs == tuple(Fraction(c) for c in expected)
        assert all(type(c) is Fraction for c in form.coeffs)


def _reference_product(a, b):
    """Full product of two Fraction coefficient lists, no truncation."""
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _reference_compose(f, subs):
    """(coeffs, precision) of f(subs), truncated only at the very end."""
    occurring = [v for i, v in enumerate(f.vars) if any(e[i] for e in f.terms)]
    precisions = [subs[v].precision for v in occurring if subs[v].precision is not None]
    prec = min(precisions) if precisions else None
    total = []
    for exp, c in f.terms.items():
        term = [c]
        for v, e in zip(f.vars, exp):
            for _ in range(e):
                term = _reference_product(term, list(subs[v].coeffs))
        total += [Fraction(0)] * (len(term) - len(total))
        for k, x in enumerate(term):
            total[k] += x
    return _trimmed(total if prec is None else total[:prec]), prec


mixed_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=7)


def substitutes(max_len=5):
    truncated = st.builds(
        PowerSeries,
        st.lists(mixed_fractions, max_size=max_len),
        st.integers(min_value=0, max_value=6),
    )
    exact = st.builds(PowerSeries, st.lists(mixed_fractions, max_size=max_len))
    return st.one_of(st.just(PowerSeries(())), exact, truncated)


V3 = V2 + ("z3",)


@seed(20151030)
@settings(max_examples=150, deadline=None)
@given(
    st.dictionaries(
        st.tuples(*[st.integers(min_value=0, max_value=4) for _ in V2]),
        mixed_fractions.filter(lambda c: c != 0),
        max_size=5,
    ),
    substitutes(),
    substitutes(),
    substitutes(),
)
def test_series_products_match_fraction_reference(terms, s1, s2, s3):
    # z3 has a substitute but never occurs in f; its precision must not leak
    f = MultiPoly(V2, terms)
    subs = {"z1": s1, "z2": s2, "z3": s3}
    composed = poly_compose_series(f, subs)
    assert (composed.coeffs, composed.precision) == _reference_compose(f, subs)
    assert all(type(c) is Fraction for c in composed.coeffs)
    for a, b in ((s1, s2), (s2, s3), (s1, s1)):
        product = a * b
        precisions = [p for p in (a.precision, b.precision) if p is not None]
        prec = min(precisions) if precisions else None
        full = _reference_product(list(a.coeffs), list(b.coeffs))
        assert product.coeffs == _trimmed(full if prec is None else full[:prec])
        assert product.precision == prec
        assert all(type(c) is Fraction for c in product.coeffs)
    f3 = f.extend_vars(V3)
    assert poly_compose_series(f3, subs) == composed


def _long_substitute(rng, longest):
    """Zero, a monomial, or a dense or sparse t^a h(t^q) of up to `longest`
    terms with numerators up to 2^200; exact or truncated."""
    span = rng.randint(longest // 2, longest)
    precision = rng.choice([None, rng.randint(span // 2 + 1, span + 8)])
    shape = rng.choice(["zero", "monomial", "dense", "sparse", "sparse"])
    if shape == "zero":
        return PowerSeries((), precision)
    bits = rng.randint(1, 200)
    if shape == "monomial":
        positions = [rng.randrange(span)]
    else:
        a, q = (0, 1) if shape == "dense" else (rng.randint(0, 4), rng.randint(2, 7))
        positions = range(a, span, q)
    coeffs = [Fraction(0)] * span
    for k in positions:
        coeffs[k] = Fraction(rng.randint(-(2**bits), 2**bits), rng.randint(1, 30))
    return PowerSeries(coeffs, precision)


def _compose_both_ways(monkeypatch, f, subs):
    """poly_compose_series with the packed path forced, then the schoolbook path."""
    results = []
    for cut in (1 << 40, 0):
        monkeypatch.setattr(series_module, "PACKED_MAX_BITS", cut)
        results.append(poly_compose_series(f, subs))
    monkeypatch.undo()
    return results


def _assert_matches_reference(f, subs, composed):
    assert (composed.coeffs, composed.precision) == _reference_compose(f, subs)
    assert all(type(c) is Fraction for c in composed.coeffs)


def test_long_and_sparse_compositions_match_fraction_reference(monkeypatch):
    # Each case runs on both paths, then on the one its size selects; the
    # sizes fall on both sides of the cut.  z3 is absent from some polynomials.
    rng = random.Random(20151106)
    taken = {"_packed_sum": 0, "_schoolbook_sum": 0}

    def spy(name):
        real = getattr(series_module, name)

        def counted(*args):
            taken[name] += 1
            return real(*args)

        return counted

    for _ in range(20):
        nvars = rng.choice([2, 3])
        terms = {}
        for _ in range(rng.randint(1, 4)):
            exp = [0, 0, 0]
            for _ in range(rng.randint(0, 3)):
                exp[rng.randrange(nvars)] += 1
            terms[tuple(exp)] = Fraction(rng.randint(1, 2**60) * rng.choice([-1, 1]), rng.randint(1, 12))
        f = MultiPoly(V3, terms)
        longest = rng.choice([24, 160])
        subs = {v: _long_substitute(rng, longest) for v in V3}
        for composed in _compose_both_ways(monkeypatch, f, subs):
            _assert_matches_reference(f, subs, composed)
        for name in taken:
            monkeypatch.setattr(series_module, name, spy(name))
        _assert_matches_reference(f, subs, poly_compose_series(f, subs))
        monkeypatch.undo()
    assert taken["_packed_sum"] >= 5 and taken["_schoolbook_sum"] >= 5, taken


def test_compositions_that_reach_the_width_bound(monkeypatch):
    # All contributions share one sign and one slot, so an output coefficient
    # equals the 1-norm bound; the bounds run through every byte boundary.
    one, two = MultiPoly(V2, {(1, 0): 1}), MultiPoly(V2, {(0, 1): 1})
    fs = [
        one,
        one + two,
        one.scale(Fraction(1, 2)) + two.scale(Fraction(1, 3)),
        one * one * two + two.scale(5),
    ]
    for bits in range(1, 42):
        for c in (2**bits - 1, 2**bits, -(2**bits)):
            for f in fs:
                for subs in (
                    {"z1": PowerSeries([c]), "z2": PowerSeries([c])},
                    {"z1": PowerSeries([0, c], 4), "z2": PowerSeries([0, Fraction(c, 7)])},
                ):
                    for composed in _compose_both_ways(monkeypatch, f, subs):
                        _assert_matches_reference(f, subs, composed)


def test_compose_takes_the_packed_path_up_to_the_cut(monkeypatch):
    # n all-one coefficients: the bound n has 9 to 15 bits, so a slot is 2
    # bytes and the packed size is 16 n bits
    n = series_module.PACKED_MAX_BITS // 16
    assert 2**8 <= n < 2**15
    packed = []
    real = series_module._packed_sum
    monkeypatch.setattr(series_module, "_packed_sum", lambda *args: packed.append(1) or real(*args))
    f = MultiPoly(("z",), {(1,): 1})
    for length, expected in ((n, [1]), (n + 1, [])):
        packed.clear()
        s = PowerSeries([1] * length)
        assert poly_compose_series(f, {"z": s}) == s
        assert packed == expected


def test_a_large_declared_precision_bounds_no_sum(monkeypatch):
    # x = t^3 + t^5 + O(t^(10^9)): g = 2 and x^2 + x reaches t^10, so each
    # residue class is evaluated to at most 6 coefficients whatever the
    # precision; the spies check the size before a sum allocates anything.
    sizes = []
    for name in ("_packed_sum", "_schoolbook_sum"):
        real = getattr(series_module, name)

        def checked(classes, series, size, *rest, real=real):
            sizes.append(size)
            assert size <= 6, size
            return real(classes, series, size, *rest)

        monkeypatch.setattr(series_module, name, checked)
    big = 10**9
    f = MultiPoly(("x",), {(2,): 1, (1,): 1})
    composed = poly_compose_series(f, {"x": PowerSeries.from_integers((0, 0, 0, 1, 0, 1), 1, big)})
    assert sizes and composed.nums == (0, 0, 0, 1, 0, 1, 1, 0, 2, 0, 1) and composed.precision == big
    # one term: no sum, and the coefficients stop at the top offset
    composed = poly_compose_series(f, {"x": PowerSeries.monomial(2, 3, big)})
    assert len(sizes) == 1 and composed.nums == (0, 0, 0, 2, 0, 0, 4)


def _monomial_cases(count):
    """Seeded (f, subs) with every substitute zero or one term c t^a, c of
    either sign with a denominator; each term of f uses some of z1, z2, z3,
    and a precision is exact, any cut, or exactly a term's offset."""
    rng = random.Random(20151201)
    cases = []
    for _ in range(count):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            exp = tuple(rng.randint(0, 4) if rng.random() < 0.6 else 0 for _ in V3)
            terms[exp] = Fraction(rng.randint(1, 2**30) * rng.choice([-1, 1]), rng.randint(1, 12))
        f = MultiPoly(V3, terms)
        lows = {v: rng.randint(0, 5) for v in V3}
        offsets = [sum(lows[v] * e for v, e in zip(V3, exp)) for exp in f.terms]
        subs = {}
        for v in V3:
            precision = rng.choice([None, None, rng.randint(0, 30), rng.choice(offsets or [0])])
            if rng.random() < 0.15:
                subs[v] = PowerSeries((), precision)
            else:
                c = Fraction(rng.randint(1, 2**20) * rng.choice([-1, 1]), rng.randint(1, 9))
                subs[v] = PowerSeries.monomial(c, lows[v], precision)
        cases.append((f, subs))
    return cases


def _spy_on_the_sums(monkeypatch, seen):
    """Record (name, number of residue classes) of each `_packed_sum` or
    `_schoolbook_sum` call in seen["sum"]; a monomial map calls neither."""
    for name in ("_packed_sum", "_schoolbook_sum"):
        real = getattr(series_module, name)

        def counted(classes, *rest, name=name, real=real):
            seen["sum"] = name, len(classes)
            return real(classes, *rest)

        monkeypatch.setattr(series_module, name, counted)


def test_the_monomial_map_matches_fraction_reference(monkeypatch):
    seen = {}
    _spy_on_the_sums(monkeypatch, seen)
    for f, subs in _monomial_cases(300):
        _assert_matches_reference(f, subs, poly_compose_series(f, subs))
    # z1^2 - z2^3 on (8/27 t^3, 4/9 t^2) and 3 z1 z2 - 2 z3 on
    # (1/2 t, -2/3 t^2, -1/2 t^3): each cancels to an exact zero
    cancelling = [
        (MultiPoly(V2, {(2, 0): 1, (0, 3): -1}),
         {"z1": PowerSeries.monomial(Fraction(8, 27), 3), "z2": PowerSeries.monomial(Fraction(4, 9), 2)}),
        (MultiPoly(V3, {(1, 1, 0): 3, (0, 0, 1): -2}),
         {"z1": PowerSeries.monomial(Fraction(1, 2), 1),
          "z2": PowerSeries.monomial(Fraction(-2, 3), 2),
          "z3": PowerSeries.monomial(Fraction(-1, 2), 3)}),
    ]
    for f, subs in cancelling:
        composed = poly_compose_series(f, subs)
        assert composed.is_exactly_zero()
        _assert_matches_reference(f, subs, composed)
    assert not seen


def _lattice_substitute(rng, g, longest):
    """Zero, a monomial, or t^a sigma(t^g) for an offset a of its own; exact
    or truncated, mostly at a cut inside a residue class mod g."""
    shape = rng.choice(["zero", "monomial", "monomial"] + ["lattice"] * 5)
    a = rng.randint(0, 2 * g + 1)
    span = a + g * rng.randint(longest // 2, longest)
    precision = rng.choice([None, rng.randint(span // 2 + 1, span + g)])
    if shape == "zero":
        return PowerSeries((), precision)
    positions = [a]
    if shape == "lattice":
        positions += [k for k in range(a + g, span, g) if rng.random() < 0.7]
    coeffs = [Fraction(0)] * span
    for k in positions:
        num = rng.randint(1, 2 ** rng.randint(1, 90)) * rng.choice([-1, 1])
        coeffs[k] = Fraction(num, rng.randint(1, 9))
    return PowerSeries(coeffs, precision)


def _lattice_cases(count):
    """Seeded (f, subs): substitutes on one lattice step g with mixed
    offsets, zeros and monomials, or monomials only; powers up to 5."""
    rng = random.Random(20151118)
    cases = []
    for _ in range(count):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            exp = [0, 0, 0]
            for _ in range(rng.randint(0, 5)):
                exp[rng.randrange(3)] += 1
            num = rng.randint(1, 2**40) * rng.choice([-1, 1])
            terms[tuple(exp)] = Fraction(num, rng.randint(1, 12))
        if rng.random() < 0.2:
            subs = {
                v: PowerSeries.monomial(
                    rng.choice([-3, -1, 1, 2, 7]),
                    rng.randint(0, 6),
                    rng.choice([None, rng.randint(1, 30)]),
                )
                for v in V3
            }
        else:
            g, longest = rng.choice([1, 2, 3, 4, 6]), rng.choice([8, 24])
            subs = {v: _lattice_substitute(rng, g, longest) for v in V3}
        cases.append((MultiPoly(V3, terms), subs))
    return cases


def _cut_cases(count):
    """Seeded (f, subs) whose substitutes are each zero or one term c t^a
    below t^n, n the precision of z3, and z1 and z2 have more terms from
    t^n up to their own precision; f uses every variable."""
    rng = random.Random(20151203)
    cases = []
    for _ in range(count):
        n = rng.randint(1, 12)
        subs = {}
        for v, precision in zip(V3, (n + 6, rng.choice([None, n + 3]), n)):
            coeffs = [Fraction(0)] * (n + 6)
            if rng.random() < 0.85:
                num = rng.randint(1, 2**20) * rng.choice([-1, 1])
                coeffs[rng.randrange(n)] = Fraction(num, rng.randint(1, 9))
            if v != "z3":
                for k in rng.sample(range(n, n + 3), rng.randint(1, 3)):
                    coeffs[k] = Fraction(rng.randint(1, 2**20), rng.randint(1, 9))
            subs[v] = PowerSeries(coeffs, precision)
        terms = {(1, 1, 1): Fraction(rng.randint(1, 2**30), rng.randint(1, 12))}
        for _ in range(rng.randint(0, 3)):
            exp = tuple(rng.randint(0, 4) for _ in V3)
            terms[exp] = Fraction(rng.randint(1, 2**30) * rng.choice([-1, 1]), rng.randint(1, 12))
        cases.append((MultiPoly(V3, terms), subs))
    return cases


def test_lattice_compositions_match_fraction_reference(monkeypatch):
    for f, subs in _lattice_cases(150) + _cut_cases(20):
        for composed in _compose_both_ways(monkeypatch, f, subs):
            _assert_matches_reference(f, subs, composed)


def _shape_below_precision(f, subs):
    """(g, cut) for the substitutes f uses, read below their min precision:
    g is the gcd of the gaps between the nonzero exponents of those with two
    terms or more there (0 when there is none), and cut says that one with
    two terms or more in all has at most one there."""
    used = [subs[v] for i, v in enumerate(f.vars) if any(e[i] for e in f.terms)]
    precisions = [s.precision for s in used if s.precision is not None]
    n = min(precisions) if precisions else None
    g, cut = 0, False
    for s in used:
        support = [k for k, c in enumerate(s.coeffs[:n]) if c]
        if len(support) > 1:
            g = gcd(g, *(k - support[0] for k in support[1:]))
        elif sum(1 for c in s.coeffs if c) > 1:
            cut = True
    return g, cut


def test_lattice_cases_take_every_route(monkeypatch):
    # The cases of the lattice test on both paths: the monomial map (nothing
    # packed or convolved) when every substitute is one term and when one
    # is one term only below t^n, packed with g > 1 over two or more
    # residue classes, schoolbook with g > 1, and the dense lattice g = 1.
    routes, seen = set(), {}
    for f, subs in _lattice_cases(150) + _cut_cases(20):
        g, cut = _shape_below_precision(f, subs)
        for packed_max_bits in (1 << 40, 0):
            seen.clear()
            monkeypatch.setattr(series_module, "PACKED_MAX_BITS", packed_max_bits)
            _spy_on_the_sums(monkeypatch, seen)
            poly_compose_series(f, subs)
            monkeypatch.undo()
            taken = seen.get("sum")
            assert (taken is None) == (g == 0)
            if taken is None:
                routes.add(
                    "monomial, one term only below t^n" if cut else "monomial, every substitute one term"
                )
            elif g == 1:
                routes.add("g = 1")
            elif taken[0] == "_schoolbook_sum":
                routes.add("schoolbook, g > 1")
            elif taken[1] >= 2:
                routes.add("packed, g > 1, two or more residues")
    assert routes == {
        "monomial, every substitute one term", "monomial, one term only below t^n",
        "g = 1", "schoolbook, g > 1", "packed, g > 1, two or more residues",
    }


@given(polys(V2))
def test_derivative_drops_order_by_at_most_one(f):
    base = f.order_at_origin()
    for v in V2:
        d = f.derive(v)
        if d.is_zero() or base.is_infinite:
            continue
        assert d.order_at_origin().value >= base.value - 1


def _plain_algebra(fs):
    # weights above every variable degree: the Tschirnhausen rewrite cannot
    # fire, so closure output must literally contain the input generators
    pairs = [(f, f.total_degree() + 1) for f in fs if not f.is_zero()]
    return tuple(ReesGenerator(f, n) for f, n in pairs)


@settings(max_examples=40)
@given(st.lists(polys(V2, max_degree=2, max_terms=3, min_order=1), min_size=1, max_size=3))
def test_diff_closure_idempotent_and_extensive(fs):
    algebra = _plain_algebra(fs)
    if not algebra:
        return
    closed = diff_closure(algebra)
    keys = lambda a: {g.dedup_key() for g in a}
    assert len(keys(closed)) == len(closed)
    assert keys(algebra) <= keys(closed)
    assert keys(diff_closure(closed)) == keys(closed)


@settings(max_examples=40)
@given(st.lists(polys(V2, min_order=2, max_terms=3), min_size=1, max_size=2))
def test_closure_never_raises_order_at_singular_points(fs):
    pairs = [(f, 2) for f in fs if not f.is_zero() and f.order_at_origin().value >= 2]
    if not pairs:
        return
    algebra = tuple(ReesGenerator(f, n) for f, n in pairs)
    before = algebra_order_at(algebra, ORIGIN2)
    assert before.value >= 1
    after = algebra_order_at(diff_closure(algebra), ORIGIN2)
    assert after.value <= before.value


def test_tschirnhausen_split_reads_the_form_or_refuses_it():
    # f = lead x^b + top x^(b-1) + sum_{i<=b-2} B_i x^i over (x, z1, z2) with
    # a constant or non-constant lead, with or without the top term, and pure
    # powers lead x^b; read at b, and at b + 1, where f has no such form.
    rng = random.Random(20151120)
    variables = ("x",) + V2
    x = MultiPoly.variable(variables, "x")

    def base_poly(min_degree):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            e1 = rng.randint(0, 3)
            terms[0, e1, rng.randint(max(min_degree - e1, 0), 3)] = Fraction(
                rng.choice([-3, -1, 1, 2]), rng.choice([1, 2, 3])
            )
        return MultiPoly(variables, terms)

    outcomes = Counter()
    for k in range(600):
        b = rng.randint(2, 4)
        constant_lead, with_top, pure = k % 2 == 0, k % 3 == 0, k % 7 == 0
        c = Fraction(rng.choice([-3, -1, 1, 1, 2]), rng.choice([1, 1, 2, 3]))
        lead = MultiPoly.constant(variables, c)
        if not constant_lead:
            lead = lead + base_poly(1)
        f = lead * x**b
        if with_top and not pure:
            f = f + base_poly(0) * x ** (b - 1)
        if not pure:
            for i in range(b - 1):
                if rng.random() < 0.7:
                    f = f + base_poly(0) * x**i
        read_at = b + 1 if k % 5 == 0 else b
        has_form = read_at == b and constant_lead and not (with_top and not pure)
        got = _tschirnhausen_split(f, "x", read_at)
        assert (got is not None) == has_form, (str(f), read_at)
        if got is None:
            outcomes["none"] += 1
            continue
        assert all(i <= b - 2 for i in got), got
        monic = x**b
        for i, B in got.items():
            monic = monic + B * x**i
        assert lead * monic == f, (str(f), got)
        outcomes["pure" if pure else "unit lead" if c == 1 else "scaled"] += 1
    assert min(outcomes.values()) >= 20 and len(outcomes) == 4, outcomes


@st.composite
def centred_tschirnhausen(draw):
    """x^b + B_{b-2} x^{b-2} + ... + B_0 over d base variables, ord(B_i) >= b - i."""
    b = draw(st.integers(min_value=2, max_value=4))
    d = draw(st.integers(min_value=1, max_value=3))
    base = tuple(f"z{k}" for k in range(1, d + 1))
    coeffs = tuple(
        draw(polys(base, max_degree=b - i + 1, max_terms=3, min_order=b - i))
        for i in range(b - 1)
    )
    return TschirnhausenHypersurface("x", b, base, coeffs)


@seed(20151102)
@settings(max_examples=60, deadline=None)
@given(centred_tschirnhausen())
def test_closed_form_order_is_the_algebra_order(h):
    origin = (Fraction(0),) * len(h.base_vars)
    assert elimination_order(h) == algebra_order_at(h.elimination_algebra, origin)


@seed(20151103)
@settings(max_examples=200, deadline=None)
@given(centred_tschirnhausen())
def test_tschirnhausen_polynomial_is_the_ring_product_construction(h):
    # the exponent map of `polynomial` against x^b + sum B_i x^i built by
    # ring products, in canonical form and printed alike
    ambient = h.ambient_vars
    x = MultiPoly.variable(ambient, h.var)
    f = x**h.b
    for i, B in enumerate(h.coeffs):
        f = f + B.extend_vars(ambient) * x**i
    got = h.polynomial
    assert got == f and str(got) == str(f), (str(got), str(f))
    assert got.den > 0 and gcd(got.den, *got.nums.values()) == 1


# -- the t-chart move shared by the blow-ups and the Newton-Puiseux stages --------

XT = ("x", "t")
V2T = V2 + ("t",)


def _reference_chart(f, weights, drop=0):
    """The chart in t read off `terms`: each t-exponent becomes
    sum(w_v e_v) - drop, with weight 0 for a variable missing from the map;
    the other exponents stay as they are."""
    ti = f.vars.index("t")
    w = [weights.get(v, 0) for v in f.vars]
    out = {}
    for exp, c in f.terms.items():
        e = sum(a * b for a, b in zip(exp, w)) - drop
        assert e >= 0, f"t^{drop} does not divide a chart term in t^{e + drop}"
        out[exp[:ti] + (e,) + exp[ti + 1:]] = c
    return MultiPoly(f.vars, out)


@seed(20151031)
@settings(max_examples=80, deadline=None)
@given(
    polys(XT, max_degree=4, max_terms=5),
    st.integers(min_value=1, max_value=3),
    st.fractions(min_value=-3, max_value=3, max_denominator=3),
)
def test_weighted_chart_then_shift_is_substitution(f, m, c):
    # A Newton-Puiseux stage on the integer numerators of f is the
    # substitution x -> t^m (c + x), divided by its lowest power of t, up to
    # a positive constant, and primitive.
    if f.is_zero():
        return
    x = MultiPoly.variable(XT, "x")
    t = MultiPoly.variable(XT, "t")
    expected = f.substitute("x", t**m * (MultiPoly.constant(XT, c) + x)).terms
    low = min(j for _, j in expected)
    divided = {(i, j - low): a for (i, j), a in expected.items()}
    stage = generic_module._chart_stage(dict(f.nums), m, c)
    assert stage.keys() == divided.keys()
    ratios = {stage[key] / divided[key] for key in divided}
    assert len(ratios) == 1 and ratios.pop() > 0
    assert gcd(*stage.values()) == 1


arc_tails = st.lists(
    st.fractions(min_value=-2, max_value=2, max_denominator=2), min_size=1, max_size=3
)


@seed(20151101)
@settings(max_examples=80, deadline=None)
@given(polys(V2T, max_degree=3, max_terms=5, min_order=1), arc_tails, arc_tails)
def test_unit_chart_is_blow_up_then_division(f, tail1, tail2):
    # Along an arc of order at least 2 the center of a Nash step is the
    # origin, so the step is the blow-up z -> t z of every ambient variable
    # divided by t^m, m the multiplicity.  f minus its value on the arc, a
    # polynomial in t, vanishes on the arc.
    coords = {"z1": (0, 0, *tail1), "z2": (0, 0, *tail2)}
    on_arc = f
    for v, coeffs in coords.items():
        image = MultiPoly(V2T, {(0, 0, k): a for k, a in enumerate(coeffs)})
        on_arc = on_arc.substitute(v, image)
    g = f - on_arc
    if g.is_zero():
        return
    t = MultiPoly.variable(V2T, "t")
    blown = g
    for v in V2:
        blown = blown.substitute(v, MultiPoly.variable(V2T, v) * t)
    m = g.order_at_origin().value
    divided = MultiPoly(V2T, {e[:2] + (e[2] - m,): c for e, c in blown.terms.items()})
    assert min(e[2] for e in divided.terms) == 0
    state = nash_module.NashState.from_poly(g, {v: PowerSeries(c) for v, c in coords.items()})
    step = nash_module.nash_step(state, m)
    assert step.g == divided
    assert step.center_pq == ((0, 1), (0, 1))


# -- the integer Taylor shift against the term-by-term Fraction shift -------------


def _reference_shift_one(f, index, c):
    """Term by term in Fraction: coeff * C(e, k) * c^(e-k) into each y^k term."""
    out = {}
    for exp, coeff in f.terms.items():
        e = exp[index]
        base = list(exp)
        for k in range(e + 1):
            base[index] = k
            key = tuple(base)
            out[key] = out.get(key, Fraction(0)) + coeff * comb(e, k) * c ** (e - k)
    return MultiPoly(f.vars, out)


def _reference_translate(f, point):
    for i, c in enumerate(point):
        if c != 0:
            f = _reference_shift_one(f, i, Fraction(c))
    return f


SHIFT_VARS = {1: ("x",), 2: ("x", "t"), 3: ("x", "z", "t")}
shift_coeffs = st.fractions(min_value=-40, max_value=40, max_denominator=12).filter(
    lambda c: c != 0
)
shift_coords = st.one_of(
    st.just(Fraction(0)),
    st.integers(min_value=-5, max_value=5).map(Fraction),
    st.fractions(min_value=-5, max_value=5, max_denominator=9),
)


def shift_cases():
    def case(n):
        variables = SHIFT_VARS[n]
        exponents = st.tuples(*[st.integers(min_value=0, max_value=6) for _ in variables])
        terms = st.dictionaries(exponents, shift_coeffs, max_size=8)
        return st.tuples(
            terms.map(lambda t: MultiPoly(variables, t)),
            st.tuples(*[shift_coords for _ in variables]),
        )

    return st.integers(min_value=1, max_value=3).flatmap(case)


@seed(20151102)
@settings(max_examples=120, deadline=None)
@given(shift_cases())
def test_translate_matches_the_term_by_term_shift(case):
    f, point = case
    shifted = f.translate(point)
    assert shifted == _reference_translate(f, point)
    assert all(type(c) is Fraction and c != 0 for c in shifted.terms.values())
    assert shifted.translate([-c for c in point]) == f


def test_translate_of_the_zero_polynomial_is_zero():
    for variables in SHIFT_VARS.values():
        point = [Fraction(-3, 2)] * len(variables)
        assert MultiPoly(variables).translate(point).is_zero()


# -- binomial edge equations against the rational root theorem --------------------


def _reference_divisors(n):
    """Divisors of n from its factorization by trial division (fast on smooth n)."""
    n = abs(n)
    divisors = [1]
    p = 2
    while n > 1:
        if p * p > n:
            p = n
        k = 0
        while n % p == 0:
            n //= p
            k += 1
        divisors = [d * p**e for d in divisors for e in range(k + 1)]
        p += 1
    return sorted(divisors)


def _reference_rational_roots(coeffs):
    """Every root p/q in lowest terms has p | a_0 and q | a_n: try them all."""
    denom = lcm(*(c.denominator for c in coeffs))
    ints = [int(c * denom) for c in coeffs]
    n = len(ints) - 1
    roots = set()
    for p in _reference_divisors(ints[0]):
        for q in _reference_divisors(ints[-1]):
            if gcd(p, q) != 1:
                continue
            for cand in (p, -p):  # q^n f(cand/q) == 0
                if sum(a * cand**k * q ** (n - k) for k, a in enumerate(ints)) == 0:
                    roots.add(Fraction(cand, q))
    return roots


@st.composite
def binomials(draw):
    """a_0 + a_b c^b, b >= 3: perfect powers -lead s^b of either sign, or any a_0."""
    b = draw(st.integers(min_value=3, max_value=6))
    lead = draw(st.integers(min_value=-12, max_value=12).filter(lambda v: v != 0))
    if draw(st.booleans()):
        s = Fraction(
            draw(st.integers(min_value=1, max_value=6)), draw(st.integers(min_value=1, max_value=4))
        )
        a0 = lead * s**b * draw(st.sampled_from([-1, 1]))
    else:
        a0 = Fraction(draw(st.integers(min_value=-5000, max_value=5000).filter(lambda v: v != 0)))
    scale = draw(st.fractions(min_value=-3, max_value=3, max_denominator=7).filter(lambda v: v != 0))
    return [a0 * scale] + [Fraction(0)] * (b - 1) + [lead * scale]


@seed(20151103)
@settings(max_examples=200, deadline=None)
@given(binomials())
def test_binomial_edge_roots_match_the_divisor_scan(coeffs):
    roots = _rational_roots(coeffs)
    expected = _reference_rational_roots(coeffs)
    assert len(roots) == len(set(roots))
    assert set(roots) == expected
    if expected:
        assert _pick_root(roots) == _pick_root(list(expected))


def test_binomial_edge_roots_with_a_big_constant():
    two = Fraction(2)
    assert _rational_roots([-(two**75), 0, 0, 1]) == [2**25]
    assert _rational_roots([-(two**71), 0, 0, 1]) == []
    assert set(_rational_roots([-(two**72) / 3**4, 0, 0, 0, 1])) == {
        Fraction(2**18, 3),
        Fraction(-(2**18), 3),
    }
    assert _rational_roots([two**72, 0, 0, 0, 1]) == []


def test_binomial_edge_roots_with_constants_of_thousands_of_bits():
    one = Fraction(1)
    # c^6 -+ 2^3000: two roots of 501 bits, or none
    assert set(_rational_roots([-(one * 2**3000), 0, 0, 0, 0, 0, 1])) == {2**500, -(2**500)}
    assert _rational_roots([one * 2**3000, 0, 0, 0, 0, 0, 1]) == []
    # 729 c^6 - 2^3000: the roots +-2^500/3 of a non-monic binomial
    assert set(_rational_roots([-(one * 2**3000), 0, 0, 0, 0, 0, 3**6])) == {
        Fraction(2**500, 3),
        Fraction(-(2**500), 3),
    }
    # odd degree: a negative constant gives the positive root, a positive one the negative
    assert _rational_roots([-(one * 3**1000), 0, 0, 0, 0, 1]) == [3**200]
    assert _rational_roots([one * 3**1000, 0, 0, 0, 0, 1]) == [-(3**200)]
    assert _rational_roots([-(one * 3**1000), 0, 0, 0, 0, -1]) == [-(3**200)]
    # a constant that is no sixth or fifth power: no root
    assert _rational_roots([-(one * (2**3000 + 1)), 0, 0, 0, 0, 0, 1]) == []
    assert _rational_roots([-(one * (3**1000 - 1)), 0, 0, 0, 0, 1]) == []


def test_binomial_edge_roots_of_degree_two_thousand():
    # c^2000 - 1 is read as u - 1 in u = c^2000, which is linear, so no root
    # of degree 2,000 is lifted.
    import time

    start = time.perf_counter()
    assert set(_rational_roots([Fraction(-1)] + [0] * 1999 + [1])) == {1, -1}
    assert time.perf_counter() - start < 0.1


def test_edge_roots_of_degree_above_the_recursion_limit():
    # c^1201 + c - 2 = (c - 1)(c^1200 + ... + c + 2), exponents of gcd 1, is
    # no polynomial in a power of c: its squarefree part and the lifts of its
    # roots are loops, so a degree above the interpreter's default recursion
    # limit of 1,000 needs no deeper stack.
    assert _rational_roots([Fraction(-2), 1] + [0] * 1199 + [1]) == [1]


def test_edge_roots_in_a_power_of_c_by_hand():
    one = Fraction(1)
    # (c^2 - 4)(4 c^2 - 9): u = 4 and 9/4 give +-2 and +-3/2
    assert set(_rational_roots([36 * one, 0, -25, 0, 4])) == {2, -2, Fraction(3, 2), Fraction(-3, 2)}
    # (c^2 + 1)(c^2 + 4): u = -1 and -4 have no even root
    assert _rational_roots([4 * one, 0, 5, 0, 1]) == []
    # (c^3 + 1)(c^3 + 8): an odd g keeps the sign, c = -1 and -2
    assert set(_rational_roots([8 * one, 0, 0, 9, 0, 0, 1])) == {-1, -2}
    # (c^2 - 2)(c^2 - 9/4): u = 2 is no square, 9/4 is
    assert set(_rational_roots([18 * one, 0, -17, 0, 4])) == {Fraction(3, 2), Fraction(-3, 2)}
    # 2^3000 c^6 - 3^6 in u = c^6: +-3/2^500, numerator and denominator rooted apart
    assert set(_rational_roots([-(3**6) * one, 0, 0, 0, 0, 0, 2**3000])) == {
        Fraction(3, 2**500), Fraction(-3, 2**500),
    }


def _poly_product(a, b):
    return [sum(a[i] * b[k - i] for i in range(len(a)) if 0 <= k - i < len(b)) for k in range(len(a) + len(b) - 1)]


# numerators 2^a 3^b up to 2^25 3, so three of them reach constants of 2^75
smooth_numerators = st.builds(
    lambda a, b, sign: sign * 2**a * 3**b,
    st.integers(min_value=0, max_value=25),
    st.integers(min_value=0, max_value=1),
    st.sampled_from([-1, 1]),
)


@st.composite
def middle_term_edges(draw):
    """lead * prod (q c - p) * cofactor of degree >= 3 with a middle term.

    Roots may repeat; the cofactor has no rational root (c^2 + k, c^2 - 7),
    or is any small polynomial with a smooth constant term.
    """
    pool = draw(
        st.lists(
            st.tuples(smooth_numerators, st.sampled_from([1, 2, 3, 4, 9])), min_size=1, max_size=3
        )
    )
    roots = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
    cofactor = draw(
        st.sampled_from(
            [[1], [1, 0, 1], [3, 0, 1], [-7, 0, 1], [1, 1, 1], [2, -3, 0, 5], [-6, 1, 1]]
        )
    )
    lead = draw(st.integers(min_value=-12, max_value=12).filter(lambda v: v != 0))
    f = [lead]
    for p, q in roots:
        f = _poly_product(f, [-p, q])
    f = _poly_product(f, cofactor)
    assume(len(f) >= 4 and any(f[1:-1]))
    scale = draw(st.fractions(min_value=-3, max_value=3, max_denominator=7).filter(lambda v: v != 0))
    return [Fraction(a) * scale for a in f]


@seed(20151108)
@settings(max_examples=250, deadline=None)
@given(middle_term_edges())
def test_middle_term_edge_roots_match_the_divisor_scan(coeffs):
    roots = _rational_roots(coeffs)
    expected = _reference_rational_roots(coeffs)
    assert len(roots) == len(set(roots))
    assert set(roots) == expected
    if expected:
        assert _pick_root(roots) == _pick_root(list(expected))


@st.composite
def edges_in_a_power(draw):
    """A middle-term edge P(u) read in u = c^g, g from 2 to 4: its roots are
    the rational g-th roots of P's, with both signs when g is even."""
    f = draw(middle_term_edges())
    g = draw(st.integers(min_value=2, max_value=4))
    out = [Fraction(0)] * ((len(f) - 1) * g + 1)
    out[::g] = f
    return out


@seed(20151111)
@settings(max_examples=120, deadline=None)
@given(edges_in_a_power())
def test_edge_roots_in_a_power_of_c_match_the_divisor_scan(coeffs):
    roots = _rational_roots(coeffs)
    assert len(roots) == len(set(roots))
    assert set(roots) == _reference_rational_roots(coeffs)


def test_middle_term_edge_roots_with_repeats_and_big_constants():
    one = Fraction(1)
    # (c^2 - 1)^2, the quartic_middle edge: two double roots
    assert set(_rational_roots([one, 0, -2, 0, 1])) == {1, -1}
    # (c - 2^25)^3 with a negative lead: constant 2^75, one triple root
    cube = [-(one * 2**75), 3 * 2**50, -3 * 2**25, one]
    assert _rational_roots([-a for a in cube]) == [2**25]
    # c^3 + c + 2^71 (the edge of x^3 + z^2 x + 2^71 z^3) has no rational root
    assert _rational_roots([one * 2**71, 1, 0, 1]) == []
    # (3c - 2^24)(c + 5)(c^2 + 1): the roots 2^24/3 and -5 past a cofactor
    f = _poly_product(_poly_product([-(2**24), 3], [5, 1]), [1, 0, 1])
    assert set(_rational_roots([Fraction(a) for a in f])) == {Fraction(2**24, 3), -5}


@st.composite
def quadratic_edges(draw):
    """lead * (q c - p)(q' c - p'), the roots distinct or repeated, or
    lead * (c^2 + k c + m) with no rational root, p, k and m smooth: the
    middle term is nonzero, so the edge stays quadratic in u = c^g."""
    lead = draw(st.integers(min_value=-12, max_value=12).filter(lambda v: v != 0))
    shape = draw(st.sampled_from(["distinct", "repeated", "irreducible"]))
    if shape == "irreducible":
        k, m = draw(smooth_numerators), draw(smooth_numerators)
        disc = k * k - 4 * m
        assume(disc < 0 or isqrt(disc) ** 2 != disc)
        f = [lead * m, lead * k, lead]
    else:
        root = st.tuples(smooth_numerators, st.sampled_from([1, 2, 3, 4, 9]))
        p, q = draw(root)
        p2, q2 = (p, q) if shape == "repeated" else draw(root)
        assume(shape == "repeated" or p * q2 != p2 * q)
        f = _poly_product([-lead * p, lead * q], [-p2, q2])
    assume(f[1] != 0)
    scale = draw(st.fractions(min_value=-3, max_value=3, max_denominator=7).filter(lambda v: v != 0))
    return [Fraction(a) * scale for a in f]


@seed(20151204)
@settings(max_examples=200, deadline=None)
@given(quadratic_edges())
def test_quadratic_edge_roots_match_the_divisor_scan(coeffs):
    roots = _rational_roots(coeffs)
    expected = _reference_rational_roots(coeffs)
    assert len(roots) == len(set(roots))
    assert set(roots) == expected
    if expected:
        assert _pick_root(roots) == _pick_root(list(expected))


def test_quadratic_edge_roots_of_thousands_of_bits():
    def roots_of(*factors):
        f = [1]
        for factor in factors:
            f = _poly_product(f, factor)
        return set(_rational_roots([Fraction(a) for a in f]))

    # (c - 2^1000)(c - 3 2^999) = c^2 - 5 2^999 c + 3 2^1999
    assert roots_of([-(2**1000), 1], [-3 * 2**999, 1]) == {2**1000, 3 * 2**999}
    # (3c - 2^2000)^2, a double root of a non-monic quadratic
    assert roots_of([-(2**2000), 3], [-(2**2000), 3]) == {Fraction(2**2000, 3)}
    # (2^1500 c + 1)(c - 3^2000): a lead of 1,501 bits
    assert roots_of([1, 2**1500], [-(3**2000), 1]) == {Fraction(-1, 2**1500), 3**2000}
    # c^2 + 2^1000 c + 1: the discriminant 4 (2^1998 - 1) lies strictly
    # between (2^1000 - 2)^2 and (2^1000)^2, so no rational root
    assert roots_of([1, 2**1000, 1]) == set()
    # c^2 + c - 2^3000: the discriminant 2^3002 + 1 is one past a square
    assert roots_of([-(2**3000), 1, 1]) == set()
    # (c - 2^15000)(c + 3^9000): a constant of about 29,300 bits
    assert roots_of([-(2**15000), 1], [3**9000, 1]) == {2**15000, -(3**9000)}


@st.composite
def far_root_edges(draw):
    """lead * prod (q c - p) * cofactor with roots p/q up to 2^90 3^3 and a
    cofactor whose real roots, if any, are irrational and up to 2^80: long
    brackets, closed by halving the bit length and then by Newton steps."""
    roots = draw(
        st.lists(
            st.tuples(
                st.builds(
                    lambda a, b, sign: sign * 2**a * 3**b,
                    st.integers(min_value=0, max_value=90),
                    st.integers(min_value=0, max_value=3),
                    st.sampled_from([-1, 1]),
                ),
                st.sampled_from([1, 2, 3, 4, 9]),
            ),
            max_size=3,
        )
    )
    k = draw(st.integers(min_value=0, max_value=80))
    cofactor = draw(
        st.sampled_from(
            [[1], [-2 * 4**k, 0, 1], [4**k, 0, 1], [-3 * 4**k, 0, 0, 0, 1], [2 * 8**k, 0, 0, 1]]
        )
    )
    lead = draw(st.integers(min_value=-12, max_value=12).filter(lambda v: v != 0))
    f = [lead]
    for p, q in roots:
        f = _poly_product(f, [-p, q])
    f = _poly_product(f, cofactor)
    assume(len(f) >= 4 and f[0])
    return [Fraction(a) for a in f]


@seed(20151202)
@settings(max_examples=150, deadline=None)
@given(far_root_edges())
def test_far_edge_roots_match_the_divisor_scan(coeffs):
    roots = _rational_roots(coeffs)
    assert len(roots) == len(set(roots))
    assert set(roots) == _reference_rational_roots(coeffs)


def test_sextic_edge_roots_with_a_constant_at_the_bit_limit():
    from nashres.parsing import MAX_CONSTANT_BITS

    k = MAX_CONSTANT_BITS // 6 - 3
    one = Fraction(1)
    assert MAX_CONSTANT_BITS - 32 < (2 ** (6 * k) * 3**7).bit_length() <= MAX_CONSTANT_BITS
    # c^6 - 2^(6k): the roots +-2^k; one more in the constant leaves no root
    assert set(_rational_roots([-(one * 2 ** (6 * k)), 0, 0, 0, 0, 0, 1])) == {2**k, -(2**k)}
    assert _rational_roots([-(one * (2 ** (6 * k) + 1)), 0, 0, 0, 0, 0, 1]) == []
    # 3 c^6 - 2^(6k) 3^7, the same with a lead: the roots +-3 2^k
    assert set(_rational_roots([-(one * 2 ** (6 * k) * 3**7), 0, 0, 0, 0, 0, 3])) == {
        3 * 2**k, -3 * 2**k,
    }


@pytest.mark.parametrize("n", [400, 1200])
def test_edge_roots_of_a_non_binomial_edge_of_high_degree(n):
    # (c - 1)(c^n + 2) = c^(n+1) - c^n + 2c - 2: every derivative keeps a
    # second term, and isolating real roots up the derivative chain took
    # 28.6 s at n = 400 and did not finish at n = 1,200.
    import time

    start = time.perf_counter()
    assert _rational_roots([Fraction(-2), 2] + [0] * (n - 2) + [-1, 1]) == [1]
    assert time.perf_counter() - start < 2.0


def test_edge_roots_of_an_edge_with_a_double_root():
    # (c - 1)^2 (c + 2) = c^3 - 3c + 2: its derivative vanishes at 1, so no
    # modulus makes the root 1 simple, and only the squarefree part
    # c^2 + c - 2 lifts.  A search for a modulus that never ends fails here,
    # as it runs in its own process.
    import os
    import subprocess
    from pathlib import Path

    code = (
        "from fractions import Fraction; from nashres.generic import _rational_roots; "
        "print(*sorted(_rational_roots([Fraction(v) for v in (2, -3, 0, 1)])))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(generic_module.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=10
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["-2", "1"]


def test_integer_root_lifts_grow_with_the_log_of_the_bit_length(monkeypatch):
    # (y - 2^k)(y^2 - 3): the root bound has about k bits, and each squaring
    # of the modulus doubles its bits, so 30 times the bits cost about
    # log2(30) more squarings of two evaluations each, where isolating
    # by bisection would cost about 29,000 more evaluations.
    counts = []
    real = generic_module._horner
    for k in (1000, 30000):
        evaluations = []

        def counted(*args):
            evaluations.append(args[1])
            return real(*args)

        monkeypatch.setattr(generic_module, "_horner", counted)
        g = [3 * 2**k, -3, -(2**k), 1]
        assert _integer_roots(g) == [2**k]
        counts.append(len(evaluations))
    assert counts[1] - counts[0] <= 4 * (30000 // 1000).bit_length(), counts


@st.composite
def sparse_edges_with_a_planted_root(draw):
    """(q c - p)^k times a sparse cofactor, k = 1 or 2: degree 50-400, 3-5
    small nonzero terms in the cofactor, a constant term among them."""
    n = draw(st.integers(min_value=49, max_value=398))
    small = st.integers(min_value=-9, max_value=9).filter(lambda v: v != 0)
    inner = draw(st.lists(st.integers(min_value=1, max_value=n - 1), min_size=1, max_size=3, unique=True))
    cofactor = [0] * (n + 1)
    for k in [0, n] + inner:
        cofactor[k] = draw(small)
    p = draw(small)
    q = draw(st.integers(min_value=1, max_value=6))
    f = cofactor
    for _ in range(draw(st.integers(min_value=1, max_value=2))):
        f = _poly_product(f, [-p, q])
    return [Fraction(a) for a in f]


@seed(20151203)
@settings(max_examples=30, deadline=None)
@given(sparse_edges_with_a_planted_root())
def test_sparse_edge_roots_of_high_degree_match_the_divisor_scan(coeffs):
    roots = _rational_roots(coeffs)
    expected = _reference_rational_roots(coeffs)
    assert Fraction(coeffs[0]) != 0 and expected
    assert len(roots) == len(set(roots))
    assert set(roots) == expected


# -- the integer Newton-Puiseux loop against the MultiPoly loop it replaced -------


def _reference_lower_hull(points):
    """The lower convex hull of lattice points, by the monotone chain: its
    vertices from the leftmost point, collinear points dropped."""
    hull = []
    for pt in sorted(points):
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (x2 - x1) * (pt[1] - y1) - (y2 - y1) * (pt[0] - x1) <= 0:
                hull.pop()
            else:
                break
        hull.append(pt)
    return hull


def _sympy_rational_roots(coeffs):
    """The distinct rational roots of sum coeffs[i] c^i, found by sympy."""
    sympy = pytest.importorskip("sympy")
    rationals = [sympy.Rational(a.numerator, a.denominator) for a in reversed(coeffs)]
    poly = sympy.Poly(rationals, sympy.Symbol("c"), domain="QQ")
    return [Fraction(int(r.p), int(r.q)) for r in poly.ground_roots()]


def _reference_series(found, precision):
    """sum c t^k over the (c, k) found, known below t^precision."""
    coeffs = [Fraction(0)] * (max((k for _, k in found), default=-1) + 1)
    for c, k in found:
        coeffs[k] += c
    return PowerSeries(coeffs, precision)


def _reference_newton_puiseux_root(F, xvar, precision):
    """The Fraction-valued MultiPoly stage loop: the reference chart, the
    term-by-term Taylor shift above (independent of the integer kernel), the
    reference chart.  A residual is cut above the target only while its root
    is simple (its x-coefficient has a nonzero constant term), where the
    dropped terms cannot reach a coefficient below the target; so a root
    found is exact only when it is a polynomial root of F itself, which
    `MultiPoly.substitute` decides once F vanishes at (root(2), 2^e).  It
    shares no code with `generic`: sympy finds each edge's rational roots,
    the root taken is the least by |numerator|, then by denominator, positive
    first, and the series is assembled here."""
    t_index = F.vars.index("t")
    t_order = lambda c: min(exp[t_index] for exp in c.terms)
    e, target, found, shift, cur = 1, precision, [], 0, F
    while True:
        bound = max(target - shift, 1)
        coeffs = cur.coefficients_in(xvar)
        if 1 in coeffs and any(exp[t_index] == 0 for exp in coeffs[1].terms):
            cur = MultiPoly(cur.vars, {exp: c for exp, c in cur.terms.items() if exp[t_index] < bound})
            coeffs = cur.coefficients_in(xvar)
        c0 = coeffs.get(0)
        if c0 is None or c0.is_zero():
            at_two = [sum(c * 2**k for c, k in found) if v == xvar else 2**e for v in F.vars]
            root = MultiPoly(F.vars, {tuple(k if v == "t" else 0 for v in F.vars): c for c, k in found})
            exact = F.eval_at(at_two) == 0 and (
                _reference_chart(F, {"t": e}).substitute(xvar, root).is_zero()
            )
            return _reference_series(found, None if exact else target), e
        points = [(i, t_order(c)) for i, c in coeffs.items() if not c.is_zero()]
        hull = _reference_lower_hull(points)
        if len(hull) < 2 or hull[1][1] >= hull[0][1]:
            raise ExtensionRequiredError("no branch through the origin")
        (i0, v0), (i1, v1) = hull[0], hull[1]
        gamma = Fraction(v0 - v1, i1 - i0)
        q = gamma.denominator
        if q > 1:
            cur = _reference_chart(cur, {"t": q})
            e, target, shift = e * q, target * q, shift * q
            found = [(c, k * q) for c, k in found]
            v0, gamma = v0 * q, gamma * q
        m = int(gamma)
        if shift + m >= target:
            return _reference_series(found, target), e
        coeffs = cur.coefficients_in(xvar)
        edge_coeffs = [Fraction(0)] * (i1 - i0 + 1)
        for i, c in coeffs.items():
            if not c.is_zero() and i0 <= i <= i1 and t_order(c) == v0 - m * (i - i0):
                exp = [0] * len(F.vars)
                exp[t_index] = v0 - m * (i - i0)
                edge_coeffs[i - i0] = c.terms.get(tuple(exp), Fraction(0))
        while edge_coeffs and edge_coeffs[-1] == 0:
            edge_coeffs.pop()
        roots = [r for r in _sympy_rational_roots(edge_coeffs) if r != 0]
        if not roots:
            raise ExtensionRequiredError("no nonzero rational root")
        c = min(roots, key=lambda r: (abs(r.numerator), r.denominator, r < 0))
        found.append((c, shift + m))
        cur = _reference_chart(cur, {"t": 1, xvar: m})
        cur = _reference_shift_one(cur, cur.vars.index(xvar), c)
        cur = _reference_chart(cur, {"t": 1}, drop=min(exp[t_index] for exp in cur.terms))
        shift += m


small_units = st.sampled_from(sorted({Fraction(a, b) for a in range(-3, 4) if a for b in (1, 2, 3)}))


@st.composite
def bivariate_equations(draw):
    """x-degree 2..4 in Q[x, t]: a product of factors (x - a t^k)^e - c t^p,
    plus a few further terms that may sit below, on or above the Newton
    polygon.  A factor with a != 0 and p > ke gives a stage with root a
    (non-integer when a is), then an edge of slope (p - ke)/e: ramified
    when e does not divide p - ke, with rational roots when c is an e-th
    power and irrational ones otherwise."""
    x, t = MultiPoly.variable(XT, "x"), MultiPoly.variable(XT, "t")
    degree = draw(st.integers(min_value=2, max_value=4))
    F = MultiPoly.constant(XT, 1)
    left = degree
    while left:
        e = draw(st.integers(min_value=1, max_value=left))
        a = draw(st.sampled_from([0]) | small_units)
        k = draw(st.integers(min_value=1, max_value=2))
        p = draw(st.integers(min_value=1, max_value=5)) + (k * e if a else 0)
        c = draw(small_units)
        if draw(st.booleans()):
            c = c**e
        F = F * ((x - (t**k).scale(a)) ** e - (t**p).scale(c))
        left -= e
    terms = dict(F.terms)
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        key = (draw(st.integers(min_value=0, max_value=degree - 1)), draw(st.integers(min_value=1, max_value=14)))
        terms[key] = terms.get(key, 0) + draw(small_units)
    scale = draw(small_units) * draw(st.sampled_from([1, -5, Fraction(5, 4)]))
    return MultiPoly(XT, {key: c * scale for key, c in terms.items()})


def _lift(F, xvar, precision):
    """The code under test: the singular part of the branch, then its regular part."""
    return _newton_puiseux_root(_singular_part(F, xvar, precision))


def _root_or_error(solve, F, precision):
    try:
        return solve(F, "x", precision)
    except ExtensionRequiredError:
        return ExtensionRequiredError


@seed(20151109)
@settings(max_examples=300, deadline=None)
@given(bivariate_equations(), st.integers(min_value=1, max_value=24))
def test_integer_puiseux_loop_matches_the_multipoly_loop(F, precision):
    assert _root_or_error(_lift, F, precision) == _root_or_error(
        _reference_newton_puiseux_root, F, precision
    )


def test_puiseux_loop_cases_cover_every_kind_of_branch():
    # The equations of the differential test reach every outcome of the loop.
    outcomes = set()

    @seed(20151109)
    @settings(max_examples=300, deadline=None, database=None)
    @given(bivariate_equations(), st.integers(min_value=1, max_value=24))
    def classify(F, precision):
        orders = {}
        for i, j in F.terms:
            orders[i] = min(j, orders.get(i, j))
        if len(_reference_lower_hull(list(orders.items()))) >= 3:
            outcomes.add("several edges")
        result = _root_or_error(_lift, F, precision)
        if result is ExtensionRequiredError:
            outcomes.add("extension")
            return
        root, e = result
        outcomes.add("exact" if root.is_exact else "truncated")
        if e > 1:
            outcomes.add("ramified")
        if sum(1 for c in root.coeffs if c) >= 3:
            outcomes.add("three or more stages")

    classify()
    assert outcomes == {
        "several edges", "extension", "exact", "truncated", "ramified", "three or more stages"
    }


def _reference_first_edge(cur):
    """_steepest_edge(cur) read off the lower hull of the points (i, least
    t-degree at x-degree i): its first edge, slope and edge equation."""
    orders = {}
    for i, j in cur:
        orders[i] = min(j, orders.get(i, j))
    if 0 not in orders:
        return None
    hull = _reference_lower_hull(list(orders.items()))
    if len(hull) < 2 or hull[1][1] >= hull[0][1]:
        return ExtensionRequiredError
    (_, v0), (i1, v1) = hull[0], hull[1]
    slope = Fraction(v0 - v1, i1)
    edge = []
    for i in range(i1 + 1):
        j = v0 - slope * i
        edge.append(cur.get((i, int(j)), 0) if j.denominator == 1 else 0)
    return slope.numerator, slope.denominator, edge


def test_steepest_edge_is_the_first_edge_of_the_lower_hull():
    # Random supports; supports with further points on the first edge, which
    # must end at the farthest of them; supports with no descending edge;
    # and supports with no x-free term.
    rng = random.Random(20151113)
    outcomes = Counter()
    for k in range(800):
        shape = k % 4
        cur = {}
        for _ in range(rng.randint(1, 8)):
            cur[rng.randint(0, 6), rng.randint(0, 12)] = rng.choice([-3, -1, 1, 2, 5])
        if shape == 1:  # points on a line of slope -m/q from (0, v0)
            m, q = rng.randint(1, 3), rng.randint(1, 3)
            v0 = m * rng.randint(2, 4)
            for n in range(v0 // m + 1):
                if n == 0 or rng.random() < 0.7:
                    cur[n * q, v0 - n * m] = rng.choice([-2, 1, 3])
            cur = {(i, j): a for (i, j), a in cur.items() if m * i + q * j >= q * v0}
        elif shape == 2:  # nothing below the x-free term's t-degree
            v0 = rng.randint(0, 5)
            cur = {(i, max(j, v0)): a for (i, j), a in cur.items() if i} or {(1, v0): 1}
            cur[0, v0] = 1
        elif shape == 3:  # no x-free term
            cur = {(i + 1, j): a for (i, j), a in cur.items()}
        expected = _reference_first_edge(cur)
        try:
            got = _steepest_edge(cur)
        except ExtensionRequiredError:
            got = ExtensionRequiredError
        assert got == expected, cur
        if expected is None or expected is ExtensionRequiredError:
            outcomes[expected] += 1
        else:
            outcomes["edge"] += 1
            assert got[2][0] != 0, cur  # so 0 is never a root of an edge equation
            if sum(1 for a in expected[2] if a) >= 3:
                outcomes["collinear"] += 1
    assert set(outcomes) == {None, ExtensionRequiredError, "edge", "collinear"}
    assert min(outcomes.values()) >= 50, outcomes


# -- the Newton tail against the stage loop, at long precisions ------------------


@st.composite
def tail_equations(draw):
    """(F, precision): a branch of order p/q in Q[x, t] times a cofactor whose
    branches have lower order, so that the steepest edge is the branch's,
    at precision 24..200.

    The branch is x^q - a t^p (1 + d t^r) for q = 2, 3, a binomial series
    (ramified when q does not divide p; its tail lies in a power of t), or
    x - phi(t) for a polynomial phi, an exact root that the tail finds, also
    behind a term at t-degree >= 201 added to the cofactor, past every target.
    A further term, on or above the Newton polygon or below it, sometimes
    turns the root into a dense series or moves the branch."""
    x, t = MultiPoly.variable(XT, "x"), MultiPoly.variable(XT, "t")
    one = MultiPoly.constant(XT, 1)
    q = draw(st.integers(min_value=1, max_value=3))
    p = draw(st.integers(min_value=2, max_value=5))
    if q == 1:
        branch = x
        for k in range(p, p + draw(st.integers(min_value=1, max_value=4))):
            branch = branch - (t**k).scale(draw(small_units))
    else:
        a = draw(small_units)
        if draw(st.booleans()):
            a = a**q
        r = draw(st.integers(min_value=1, max_value=3))
        branch = x**q - (t**p).scale(a) * (one + (t**r).scale(draw(small_units)))
    cofactor = one
    e = draw(st.integers(min_value=0, max_value=2))
    if e:  # a branch of order k/e < p/q
        k = draw(st.integers(min_value=1, max_value=max(1, -(-p * e // q) - 1)))
        cofactor = x**e - (t**k).scale(draw(small_units))
    if draw(st.booleans()):
        cofactor = cofactor + (t ** draw(st.integers(min_value=201, max_value=204))).scale(draw(small_units))
    F = branch * cofactor
    if draw(st.integers(min_value=0, max_value=2)) == 0:
        i = draw(st.integers(min_value=0, max_value=2))
        F = F + (x**i * t ** draw(st.integers(min_value=1, max_value=12))).scale(draw(small_units))
    return F, draw(st.integers(min_value=24, max_value=200))


@seed(20151112)
@settings(max_examples=40, deadline=None)
@given(tail_equations())
def test_newton_tail_matches_the_multipoly_loop(case):
    F, precision = case
    assert _root_or_error(_lift, F, precision) == _root_or_error(
        _reference_newton_puiseux_root, F, precision
    )


def test_newton_tail_cases_cover_every_kind_of_tail(monkeypatch):
    # The equations of the tail test reach a compressed tail after ramification,
    # a dense tail, a polynomial root confirmed exact after the probe, and
    # one behind a cofactor term at t-degree >= 201, which comes back exact.
    # A polynomial root never comes back truncated.
    outcomes, compressions = set(), []
    tail = generic_module._hensel_tail

    def spy(cur, n):
        nums, den, g = tail(cur, n)
        compressions.append(g)
        return nums, den, g

    monkeypatch.setattr(generic_module, "_hensel_tail", spy)

    @seed(20151112)
    @settings(max_examples=40, deadline=None, database=None)
    @given(tail_equations())
    def classify(case):
        F, precision = case
        compressions.clear()
        result = _root_or_error(_lift, F, precision)
        if result is ExtensionRequiredError or not compressions:
            return
        root, e = result
        if e > 1 and compressions[0] > 1 and not root.is_exact:
            outcomes.add("ramified, compressed tail")
        if compressions[0] == 1 and not root.is_exact:
            outcomes.add("dense tail")
        if root.is_exact:
            outcomes.add("exact after the probe")
            if max(j for _, j in F.terms) >= 201:
                outcomes.add("exact behind a term at t-degree >= 201")
            return
        substitutes = {"x": PowerSeries(root.coeffs), "t": PowerSeries.t_power(1)}
        image = poly_compose_series(_reference_chart(F, {"t": e}), substitutes)
        assert not image.is_exactly_zero(), f"the polynomial root {root} came back truncated"

    classify()
    assert outcomes == {
        "ramified, compressed tail", "dense tail", "exact after the probe",
        "exact behind a term at t-degree >= 201",
    }


@pytest.mark.parametrize(
    "cur, n",
    [
        # the tail of quartic_middle (x^4 - 2 z^3 x^2 + z^6 - z^7) at alpha 1
        (
            {(1, 0): 64, (2, 0): 64, (0, 1): 8, (1, 1): 48, (2, 1): 96, (3, 1): 64, (0, 2): 1,
             (1, 2): 8, (2, 2): 24, (3, 2): 32, (4, 2): 16},
            188,
        ),
        ({(1, 0): 3, (0, 2): -2, (2, 2): 5, (3, 4): 7}, 61),  # compressed, s = t^2
        ({(1, 0): -7, (0, 1): 3, (2, 0): 5, (2, 3): 1}, 40),
    ],
)
def test_newton_tail_builds_one_set_of_powers_per_doubling(monkeypatch, cur, n):
    # A doubling to s^p2 builds y^2, ..., y^b once, b the x-degree: its only
    # products of two series without a constant term, each cut below s^p2.
    # P(y) and P'(y) are read from those powers; nothing is composed.
    powers, composed = Counter(), []
    for name in ("_square", "_convolve"):
        real = getattr(series_module, name)

        def spy(*args, real=real):
            *factors, cut = args
            if all(not f or f[0] == 0 for f in factors):
                powers[cut] += 1
            return real(*args)

        monkeypatch.setattr(generic_module, name, spy, raising=False)
    compose = generic_module.compose_integers
    monkeypatch.setattr(
        generic_module, "compose_integers", lambda *args: composed.append(args) or compose(*args)
    )
    nums, den, g = generic_module._hensel_tail(cur, n)
    monkeypatch.undo()
    assert composed == []
    assert len(powers) == (-(-n // g) - 1).bit_length()  # one cut per doubling
    assert max(powers.values()) <= max(i for i, _ in cur) - 1
    # and y is the root below t^n
    y = [0] * (g * len(nums))
    y[::g] = nums
    image = series_module.compose_integers(
        cur, 1, (PowerSeries.from_integers(y, den, n), PowerSeries.t_power(1))
    )
    assert nums[0] == 0 and image.is_zero_to_precision() and image.precision == n


# -- orders of images from leading terms -----------------------------------------


def _reference_order(f, subs):
    """The order of f(subs) read off the Fraction reference composition."""
    coeffs, prec = _reference_compose(f, subs)
    k = next((k for k, c in enumerate(coeffs) if c), None)
    if k is not None:
        return ExtOrder.exact(k)
    return INFINITE if prec is None else ExtOrder.at_least(prec)


_SMALL_FRACTIONS = st.builds(
    Fraction, st.integers(min_value=-5, max_value=5), st.integers(min_value=1, max_value=7)
)
_NONZERO_FRACTIONS = st.builds(
    Fraction, st.integers(min_value=1, max_value=5) | st.integers(min_value=-5, max_value=-1),
    st.integers(min_value=1, max_value=7),
)
_V3_EXPONENTS = st.tuples(*[st.integers(min_value=0, max_value=3) for _ in V3])
_IMAGE_SUBSTITUTE = st.tuples(
    st.one_of(st.none(), st.integers(min_value=0, max_value=8)),  # precision
    st.integers(min_value=-1, max_value=3),  # k, or -1 for zero
    _NONZERO_FRACTIONS,
    st.lists(_SMALL_FRACTIONS, max_size=3),
)
_IMAGE_TERMS = st.dictionaries(_V3_EXPONENTS, _NONZERO_FRACTIONS, max_size=3)


@st.composite
def image_cases(draw):
    """(f, subs) over V3 for `image_order`.  A substitute is an exact zero or
    c t^k + tail for k <= 3, exact or truncated before, at or past t^k, so
    it can be zero below its own precision or lead at or past another's.
    Half the cases force cancellation: f = L2 m1 - L1 m2 (and maybe more
    terms), where m1(subs) leads with L1 t^o and m2 = m1 + (k_w e_u - k_u
    e_w)/gcd(k_u, k_w) leads with L2 t^o."""
    subs, leads = {}, {}
    for v in V3:
        precision, k, c, tail = draw(_IMAGE_SUBSTITUTE)
        if k < 0:
            subs[v], leads[v] = PowerSeries((), precision), (0, Fraction(0))
        else:
            subs[v], leads[v] = PowerSeries([0] * k + [c] + tail, precision), (k, c)
    terms = draw(_IMAGE_TERMS)
    if draw(st.booleans()):
        u, w = draw(st.sampled_from([(0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)]))
        (k_u, _), (k_w, _) = leads[V3[u]], leads[V3[w]]
        g = gcd(k_u, k_w) or 1
        m1 = list(draw(_V3_EXPONENTS))
        m1[w] = max(m1[w], k_u // g)
        m2 = list(m1)
        m2[u], m2[w] = m2[u] + k_w // g, m2[w] - k_u // g
        lead = lambda m: prod(leads[v][1] ** e for v, e in zip(V3, m))
        for m, c in ((m1, lead(m2)), (m2, -lead(m1))):
            terms[tuple(m)] = terms.get(tuple(m), 0) + c
    f = MultiPoly(V3, {e: c for e, c in terms.items() if c})
    assume(not f.is_zero())
    return f, subs


_CUSP_B0 = (  # B_0 = z1^3 - z2^2 of x^2 + z1^3 - z2^2 along (t^2, t^3): the leads cancel
    MultiPoly(V3, {(3, 0, 0): 1, (0, 2, 0): -1}),
    {"z1": PowerSeries.t_power(2), "z2": PowerSeries.t_power(3), "z3": PowerSeries(())},
)
_LEAD_PAST_PRECISION = (  # z2 leads at t^4, past the precision 3 of z1
    MultiPoly(V3, {(1, 1, 0): 2, (0, 1, 0): 1}),
    {"z1": PowerSeries([0, 1, 1], 3), "z2": PowerSeries([0, 0, 0, 0, 5], 9), "z3": PowerSeries(())},
)
_ZERO_IN_EVERY_TERM = (  # z1 z3 + z3^2 along an exact z3 = 0: every term drops out
    MultiPoly(V3, {(1, 0, 1): 3, (0, 0, 2): 1}),
    {"z1": PowerSeries([0, 1, 1]), "z2": PowerSeries(()), "z3": PowerSeries(())},
)


def _image_order(f, subs):
    return series_module.image_order(f.nums, f.den, [subs[v] for v in f.vars])


@seed(20151204)
@settings(max_examples=200, deadline=None)
@given(image_cases())
@example(_CUSP_B0)
@example(_LEAD_PAST_PRECISION)
@example(_ZERO_IN_EVERY_TERM)
def test_image_order_matches_fraction_reference(case):
    f, subs = case
    assert _image_order(f, subs) == _reference_order(f, subs)


def test_image_order_cases_cover_every_outcome(monkeypatch):
    # The cases above reach every outcome: an order read from the leads, a
    # censored or exact zero with no composition, and a composition after
    # the leads cancel, to an exact order, a censored zero or an exact zero;
    # and the inputs they guard: a term dropped for a zero substitute and
    # a lead at or past the min precision.
    real, composed, outcomes = series_module.compose_integers, [], set()

    def spy(*args):
        composed.append(args)
        return real(*args)

    monkeypatch.setattr(series_module, "compose_integers", spy)

    @seed(20151204)
    @settings(max_examples=200, deadline=None, database=None)
    @given(image_cases())
    @example(_CUSP_B0)
    @example(_LEAD_PAST_PRECISION)
    @example(_ZERO_IN_EVERY_TERM)
    def classify(case):
        f, subs = case
        composed.clear()
        o = _image_order(f, subs)
        kind = "exact" if o.is_exact else "censored" if o.is_censored else "infinite"
        outcomes.add(("composed, " if composed else "from the leads, ") + kind)
        used = [v for i, v in enumerate(V3) if any(e[i] for e in f.terms)]
        precisions = [subs[v].precision for v in used if subs[v].precision is not None]
        n = min(precisions) if precisions else None
        for v in used:
            k = next((k for k, c in enumerate(subs[v].coeffs) if c), None)
            if k is None:
                outcomes.add("a zero substitute")
            elif n is not None and k >= n:
                outcomes.add("a lead at or past the min precision")

    classify()
    assert outcomes == {
        "from the leads, exact", "from the leads, censored", "from the leads, infinite",
        "composed, exact", "composed, censored", "composed, infinite",
        "a zero substitute", "a lead at or past the min precision",
    }


# -- the integer Nash step against the MultiPoly step loop --------------------


def _reference_image(f, subs):
    """(coeffs, precision) of f(subs) in Fraction, every product cut at the precision."""
    terms = f.terms
    occurring = [v for i, v in enumerate(f.vars) if any(e[i] for e in terms)]
    precisions = [subs[v].precision for v in occurring if subs[v].precision is not None]
    prec = min(precisions) if precisions else None
    coeffs = {v: list(subs[v].coeffs) for v in occurring}
    total = []
    for exp, c in terms.items():
        term = [c]
        for v, e in zip(f.vars, exp):
            for _ in range(e):
                term = _reference_product(term, coeffs[v])[:prec]
        total += [Fraction(0)] * (len(term) - len(total))
        for k, x in enumerate(term):
            total[k] += x
    return _trimmed(total), prec


def _reference_nash_sequence(f, coords, max_steps):
    """The Fraction-valued MultiPoly step loop: the reference chart with every weight 1
    dropping t^m, the term-by-term Taylor shift above, and the arc checked on
    every transform by the Fraction evaluation above.  Returns (multiplicities,
    centers, rho, equations) or raises what `nash_sequence_equation` raises."""
    T = "t"

    def check(g, arc, step):
        coeffs, prec = _reference_image(g, dict(arc, t=PowerSeries.t_power(1)))
        if coeffs:
            image = PowerSeries(coeffs, prec)
            raise IdentityViolationError(
                f"lifted arc left the strict transform at step {step}: {image}"
            )

    def step_once(g, arc, m, step):
        for name, s in arc.items():
            o = s.order()
            if o.is_exact and o.value == 0:
                raise IdentityViolationError(
                    f"lifted center escaped the t-chart via coordinate {name!r} at step {step}"
                )
            if o.is_censored and o.value == 0:
                raise InsufficientPrecisionError(f"coordinate {name!r} exhausted at step {step}")
        g1 = _reference_chart(g, dict.fromkeys(g.vars, 1), drop=m)
        new_arc, point = {}, []
        for name in g.vars:
            if name == T:
                point.append(Fraction(0))
                continue
            s = arc[name]
            c = s[1]
            point.append(c)
            precision = None if s.precision is None else s.precision - 1
            new_arc[name] = PowerSeries((0,) + s.coeffs[2:], precision)
        g1 = _reference_translate(g1, point)
        center = tuple(c for name, c in zip(g.vars, point) if name != T)
        check(g1, new_arc, step + 1)
        return g1, new_arc, center

    g = f.extend_vars(f.vars + (T,))
    arc = {v: coords[v] for v in f.vars}
    check(g, arc, 0)
    m0 = min(sum(e) for e in g.terms)
    mults, centers, equations = [m0], [], []
    for step in range(max_steps + 1):
        if step == max_steps:
            precisions = [s.precision for s in coords.values() if s.precision is not None]
            known = f"to precision {min(precisions)}" if precisions else "exactly"
            raise ValidationError(
                f"no multiplicity drop after {max_steps} blow-ups of {f} = 0 "
                f"along an arc known {known}; is the arc inside the top stratum?"
            )
        try:
            g, arc, center = step_once(g, arc, m0, step)
        except InsufficientPrecisionError:
            raise InsufficientPrecisionError(
                "insufficient precision for the directed sequence; "
                f"supply the arc to >= {step + 2} terms"
            ) from None
        centers.append(center)
        mults.append(min(sum(e) for e in g.terms))
        equations.append(str(g))
        if mults[-1] < m0:
            return tuple(mults), tuple(centers), len(mults) - 1, tuple(equations)


def _sequence_or_error(f, coords):
    try:
        seq = nash_sequence_equation(f, coords, trace=True)
    except NashresError as err:
        return type(err), str(err)
    return seq.multiplicities, seq.centers, seq.rho, seq.equations


def _reference_or_error(f, coords, max_steps):
    try:
        return _reference_nash_sequence(f, coords, max_steps)
    except NashresError as err:
        return type(err), str(err)


NASH_BASES = {1: ("z",), 2: ("z1", "z2")}
nash_units = st.sampled_from(
    sorted({Fraction(a, q) for a in (-3, -2, -1, 1, 2, 3) for q in (1, 2, 3)})
)
NASH_MAX_STEPS = 40


@st.composite
def lifted_arcs(draw):
    """(f, coords, moved): a centerd equation whose branches over Q((t)) are
    all rational, and an arc on it lifted by `lift_monomial_base` at precision
    4..24 from a base z_i -> u_i t^(a_i) with rational units; `moved` says
    whether one coefficient was then moved, so that the arc may leave the
    transform.

    Its kinds: b = 2, 3 polynomial branches (exact arcs); x^b - M^b (1 + N)
    for monomials M, N, a binomial series (truncated arcs, exact when N = 0);
    and a polynomial branch times x^2 - M^2 (1 + N).  A lifted arc is right
    below its precision, so only a moved coefficient takes it off a
    transform."""
    d = draw(st.integers(min_value=1, max_value=2))
    base = NASH_BASES[d]
    V = ("x",) + base
    x, one = MultiPoly.variable(V, "x"), MultiPoly.constant(V, 1)

    def monomial():
        exps = st.tuples(*[st.integers(min_value=0, max_value=2) for _ in base])
        exp = draw(exps.filter(lambda e: sum(e) >= 1))
        return MultiPoly(V, {(0,) + exp: draw(nash_units)})

    def branch():
        phi = monomial()
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            phi = phi + monomial()
        return x - phi

    def series_factor(b):
        tail = monomial() if draw(st.booleans()) else MultiPoly.zero(V)
        return x**b - monomial() ** b * (one + tail)

    kind = draw(st.sampled_from(["branches", "series", "mixed"]))
    if kind == "branches":
        f = one
        for _ in range(draw(st.integers(min_value=2, max_value=3))):
            f = f * branch()
    elif kind == "series":
        f = series_factor(draw(st.integers(min_value=2, max_value=3)))
    else:
        f = branch() * series_factor(2)
    h = tschirnhausen_normalize(f, "x")
    units = draw(st.tuples(*[nash_units for _ in base]))
    exponents = draw(st.tuples(*[st.integers(min_value=1, max_value=3) for _ in base]))
    precision = draw(st.integers(min_value=4, max_value=24))
    try:
        va = lift_monomial_base(LocalPresentation(d, (h,)), units, exponents, precision)
    except NashresError:
        assume(False)
    coords = dict(va.arc.coords)
    moved = draw(st.integers(min_value=0, max_value=3)) == 0
    if moved:
        v = draw(st.sampled_from(sorted(coords)))
        s = coords[v]
        top = s.precision if s.precision is not None else len(s.coeffs) + 2
        k = draw(st.integers(min_value=1, max_value=top - 1))
        cs = list(s.coeffs) + [Fraction(0)] * (k + 1 - len(s.coeffs))
        cs[k] += draw(nash_units)
        coords[v] = PowerSeries(cs, s.precision)
    return h.polynomial, coords, moved


_CUSP = MultiPoly(("x", "z"), {(2, 0): 1, (0, 3): -1})
_ESCAPING = {"x": PowerSeries([1, 3, 3, 1]), "z": PowerSeries([1, 2, 1])}  # through (1, 1)
_INSIDE_TOP_STRATUM = {"x": PowerSeries(()), "z": PowerSeries(())}
# tests/test_cli.py's TRUNCATED_LIFT_DEFECT at precision 21: the arc leaves the
# transform at step 2, and the unchecked run goes on to drop at step 6
_TRUNCATED_LIFT_DEFECT = parse_poly(
    "x^3 - 1/4 x z1^2 z2^2 - 1/3 x z1^4 z2^4 + 1/6 z1^4 z2^4 - 2/27 z1^6 z2^6"
)
_OFF_AT_STEP_2 = {
    "x": PowerSeries((), 21),
    "z1": PowerSeries.monomial(-3, 3, 21),
    "z2": PowerSeries.monomial(Fraction(-3, 2), 3, 21),
}


@seed(20151111)
@settings(max_examples=150, deadline=None)
@given(lifted_arcs())
@example((_CUSP, _ESCAPING, False))
@example((_CUSP, _INSIDE_TOP_STRATUM, False))
@example((_TRUNCATED_LIFT_DEFECT, _OFF_AT_STEP_2, True))
def test_integer_nash_sequence_matches_the_multipoly_loop(case):
    # same multiplicities, centers, rho and traced equations, or the same
    # typed error with the same message (which names the step); an arc as
    # lifted never leaves a strict transform
    f, coords, moved = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nash_module, "_MAX_STEPS", NASH_MAX_STEPS)
        got = _sequence_or_error(f, coords)
    assert got == _reference_or_error(f, coords, NASH_MAX_STEPS)
    if not moved:
        assert not (got[0] is IdentityViolationError and "left the strict transform" in got[1]), got


def test_fixed_nash_cases_reach_the_escape_and_the_step_cap():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nash_module, "_MAX_STEPS", NASH_MAX_STEPS)
        escaped = _sequence_or_error(_CUSP, _ESCAPING)
        capped = _sequence_or_error(_CUSP, _INSIDE_TOP_STRATUM)
    assert escaped == (
        IdentityViolationError, "lifted center escaped the t-chart via coordinate 'x' at step 0"
    )
    assert capped[0] is ValidationError and f"after {NASH_MAX_STEPS} blow-ups" in capped[1]


def test_nash_cases_cover_every_kind_of_outcome():
    # The arcs of the differential test reach every outcome of the loop.
    outcomes = set()

    @seed(20151111)
    @settings(max_examples=150, deadline=None, database=None)
    @given(lifted_arcs())
    def classify(case):
        f, coords, _ = case
        result = _reference_or_error(f, coords, NASH_MAX_STEPS)
        if result[0] is IdentityViolationError:
            outcomes.add("off at step 0" if "at step 0:" in result[1] else "off at a later step")
            return
        if result[0] is InsufficientPrecisionError:
            outcomes.add("insufficient precision")
            return
        _, centers, rho, _ = result
        exact = all(s.precision is None for s in coords.values())
        outcomes.add("exact arc" if exact else "truncated arc")
        if any(c.denominator > 1 for center in centers for c in center):
            outcomes.add("rational center")
        if rho >= 3:
            outcomes.add("three or more steps")

    classify()
    assert outcomes == {
        "off at step 0", "off at a later step", "insufficient precision", "exact arc",
        "truncated arc", "rational center", "three or more steps",
    }


@seed(20151104)
@settings(max_examples=120, deadline=None)
@given(
    st.tuples(*[st.integers(min_value=0, max_value=4) for _ in V2]),
    st.fractions(min_value=-5, max_value=5, max_denominator=7),
    st.integers(min_value=0, max_value=6),
)
@example((2, 1), Fraction(-3, 2), 0)
def test_power_of_a_monomial_matches_repeated_multiplication(exp, c, n):
    m = MultiPoly(V2, {exp: c})
    expected = MultiPoly.constant(V2, 1)
    for _ in range(n):
        expected = expected * m
    assert m**n == expected


@seed(20151107)
@settings(max_examples=100, deadline=None)
@given(substitutes(max_len=6), substitutes())
@example(PowerSeries([1, 2, 3, 4], 2), PowerSeries([1, 1], 5))
@example(PowerSeries([1, 2, 3], 5), PowerSeries(()))
def test_series_compose_matches_fraction_reference(outer, inner):
    # inner gets a zero constant term; an exactly zero inner stays exactly zero
    inner = PowerSeries((0,) + inner.coeffs, None if inner.precision is None else inner.precision + 1)
    composed = outer.compose(inner)
    precisions = [p for p in (outer.precision, inner.precision) if p is not None]
    prec = min(precisions) if precisions else None
    f = MultiPoly(("t",), {(k,): c for k, c in enumerate(outer.coeffs)})
    coeffs, _ = _reference_compose(f, {"t": inner})
    assert composed.coeffs == _trimmed(coeffs if prec is None else coeffs[:prec])
    assert composed.precision == prec
    assert all(type(c) is Fraction for c in composed.coeffs)

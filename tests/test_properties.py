"""Property tests for the algebraic identities the toolkit is built on."""

import random
from fractions import Fraction
from math import comb, isqrt, lcm

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from nashres import (
    MultiPoly,
    PowerSeries,
    ReesAlgebra,
    algebra_order_at,
    diff_closure,
    odot,
    poly_compose_series,
    sing_contains,
)
from nashres import series as series_module
from nashres.generic import _pick_root, _rational_roots

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
    split = poly_compose_series(f, subs) + poly_compose_series(g, subs)
    n = min(len(total.coeffs), len(split.coeffs))
    assert total.coeffs[:n] == split.coeffs[:n]


# -- series products against a pure-Fraction schoolbook reference ---------------


def _trimmed(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


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
    return st.one_of(st.just(PowerSeries.zero()), exact, truncated)


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
        return PowerSeries.zero(precision)
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
    return ReesAlgebra.from_pairs(V2, pairs) if pairs else None


@settings(max_examples=40)
@given(st.lists(polys(V2, max_degree=2, max_terms=3, min_order=1), min_size=1, max_size=3))
def test_diff_closure_idempotent_and_extensive(fs):
    algebra = _plain_algebra(fs)
    if algebra is None or algebra.is_empty():
        return
    closed = diff_closure(algebra)
    keys = lambda a: {g.dedup_key() for g in a.generators}
    assert keys(algebra) <= keys(closed)
    assert keys(diff_closure(closed)) == keys(closed)


@settings(max_examples=40)
@given(
    st.lists(polys(V2, min_order=1), min_size=1, max_size=2),
    st.lists(polys(V2, min_order=1), min_size=1, max_size=2),
    st.lists(polys(V2, min_order=1), min_size=1, max_size=2),
)
def test_odot_commutative_associative(fs, gs, hs):
    def algebra(polys_list):
        pairs = [(f, 1 + i % 2) for i, f in enumerate(polys_list) if not f.is_zero()]
        return ReesAlgebra.from_pairs(V2, pairs)

    a, b, c = algebra(fs), algebra(gs), algebra(hs)
    keys = lambda alg: {g.dedup_key() for g in alg.generators}
    assert keys(odot(a, b)) == keys(odot(b, a))
    assert keys(odot(odot(a, b), c)) == keys(odot(a, odot(b, c)))


@settings(max_examples=40)
@given(st.lists(polys(V2, min_order=2, max_terms=3), min_size=1, max_size=2))
def test_closure_never_raises_order_at_singular_points(fs):
    pairs = [(f, 2) for f in fs if not f.is_zero() and f.order_at_origin().value >= 2]
    if not pairs:
        return
    algebra = ReesAlgebra.from_pairs(V2, pairs)
    assert sing_contains(algebra, ORIGIN2)
    before = algebra_order_at(algebra, ORIGIN2)
    after = algebra_order_at(diff_closure(algebra), ORIGIN2)
    assert after.value <= before.value


# -- the t-chart move shared by the blow-ups and the Newton-Puiseux stages --------

XT = ("x", "t")
V2T = V2 + ("t",)


@seed(20151031)
@settings(max_examples=80, deadline=None)
@given(
    polys(XT, max_degree=4, max_terms=5),
    st.integers(min_value=1, max_value=3),
    st.fractions(min_value=-3, max_value=3, max_denominator=3),
)
def test_weighted_chart_then_shift_is_substitution(f, m, c):
    x = MultiPoly.variable(XT, "x")
    t = MultiPoly.variable(XT, "t")
    expected = f.substitute("x", t**m * (MultiPoly.constant(XT, c) + x))
    assert f.t_chart("t", {"t": 1, "x": m}).translate((c, 0)) == expected


@seed(20151101)
@settings(max_examples=80, deadline=None)
@given(polys(V2T, max_degree=3, max_terms=5, min_order=1))
def test_unit_chart_is_blow_up_then_division(f):
    if f.is_zero():
        return
    blown = f
    for v in V2:
        blown = blown.substitute(v, MultiPoly.variable(V2T, v) * MultiPoly.variable(V2T, "t"))
    drop = f.order_at_origin().value
    divided = MultiPoly(V2T, {e[:2] + (e[2] - drop,): c for e, c in blown.terms.items()})
    assert f.t_chart("t", dict.fromkeys(V2T, 1), drop=drop) == divided
    with pytest.raises(ValueError):
        f.t_chart("t", dict.fromkeys(V2T, 1), drop=drop + 1)


def test_chart_rejects_a_t_weight_below_one():
    f = MultiPoly.variable(XT, "x")
    with pytest.raises(ValueError):
        f.t_chart("t", {"x": 1})


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
    n = abs(n)
    small = [k for k in range(1, isqrt(n) + 1) if n % k == 0]
    return sorted(set(small + [n // k for k in small]))


def _reference_rational_roots(coeffs):
    """Every root p/q in lowest terms has p | a_0 and q | a_n: try them all."""
    denom = lcm(*(c.denominator for c in coeffs))
    ints = [int(c * denom) for c in coeffs]
    roots = set()
    for p in _reference_divisors(ints[0]):
        for q in _reference_divisors(ints[-1]):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if sum(a * cand**k for k, a in enumerate(ints)) == 0:
                    roots.add(cand)
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
@example(PowerSeries([1, 2, 3], 5), PowerSeries.zero())
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

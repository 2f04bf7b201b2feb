"""MultiPoly, the parser and rational roots against sympy, an independent
computer algebra system.

sympy is a test dependency only; without it this module is skipped.  Every
case is drawn from a fixed seed: random polynomials with rational
coefficients for the ring operations, random texts of the grammar for the
parser, and products of rational linear factors and random cofactors for
the roots, and seeded units and exponents for the equation on a base arc.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

sympy = pytest.importorskip("sympy")
from sympy.parsing.sympy_parser import (  # noqa: E402
    convert_xor,
    implicit_multiplication,
    parse_expr,
    standard_transformations,
)

from conftest import make_presentation  # noqa: E402
from nashres import MultiPoly, parse_poly  # noqa: E402
from nashres.generic import _equation_on_base, _rational_roots  # noqa: E402
from test_presentation import CORPUS  # noqa: E402

V = ("x", "z1", "z2")
GENS = sympy.symbols(V)
READ = standard_transformations + (implicit_multiplication, convert_xor)

coefficients = st.fractions(min_value=-9, max_value=9, max_denominator=12)
exponents = st.tuples(*[st.integers(min_value=0, max_value=3) for _ in V])
polys = st.dictionaries(exponents, coefficients, max_size=5).map(lambda t: MultiPoly(V, t))
points = st.tuples(*[st.fractions(min_value=-3, max_value=3, max_denominator=4) for _ in V])


def as_expr(f: MultiPoly):
    gens = sympy.symbols(f.vars) if f.vars else ()
    return sympy.Add(*[
        sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*[g**e for g, e in zip(gens, exp)])
        for exp, c in f.terms.items()
    ])


def as_sympy(f: MultiPoly):
    return sympy.Poly(as_expr(f), *GENS, domain="QQ")


def assert_canonical(f: MultiPoly) -> None:
    assert f.den > 0 and all(f.nums.values())
    assert gcd(f.den, *f.nums.values()) == 1 or not f.nums and f.den == 1


def assert_same(f: MultiPoly, expected) -> None:
    assert_canonical(f)
    assert as_sympy(f) == sympy.Poly(expected, *GENS, domain="QQ")


@seed(20160401)
@settings(max_examples=100, deadline=None)
@given(polys, polys, st.integers(min_value=0, max_value=4))
def test_ring_operations_match_sympy(f, g, k):
    F, G = as_sympy(f), as_sympy(g)
    assert_same(f + g, F + G)
    assert_same(f - g, F - G)
    assert_same(f * g, F * G)
    assert_same(f**k, F**k)
    assert_same(-f, -F)


@seed(20160402)
@settings(max_examples=100, deadline=None)
@given(polys, points)
def test_translate_matches_sympy(f, point):
    shift = {g: g + sympy.Rational(p.numerator, p.denominator) for g, p in zip(GENS, point)}
    expected = as_sympy(f).as_expr().subs(shift, simultaneous=True)
    assert_same(f.translate(point), sympy.expand(expected))


@seed(20160403)
@settings(max_examples=60, deadline=None)
@given(polys, polys, st.sampled_from(V))
def test_derive_and_substitute_match_sympy(f, g, name):
    F, G = as_sympy(f), as_sympy(g)
    var = GENS[V.index(name)]
    assert_same(f.derive(name), F.diff(var))
    assert_same(f.substitute(name, g), sympy.expand(F.as_expr().subs(var, G.as_expr())))


# Grammar texts that sympy reads the same way: identifiers apart, and a
# rational raised to a power inside parentheses (the grammar reads 3/4^2 as
# (3/4)^2).
def texts(depth):
    rational = st.tuples(st.integers(0, 30), st.integers(1, 9)).map(lambda nd: f"{nd[0]}/{nd[1]}")
    base = st.one_of(
        st.integers(0, 30).map(str),
        st.sampled_from(V + ("z", "t")),
        rational.map(lambda r: f"({r})"),
    )
    if depth:
        base = st.one_of(base, texts(depth - 1).map(lambda e: f"({e})"))
    power = st.tuples(base, st.sampled_from(["", "^0", "^1", "^2", "^3"])).map("".join)
    factor = st.one_of(power, rational)
    term = st.lists(factor, min_size=1, max_size=3).flatmap(
        lambda fs: st.sampled_from([" ", "*", " * "]).map(lambda sep: sep.join(fs))
    )
    sign = st.sampled_from(["", "-", "\N{MINUS SIGN}", "+"])
    op = st.sampled_from([" + ", " - ", " \N{MINUS SIGN} ", "-"])
    return st.tuples(sign, term, st.lists(st.tuples(op, term), max_size=3)).map(
        lambda p: p[0] + p[1] + "".join(o + t for o, t in p[2])
    )


@seed(20160404)
@settings(max_examples=150, deadline=None)
@given(texts(2))
def test_parse_poly_matches_sympy(text):
    f = parse_poly(text)
    assert_canonical(f)
    expected = parse_expr(text.replace("\N{MINUS SIGN}", "-"), transformations=READ)
    assert sympy.expand(as_expr(f) - expected) == 0, text


@st.composite
def root_equations(draw):
    """Coefficients a_0..a_n (a_0 and a_n nonzero) of a product of rational
    linear factors and a random cofactor."""
    c = sympy.Symbol("c")
    poly = sympy.Poly(draw(st.integers(1, 5)), c)
    for r in draw(st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=5).filter(bool), max_size=3)):
        poly *= sympy.Poly(r.denominator * c - r.numerator, c)
    cofactor = draw(st.lists(st.integers(-6, 6), min_size=1, max_size=4))
    if any(cofactor):
        poly *= sympy.Poly(cofactor, c)
    coeffs = [Fraction(int(a)) for a in reversed(poly.all_coeffs())]
    while coeffs and coeffs[0] == 0:
        coeffs.pop(0)  # divide out c: the constant term must be nonzero
    if len(coeffs) < 2:
        coeffs = [Fraction(1), Fraction(draw(st.integers(1, 4)))]
    return coeffs


@seed(20160405)
@settings(max_examples=200, deadline=None)
@given(root_equations())
def test_rational_roots_match_sympy(coeffs):
    c = sympy.Symbol("c")
    poly = sympy.Poly(list(reversed([sympy.Rational(a.numerator, a.denominator) for a in coeffs])), c)
    expected = {Fraction(int(r.p), int(r.q)) for r in sympy.roots(poly, filter="Q")}
    roots = _rational_roots(coeffs)
    assert len(roots) == len(set(roots))
    assert set(roots) == expected


# The acceptance and extended corpus, the generic-arc presentations of the
# lift benchmark, and one whose terms collide on a power of t.
BASE_ARC_CASES = {
    **CORPUS,
    "quartic_tail": (1, [("x", "x^4 - z^5 - z^7")]),
    "quartic_middle": (1, [("x", "x^4 - 2 z^3 x^2 + z^6 - z^7")]),
    "cubic_two_base": (2, [("x", "x^3 - z1^2 z2^2 - z1^5")]),
    "cubic_big_constant": (1, [("x", "x^3 - 8000000000000 z^4")]),
    "cubic_middle": (1, [("x", "x^3 - 2 z^2 x - z^4 - z^5")]),
    "two_hyp_three_base": (3, [("x1", "x1^3 - z1^4 - z2^5"), ("x3", "x3^2 - z1 z2 z3")]),
    "colliding_terms": (2, [("x", "x^3 - z1^2 z2 + z1 z2^2 - 2 z1^4")]),
}
nonzero_units = st.fractions(min_value=-9, max_value=9, max_denominator=7).filter(bool)


@pytest.mark.parametrize("name", sorted(BASE_ARC_CASES))
@seed(20160406)
@settings(max_examples=8, deadline=None)
@given(st.data())
def test_equation_on_base_matches_sympy(name, data):
    # f with each base variable z_v replaced by u_v t^(a_v), expanded by
    # sympy: every (x, t) coefficient must be that of the lift's equation F.
    d, equations = BASE_ARC_CASES[name]
    us = data.draw(st.tuples(*[nonzero_units] * d))
    exponents = data.draw(st.tuples(*[st.integers(min_value=1, max_value=3)] * d))
    t = sympy.Symbol("t")
    for h in make_presentation(d, *equations).hypersurfaces:
        x, *base = sympy.symbols(h.ambient_vars)
        arc = {z: sympy.Rational(u.numerator, u.denominator) * t**a for z, u, a in zip(base, us, exponents)}
        expected = sympy.Poly(as_expr(h.polynomial).subs(arc, simultaneous=True), x, t, domain="QQ")
        F = _equation_on_base(h, us, exponents)
        assert_canonical(F)
        assert F.vars == (h.var, "t")
        assert F.terms == {e: Fraction(int(c.p), int(c.q)) for e, c in expected.as_dict().items()}

"""The parser against its former self.

`reference_parser` is the parser as it was before terms were built on
integers.  Both read seeded texts of the grammar and near misses of it, and
must give an equal `MultiPoly` or an equal error, message and column.  The
one deliberate difference in this range of texts is that a letter followed by
two digits or more is now one unknown identifier (`z10`), where the reference
read a letter and one digit and multiplied by the rest.  The bit limit on
products and powers of sums is the other deliberate change; no text drawn
here comes near it (test_parsing.py pins it).
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import reference_parser
from nashres import Arc, PowerSeries, arc_to_document, parse_arc, parse_poly
from nashres.errors import NashresError
from nashres.parsing import IDENTIFIERS, MAX_POWER_TERMS

NAMES = sorted(IDENTIFIERS)
MINUS = "\N{MINUS SIGN}"
SPACES = st.sampled_from(["", "", " ", "  ", "\t", "\n", "\N{NO-BREAK SPACE}", "\N{EM SPACE}"])


def _joined(parts, separators):
    return st.lists(separators, min_size=len(parts), max_size=len(parts)).map(
        lambda seps: "".join(p + s for p, s in zip(parts, seps)).rstrip()
    )


numbers = st.one_of(
    st.integers(min_value=0, max_value=12).map(str),
    st.integers(min_value=0, max_value=10**12).map(str),
    st.tuples(st.integers(0, 40), st.integers(0, 12)).map(lambda nd: f"{nd[0]}/{nd[1]}"),
)
identifiers = st.sampled_from(NAMES)
exponents = st.integers(min_value=0, max_value=6).map(lambda k: f"^{k}")
# powers of sums at the term limit: C(n + k - 1, n - 1) against MAX_POWER_TERMS
near_limit = st.one_of(
    st.integers(MAX_POWER_TERMS - 2, MAX_POWER_TERMS + 1).map(lambda k: f"(t + 1)^{k}"),
    st.integers(17, 19).map(lambda k: f"(x {MINUS} z + 1/2)^{k}"),
    st.integers(98, 101).map(lambda k: f"(t + 1)^{k} (z - 1)"),
    st.integers(9, 11).map(lambda k: f"(x + 1)(z + 1)(t{'+1' * k})"),
)


def exprs(depth):
    base = st.one_of(numbers, identifiers)
    if depth > 0:
        base = st.one_of(base, exprs(depth - 1).map(lambda e: f"({e})"))
    factor = st.tuples(base, st.one_of(st.just(""), exponents)).map("".join)
    term = st.lists(factor, min_size=1, max_size=4).flatmap(
        lambda fs: _joined(fs, st.sampled_from(["", " ", "*", " * ", "\t"]))
    )
    sign = st.sampled_from(["", "", "-", "+", MINUS, "- "])
    ops = st.sampled_from([" + ", " - ", "+", "-", f" {MINUS} ", MINUS])
    return st.tuples(sign, st.lists(term, min_size=1, max_size=4)).flatmap(
        lambda st_: st.lists(ops, min_size=len(st_[1]) - 1, max_size=len(st_[1]) - 1).map(
            lambda os: st_[0] + st_[1][0] + "".join(o + t for o, t in zip(os, st_[1][1:]))
        )
    )


def _spaced(text, spaces):
    return "".join(ch + s for ch, s in zip(text, spaces))


well_formed = st.one_of(exprs(2), near_limit).flatmap(
    lambda text: st.one_of(
        st.just(text),
        st.lists(SPACES, min_size=len(text), max_size=len(text)).map(
            lambda sp: _spaced(text, sp)
        ),
    )
)

# characters a near miss inserts: operators, digits, foreign letters and
# digit-like characters outside ASCII
NEAR_MISS = list("^/()*+-0123456789 xzty") + [
    MINUS, "/0", "^^", "()", "\N{SUPERSCRIPT TWO}", "\N{VULGAR FRACTION ONE HALF}",
    "\N{LATIN SMALL LETTER E WITH ACUTE}", "\N{ARABIC-INDIC DIGIT THREE}", "_", ".", "z1",
]


@st.composite
def near_misses(draw):
    text = draw(well_formed)
    for _ in range(draw(st.integers(1, 2))):
        i = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(["insert", "delete", "cut"]))
        if edit == "insert":
            text = text[:i] + draw(st.sampled_from(NEAR_MISS)) + text[i:]
        elif edit == "delete":
            text = text[:i] + text[i + 1:]
        else:
            text = text[:i]
    return text


def outcome(parse, text, variables=None):
    try:
        return ("ok", parse(text, variables))
    except NashresError as err:
        return (type(err).__name__, str(err), getattr(err, "column", None))


def _multi_digit_identifier(text):
    """Index of the first letter followed by two digits, or None."""
    for i, ch in enumerate(text):
        if ch.isalpha() and text[i + 1:i + 3].isdigit() and len(text[i + 1:i + 3]) == 2:
            return i
    return None


def check_same(text, variables=None):
    new = outcome(parse_poly, text, variables)
    i = _multi_digit_identifier(text)
    if i is None:
        assert new == outcome(reference_parser.parse_poly, text, variables), text
        return
    # the deliberate change: the identifier is refused at its column, unless
    # a character before it fails both tokenizers alike
    assert new[0] == "ParseError" and new[2] <= i + 1, (text, new)
    if new[2] == i + 1:
        j = i + 1
        while j < len(text) and text[j].isdigit():
            j += 1
        assert new[1].startswith(f"unknown identifier {text[i:j]!r}"), (text, new)
    else:
        assert new == outcome(reference_parser.parse_poly, text, variables), text


@seed(20160301)
@settings(max_examples=300, deadline=None)
@given(well_formed)
def test_grammar_texts_parse_as_before(text):
    check_same(text)


@seed(20160302)
@settings(max_examples=500, deadline=None)
@given(near_misses())
def test_near_miss_texts_fail_as_before(text):
    check_same(text)


@seed(20160303)
@settings(max_examples=100, deadline=None)
@given(st.one_of(well_formed, near_misses()), st.sampled_from([("x", "z", "t"), ("t",), ()]))
def test_texts_over_a_given_variable_list_parse_as_before(text, variables):
    check_same(text, variables)


@pytest.mark.parametrize(
    "text",
    [
        "x + \N{VULGAR FRACTION ONE HALF}", "2\N{SUPERSCRIPT TWO} z", "z^\N{SUPERSCRIPT TWO}",
        "x\N{SUPERSCRIPT TWO}", "\N{ARABIC-INDIC DIGIT THREE} z", "z_1", "x.5", "\N{GREEK SMALL LETTER ALPHA} + 1",
        "x1\N{SUPERSCRIPT TWO}", "(x \N{MINUS SIGN} z)\N{EM SPACE}^2", "\x1cx\x1f+\x0bz",
    ],
)
def test_characters_outside_the_grammar_fail_as_before(text):
    check_same(text)


def test_identifier_followed_by_digits_is_the_deliberate_change():
    assert outcome(reference_parser.parse_poly, "z10^5") == outcome(parse_poly, "z1 0^5")
    check_same("x^2 - z1^2 z2 - z10^5")
    check_same("(x12 + 1")


coefficients = st.fractions(min_value=-50, max_value=50, max_denominator=64)


@st.composite
def arcs(draw):
    names = draw(st.lists(st.sampled_from([n for n in NAMES if n != "t"]), min_size=1, max_size=4, unique=True))
    precision = draw(st.one_of(st.none(), st.integers(min_value=2, max_value=40)))
    top = 30 if precision is None else precision
    coords = {}
    for name in names:
        cs = [Fraction(0)] + draw(st.lists(coefficients, max_size=top - 1))
        coords[name] = PowerSeries(cs, precision)
    if all(s.is_exactly_zero() for s in coords.values()):
        coords[names[0]] = PowerSeries.t_power(draw(st.integers(1, top - 1)), precision)
    return Arc(coords)


@seed(20160304)
@settings(max_examples=200, deadline=None)
@given(arcs())
def test_arc_documents_round_trip(a):
    again = parse_arc(arc_to_document(a))
    assert again.coords == a.coords
    assert again.precision == a.precision

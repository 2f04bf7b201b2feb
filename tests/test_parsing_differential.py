"""The parser against an independent reading of its grammar.

`reference_parser` reads the text one character at a time, identifiers as
one letter and at most one digit, factors through the `Fraction` view, and
sums one term at a time.  Both read seeded texts of the grammar and near
misses of it, and must give an equal `MultiPoly` or an equal error, message
and column.  The one deliberate difference in this range of texts is that a
letter followed by two digits or more is one unknown identifier (`z10`) in
the parser, where the reference reads a letter and one digit and multiplies
by the rest.  The bit limit on products and powers of sums is the other;
no text drawn here comes near it (test_parsing.py pins it).

`parse_arc` reads the printed series form without the grammar.  On seeded
printed texts and near misses of them, it must give what the grammar path
alone gives (the printed reader patched out): the same series, or the same
error and message.  Every arc nashres writes must take the printed reader.
"""

from __future__ import annotations

import json
import random
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import reference_parser
from nashres import Arc, PowerSeries, arc_to_document, parse_arc, parse_poly, parsing
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


# -- the printed series reader against the grammar ------------------------------

PRECISIONS = ("exact", 1, 2, 5, 8, 40)


def _arc_outcome(text, precision):
    """parse_arc's x coordinate beside z = t, or its error and message."""
    try:
        arc = parse_arc({"precision": precision, "coords": {"x": text, "z": "t"}})
        return ("ok", arc.coords["x"])
    except NashresError as err:
        return (type(err).__name__, str(err))


def _grammar_outcome(text, precision):
    with mock.patch.object(parsing, "_read_printed", lambda text: None):
        return _arc_outcome(text, precision)


def _number(rng):
    return rng.choice([0, 1, 1, 2, 3, 7, 12, rng.randrange(10**30), rng.randrange(2**64)])


def _printed_text(rng):
    """A sum in the printed form, as `sum_text` writes it or with what the form
    also admits: zero, unreduced, p/1 and 1*t^k terms, repeated and
    cancelling exponents, and exponents far above a small precision."""
    terms = []
    for _ in range(rng.randint(1, 6)):
        roll = rng.random()
        if terms and roll < 0.15:  # a repeated exponent, or a cancelling copy
            sign, p, q, k = rng.choice(terms)
            if rng.random() < 0.5:
                sign = "-" if sign == "+" else "+"
            else:
                p = _number(rng)
        else:
            sign, p, q = rng.choice("+-"), _number(rng), rng.choice([1, 1, 1, 2, 3, 8, 9, 10**20 + 1])
            k = rng.choice([None, 1, 2, 3, 5, 9, 30, 700, rng.randrange(10**5, 10**8)])
            if k is None and rng.random() < 0.8:
                k = 1  # a constant term alone makes no arc
        terms.append((sign, p, q, k))
    text = ""
    for sign, p, q, k in terms:
        mag = f"{p}/{q}" if q != 1 or rng.random() < 0.1 else str(p)
        monomial = "" if k is None else "t" if k == 1 else f"t^{k}"
        if monomial and mag == "1" and rng.random() < 0.8:
            body = monomial
        else:
            body = f"{mag}*{monomial}" if monomial else mag
        text += f" {sign} {body}"
    return text[3:] if text[1] == "+" else "-" + text[3:]


def _near_miss(rng, text):
    """One edit that takes a printed text out of the printed form, or (for a
    few edits) keeps it in."""
    edits = [
        lambda s: s.replace(" + ", "+", 1),
        lambda s: s.replace(" - ", "  - ", 1),
        lambda s: s.replace(" - ", f" {MINUS} ", 1),
        lambda s: MINUS + s.lstrip("-"),
        lambda s: s.replace("*t", "t", 1),
        lambda s: s.replace("*t", " t", 1),
        lambda s: s.replace("*", " * ", 1),
        lambda s: f"({s})",
        lambda s: "+" + s,
        lambda s: s + " + ",
        lambda s: s + " ",
        lambda s: s.replace("/", "/0", 1),
        lambda s: s.replace("t", "x", 1),
        lambda s: s.replace("^", "^^", 1),
        lambda s: s + " + t^",
        lambda s: s + " - 3/0*t^2",
        lambda s: s + " + 0/0",
        lambda s: s.replace("1", "\N{ARABIC-INDIC DIGIT ONE}", 1),
        lambda s: s + " + 2t",
        lambda s: s + "\n",
    ]
    return rng.choice(edits)(text)


def _random_series(rng, precision):
    top = rng.randint(1, 30)
    den = rng.choice([1, 2, 6, 2**70, 3**40])
    nums = [0] + [
        rng.choice([0, 0, 1, -1, rng.randrange(-(10**25), 10**25)]) for _ in range(top)
    ]
    return PowerSeries.from_integers(nums, den, precision)


def test_printed_reader_agrees_with_the_grammar():
    # On printed texts and near misses of them, parse_arc gives what the
    # grammar alone gives: the same series, or the same error and message.
    rng = random.Random(20160305)
    outcomes = Counter()
    for k in range(1500):
        if k % 3 == 0:
            text = _random_series(rng, None).polynomial_text()
        else:
            text = _printed_text(rng)
        if k % 2:
            text = _near_miss(rng, text)
        precision = rng.choice(PRECISIONS)
        got = _arc_outcome(text, precision)
        assert got == _grammar_outcome(text, precision), (text, precision)
        route = "printed" if parsing._read_printed(text) is not None else "grammar"
        outcomes[route, got[0]] += 1
    assert outcomes["printed", "ParseError"] == 0, outcomes
    for key in [("printed", "ok"), ("printed", "ValidationError"),
                ("grammar", "ok"), ("grammar", "ParseError"), ("grammar", "ValidationError")]:
        assert outcomes[key] >= 20, outcomes


@pytest.mark.parametrize(
    "text, printed",
    [
        ("t^2 + 0*t^3 + 0", True),
        ("t^2 + 0*t^99999999", True),
        ("t^2 + t^200000 - t^200000", True),
        ("t^2 + t^2 - 2*t^2 + t^9", True),
        ("3/1*t + 4/2*t^2", True),
        ("1*t^3 - 1/3*t^99999999", True),
        ("-t^2 - 5/7*t^100000", True),
        ("t^2 +  t^3", False),
        ("t^2+t^3", False),
        ("t^2 \N{MINUS SIGN} t^3", False),
        ("\N{MINUS SIGN}t^2", False),
        ("3t^2", False),
        ("3 t^2", False),
        ("(t^2)", False),
        ("t^2 + 1/0*t^3", False),
        ("+t^2", False),
        ("t^2 + z", False),
        (0, False),  # not a string
    ],
)
def test_printed_reader_takes_the_printed_form_only(text, printed):
    assert (parsing._read_printed(text) is not None) == printed
    for precision in PRECISIONS:
        assert _arc_outcome(text, precision) == _grammar_outcome(text, precision)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int digit limit")
def test_numbers_at_the_least_int_digit_limit():
    # At the least limit Python allows, a 640-digit number is read by the
    # printed reader, and a 641-digit one by the grammar, which refuses it.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        for digits in (640, 641):
            n = "7" * digits
            for text in (f"{n}*t^2", f"t^2 + 1/{n}*t^3", f"t^2 - t^{n}"):
                assert (parsing._read_printed(text) is not None) == (digits == 640), digits
                for precision in (8, "exact"):
                    got = _arc_outcome(text, precision)
                    assert got == _grammar_outcome(text, precision), (digits, text[:20])
                    assert got[0] != "ParseError" or digits == 641
    finally:
        sys.set_int_max_str_digits(limit)


def test_printed_arcs_never_reach_the_grammar(monkeypatch, tmp_path):
    # Every arc nashres writes, and every arc of the contact workload, is read
    # by the printed reader: a slip in its pattern would otherwise fall back
    # to the grammar unseen.
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    documents = [
        json.loads(Path(op.argv[2]).read_text(encoding="utf-8"))
        for op in workloads.build_contact(7, str(tmp_path)).ops
    ]
    rng = random.Random(20160306)
    arcs = []
    for _ in range(300):
        precision = rng.choice([None, 3, 12, 96])
        arcs.append(Arc({name: _random_series(rng, precision) for name in ("x", "z1", "z2")}))
    calls = []
    monkeypatch.setattr(parsing, "parse_poly", lambda *args: calls.append(args))
    for a in arcs:
        again = parse_arc(arc_to_document(a))
        assert again.coords == a.coords
    for document in documents:
        parse_arc(document)
    assert len(documents) == 768 and calls == []

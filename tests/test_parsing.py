import sys
from fractions import Fraction

import pytest

from nashres import (
    MultiPoly,
    arc_to_document,
    load_presentation,
    parse_arc,
    parse_poly,
    presentation_to_document,
)
from nashres.errors import ParseError, ValidationError

from conftest import exact_arc


def test_parse_umbrella():
    f = parse_poly("x^2 - z1^2*z2")
    assert f.vars == ("x", "z1", "z2")
    assert f.terms == {(2, 0, 0): 1, (0, 2, 1): -1}


def test_parse_cusp_without_stars():
    f = parse_poly("x^2-z^3")
    assert f.terms == {(2, 0): 1, (0, 3): -1}


def test_parse_error_position():
    with pytest.raises(ParseError) as err:
        parse_poly("x^^2")
    assert err.value.column == 3


def test_unknown_identifier():
    with pytest.raises(ParseError, match="unknown identifier"):
        parse_poly("x + y")


def test_juxtaposition_and_rationals():
    assert parse_poly("2x", ("x",)) == MultiPoly(("x",), {(1,): 2})
    assert parse_poly("3/4 z^2") == MultiPoly(("z",), {(2,): Fraction(3, 4)})
    assert parse_poly("(x + z)(x - z)") == parse_poly("x^2 - z^2")


def test_unicode_minus():
    assert parse_poly("x−z") == parse_poly("x - z")


def test_leading_sign():
    assert parse_poly("-z^3 + x^2") == parse_poly("x^2 - z^3")


def test_trailing_input_rejected():
    with pytest.raises(ParseError, match="trailing"):
        parse_poly("x )")


def test_division_only_in_rationals():
    with pytest.raises(ParseError):
        parse_poly("x/2")
    with pytest.raises(ParseError, match="division by zero"):
        parse_poly("1/0")


def test_power_of_a_sum_is_expanded_up_to_the_term_limit():
    from nashres.parsing import MAX_POWER_TERMS

    k = MAX_POWER_TERMS - 1  # (t + 1)^k has k + 1 terms
    assert len(parse_poly(f"(t + 1)^{k}").terms) == MAX_POWER_TERMS
    with pytest.raises(ParseError, match="expands past"):
        parse_poly(f"(t + 1)^{k + 1}")
    assert parse_poly(f"t^{10 * MAX_POWER_TERMS}") == MultiPoly(("t",), {(10 * MAX_POWER_TERMS,): 1})
    assert parse_poly("(2 z)^9") == parse_poly("512 z^9")


def test_product_of_sums_is_expanded_up_to_the_term_limit():
    from nashres.parsing import MAX_POWER_TERMS

    assert MAX_POWER_TERMS == 200  # the cases below sit at this limit
    factors = "".join(f"({v} + 1)" for v in ("x", "z", "z1", "z2", "z3", "z4", "z5", "z6"))
    assert len(parse_poly(factors[: factors.index("(z6")]).terms) == 128
    with pytest.raises(ParseError, match="product of a 128-term and a 2-term sum expands past"):
        parse_poly(factors)
    assert len(parse_poly("(t + 1)^99 (z + 1)").terms) == 200
    with pytest.raises(ParseError, match="expands past"):
        parse_poly("(t + 1)^100 * (z + 1)")
    # a product with a monomial adds no terms
    assert len(parse_poly("3 z (t + 1)^199 x").terms) == 200


def test_parentheses_nest_up_to_the_nesting_limit():
    from nashres.parsing import MAX_NESTING

    def nested(depth):
        return "x^2 - " + "(" * depth + "z" + ")" * depth + "^3"

    assert parse_poly(nested(MAX_NESTING)) == parse_poly("x^2 - z^3")
    with pytest.raises(ParseError, match=f"nest deeper than {MAX_NESTING} levels") as err:
        parse_poly(nested(MAX_NESTING + 1))
    assert err.value.column == len("x^2 - ") + MAX_NESTING + 1  # the first '(' past it
    # the limit counts open parentheses, not parentheses met one after another
    assert parse_poly(" + ".join(["(z)"] * (2 * MAX_NESTING))) == parse_poly(f"{2 * MAX_NESTING} z")


def test_power_of_a_constant_is_formed_up_to_the_bit_limit():
    from nashres.parsing import MAX_CONSTANT_BITS

    k = MAX_CONSTANT_BITS // 2  # 2 has a 2-bit numerator
    assert parse_poly(f"2^{k}") == MultiPoly((), {(): 2**k})
    for text in (f"2^{k + 1}", f"(1/2)^{k + 1}", f"(-3 z)^{k + 1}", f"3^{10**7} z^3"):
        with pytest.raises(ParseError, match=f"passes {MAX_CONSTANT_BITS} bits"):
            parse_poly(text)
    # the limit is above the largest literal int() reads, and a power of +-1 stays +-1
    assert parse_poly("9" * 4300 + "^4") == MultiPoly((), {(): int("9" * 4300) ** 4})
    assert parse_poly(f"(-z)^{2 * MAX_CONSTANT_BITS}") == MultiPoly(("z",), {(2 * MAX_CONSTANT_BITS,): 1})


def test_power_of_a_sum_is_bounded_in_bits():
    from nashres.parsing import MAX_CONSTANT_BITS

    # (2^30000 + t)^199 has 200 terms, within the term limit, but 199 times
    # its 30001-bit coefficient passes the bit limit: refused at the exponent
    with pytest.raises(ParseError, match=f"power 199 of a 30001-bit coefficient passes {MAX_CONSTANT_BITS} bits") as err:
        parse_poly("(2^30000 + t)^199")
    assert err.value.column == 15
    # the bound reads the largest numerator or denominator of the sum
    with pytest.raises(ParseError, match="passes"):
        parse_poly("(1/2^30000 + t)^3")
    assert parse_poly("(2^30000 + t)^2") == MultiPoly(("t",), {(0,): 2**60000, (1,): 2**30001, (2,): 1})
    # a sum of unit coefficients grows only through the term limit
    assert len(parse_poly("(t - 1)^199").terms) == 200


def test_product_is_bounded_in_bits():
    from nashres.parsing import MAX_CONSTANT_BITS

    factor = "2^30000"
    text = " ".join([factor] * 300)
    with pytest.raises(ParseError, match=f"product of 60002-bit and 30001-bit coefficients passes {MAX_CONSTANT_BITS} bits") as err:
        parse_poly(text)
    assert err.value.column == 2 * (len(factor) + 1) + 1  # the third factor
    assert parse_poly(f"{factor} {factor}") == MultiPoly((), {(): 2**60000})
    with pytest.raises(ParseError, match="passes"):
        parse_poly(f"{factor} (t + 1) * {factor} {factor}")
    with pytest.raises(ParseError, match="passes"):
        parse_poly(f"(2^30000 + t) (2^30000 - t) 2^30000")
    # factors of one bit count nothing, so a long monomial stays legal
    assert parse_poly(f"{factor} " + "t " * 3000) == MultiPoly(("t",), {(3000,): 2**30000})


@pytest.mark.parametrize(
    "text, value",
    [
        # a zero factor, wherever it stands, leaves no sum to expand
        ("0 (z+1)^15 (z+1)^15", MultiPoly(("z",), {})),
        ("(z+1)^15 0 (z+1)^15", MultiPoly(("z",), {})),
        ("(z+1)^15 (z - z) (z+1)^15", MultiPoly(("z",), {})),
        # a parenthesized factor of one term counts as a monomial, in terms and in bits
        ("3 (2^30000 z)^2 2^5000", MultiPoly(("z",), {(2,): 3 * 2**65000})),
    ],
)
def test_limits_of_a_term_with_a_zero_or_one_term_factor(text, value):
    assert parse_poly(text) == value


@pytest.mark.parametrize(
    "text, message, column",
    [
        ("(z+1)^15 (z+1)^15", "product of a 16-term and a 16-term sum expands past 200 terms", 10),
        ("2^40000 2^30000", "power 40000 of a 2-bit coefficient passes 65536 bits", 3),
        ("(1/3)^2 z (z+1)^14 (z+1)^14", "product of a 15-term and a 15-term sum expands past 200 terms", 20),
    ],
)
def test_limits_of_a_term_refuse_at_the_same_column(text, message, column):
    with pytest.raises(ParseError) as err:
        parse_poly(text)
    assert str(err.value) == f"{message} (line 1, column {column})"
    assert err.value.column == column


def test_identifier_followed_by_a_digit_is_unknown():
    for text, name, column in (
        ("x^2 - z1^2 z2 - z10^5", "z10", 17),
        ("x10", "x10", 1),
        ("3 z12", "z12", 3),
        ("x1 + x01", "x01", 6),
    ):
        with pytest.raises(ParseError, match=f"unknown identifier '{name}'") as err:
            parse_poly(text)
        assert err.value.column == column
    assert parse_poly("z1 0") == MultiPoly(("z1",), {})
    assert parse_poly("2 z1") == parse_poly("z1 2")


def test_digit_string_that_int_refuses_is_a_parse_error():
    with pytest.raises(ParseError, match="as an integer"):
        parse_poly("z^\N{SUPERSCRIPT TWO}")
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:  # 0: this interpreter converts digit strings of any length
        digits = "1" * (limit + 1)
        with pytest.raises(ParseError, match=f"{limit + 1}-character number") as err:
            parse_poly("x^2 - z^" + digits)
        assert err.value.column == 9
        with pytest.raises(ParseError, match="as an integer"):
            parse_poly("x^2 - 1/" + digits)


def test_print_parse_round_trip():
    samples = [
        "x^2 - z^3",
        "x^2 - z1^2*z2",
        "x^3 + z^2 x + z^4",
        "3/4 z^2 - 7 z + 1/2",
        "x1^2 x2 - z1 z2 + 5",
    ]
    for text in samples:
        f = parse_poly(text)
        assert parse_poly(str(f), f.vars) == f


def test_parse_arc_document():
    arc = parse_arc({"precision": "exact", "coords": {"x": "t^3", "z": "t^2"}})
    assert arc.coords["x"].is_exact
    assert arc.coords["x"].order().value == 3


def test_parse_arc_not_through_origin():
    with pytest.raises(ValidationError, match="not through the origin"):
        parse_arc({"precision": "exact", "coords": {"x": "1 + t", "z": "t"}})


def test_parse_arc_truncated():
    arc = parse_arc({"precision": 16, "coords": {"x": "t^3 + t^5", "z": "t^2"}})
    assert arc.precision == 16
    assert arc.coords["x"].coeffs == (0, 0, 0, 1, 0, 1)


def test_parse_arc_rejects_non_t_variables():
    with pytest.raises(ValidationError, match="non-t"):
        parse_arc({"precision": "exact", "coords": {"x": "z^2"}})


def test_parse_arc_rejects_bad_precision():
    with pytest.raises(ValidationError):
        parse_arc({"precision": 0, "coords": {"x": "t"}})


def test_arc_document_round_trip():
    arc = exact_arc(x="t^3 + 2*t^5", z="t^2")
    doc = arc_to_document(arc)
    again = parse_arc(doc)
    assert again.coords == arc.coords


def test_series_text_zero():
    from nashres import PowerSeries

    assert PowerSeries((), 4).polynomial_text() == "0"
    assert PowerSeries([0, -1, Fraction(1, 2)]).polynomial_text() == "-t + 1/2*t^2"


def test_load_presentation_normalizes():
    p = load_presentation(
        {"d": 1, "hypersurfaces": [{"var": "x", "b": 2, "f": "x^2 + 2z x + z^3"}]}
    )
    h = p.hypersurfaces[0]
    assert str(h.coeffs[0]) == "z^3 - z^2"


def test_load_presentation_round_trip(two_hyp):
    doc = presentation_to_document(two_hyp)
    again = load_presentation(doc)
    assert presentation_to_document(again) == doc


def test_load_presentation_base_count_mismatch():
    with pytest.raises(ValidationError, match="d = 2"):
        load_presentation(
            {"d": 2, "hypersurfaces": [{"var": "x", "b": 2, "f": "x^2 - z^3"}]}
        )


def test_load_presentation_rejects_shared_distinguished_variables():
    doc = {
        "d": 1,
        "hypersurfaces": [
            {"var": "x1", "b": 2, "f": "x1^2 - z^3"},
            {"var": "x2", "b": 2, "f": "x2^2 - x1 z"},
        ],
    }
    with pytest.raises(ValidationError, match="distinguished"):
        load_presentation(doc)


def test_load_presentation_rejects_t():
    with pytest.raises(ValidationError, match="t cannot appear"):
        load_presentation(
            {"d": 1, "hypersurfaces": [{"var": "x", "b": 2, "f": "x^2 - t^3"}]}
        )


def test_load_presentation_wrong_degree():
    with pytest.raises(ValidationError, match="declared degree"):
        load_presentation(
            {"d": 1, "hypersurfaces": [{"var": "x", "b": 3, "f": "x^2 - z^3"}]}
        )

from fractions import Fraction

import pytest

from nashres import MultiPoly
from nashres.errors import DimensionMismatchError, UnknownVariableError

V = ("x", "z")


def xz():
    return MultiPoly.variable(V, "x"), MultiPoly.variable(V, "z")


def test_order_at_origin_cusp():
    x, z = xz()
    assert (x**2 - z**3).order_at((0, 0)).value == 2


def test_order_of_zero_is_infinite():
    assert MultiPoly.zero(V).order_at((0, 0)).is_infinite


def test_order_after_translation():
    x, z = xz()
    # linear part 2x - 3z survives at (1, 1)
    assert (x**2 - z**3).order_at((1, 1)).value == 1


def test_translate_binomial():
    f = MultiPoly.variable(("x",), "x") ** 2
    shifted = f.translate((1,))
    expected = MultiPoly(("x",), {(2,): 1, (1,): 2, (0,): 1})
    assert shifted == expected


def test_translate_by_origin_is_identity():
    x, z = xz()
    f = x - z
    assert f.translate((0, 0)) == f


def test_translate_expansion():
    x, z = xz()
    f = x**2 - z**3
    expected = x**2 - z**3 - z.scale(3) ** 2 - z.scale(3) + MultiPoly.constant(V, -1)
    # expected built by hand: x^2 - z^3 - 3z^2 - 3z - 1
    expected = MultiPoly(V, {(2, 0): 1, (0, 3): -1, (0, 2): -3, (0, 1): -3, (0, 0): -1})
    assert f.translate((0, 1)) == expected


def test_translate_matches_evaluation():
    x, z = xz()
    f = (x**2 - z**3) * (x + z.scale(2)) + MultiPoly.constant(V, 5)
    p = (Fraction(1, 2), Fraction(-2))
    g = f.translate(p)
    for q in [(0, 0), (1, 1), (Fraction(2, 3), Fraction(-1, 5)), (3, -2)]:
        shifted = tuple(Fraction(a) + b for a, b in zip(q, p))
        assert g.eval_at(q) == f.eval_at(shifted)


@pytest.mark.parametrize("b", [1, 2, 5])
def test_derive_power_rule(b):
    x = MultiPoly.variable(("x",), "x")
    assert (x**b).derive("x") == (x ** (b - 1)).scale(b)


def test_derive_constant_in_other_variable():
    x, z = xz()
    assert (x**2).derive("z").is_zero()


def test_derive_mixed_monomial():
    vs = ("z1", "z2")
    z1, z2 = MultiPoly.variable(vs, "z1"), MultiPoly.variable(vs, "z2")
    assert (z1**2 * z2).derive("z1") == (z1 * z2).scale(2)


def test_dimension_mismatch():
    x, z = xz()
    with pytest.raises(DimensionMismatchError):
        (x**2).order_at((1,))


def test_unknown_variable():
    x, z = xz()
    with pytest.raises(UnknownVariableError):
        x.derive("z9")


def test_arithmetic_and_canonical_form():
    x, z = xz()
    f = (x + z) * (x - z)
    assert f == x**2 - z**2
    assert (f - f).is_zero()
    assert str(x**2 - z**3) == "-z^3 + x^2"  # graded-lex, leading term first


def test_substitute_variable():
    x, z = xz()
    f = x**2 + z
    g = f.substitute("x", x - z)
    assert g == x**2 - (x * z).scale(2) + z**2 + z


def test_initial_form():
    x, z = xz()
    f = x**2 - z**3 + x**2 * z
    assert f.initial_form() == x**2


def test_restrict_and_extend_vars():
    x, z = xz()
    f = z**3
    small = f.restrict_vars(("z",))
    assert small.vars == ("z",)
    assert small.extend_vars(V) == f
    with pytest.raises(DimensionMismatchError):
        (x * z).restrict_vars(("z",))

from fractions import Fraction

import pytest

from nashres import MultiPoly, PowerSeries, poly_compose_series
from nashres.errors import DimensionMismatchError, InsufficientPrecisionError
from nashres.series import _convolve, _square

V = ("x", "z")


def test_order_exact():
    s = PowerSeries([0, 0, 1, 0, 0, 1])  # t^2 + t^5
    assert s.order().value == 2


def test_order_censored():
    s = PowerSeries.zero(8)
    o = s.order()
    assert o.is_censored and o.value == 8


def test_order_of_exact_zero_is_infinite():
    assert PowerSeries.zero().order().is_infinite


def test_compose_cusp_parametrization():
    x, z = MultiPoly.variable(V, "x"), MultiPoly.variable(V, "z")
    image = poly_compose_series(x**2 - z**3, {"x": PowerSeries.t_power(3), "z": PowerSeries.t_power(2)})
    assert image.is_exactly_zero()


def test_compose_monomial():
    vs = ("z1", "z2")
    z1, z2 = MultiPoly.variable(vs, "z1"), MultiPoly.variable(vs, "z2")
    image = poly_compose_series(z1**2 * z2, {"z1": PowerSeries.t_power(2), "z2": PowerSeries.t_power(2)})
    assert image == PowerSeries.t_power(6)


def test_compose_truncated():
    x, z = MultiPoly.variable(V, "x"), MultiPoly.variable(V, "z")
    xt = PowerSeries([0, 0, 0, 1, 1], 10)  # t^3 + t^4, known below t^10
    image = poly_compose_series(x**2 - z**3, {"x": xt, "z": PowerSeries.t_power(2)})
    assert image.precision == 10
    assert image.coeffs == (0, 0, 0, 0, 0, 0, 0, 2, 1)  # 2t^7 + t^8


def test_compose_requires_substitutes():
    x, z = MultiPoly.variable(V, "x"), MultiPoly.variable(V, "z")
    with pytest.raises(DimensionMismatchError):
        poly_compose_series(x + z, {"x": PowerSeries.t_power(1)})


def test_reparametrize_examples():
    assert PowerSeries.t_power(3).reparametrize(2) == PowerSeries.t_power(6)
    s = PowerSeries([1, 2, 3], 7)
    assert s.reparametrize(1) is s
    r = PowerSeries([1, 1], 4).reparametrize(3)
    assert r.coeffs == (1, 0, 0, 1)
    assert r.precision == 12


def test_precision_min_of_operands():
    a = PowerSeries([1, 1], 5)
    b = PowerSeries([0, 1])
    assert (a * b).precision == 5
    assert (b * b).precision is None


def test_multiplication_truncates_at_precision():
    a = PowerSeries([1, 1, 1], 3)
    product = a * a
    assert product.precision == 3
    assert product.coeffs == (1, 2, 3)


def test_square_matches_the_convolution_with_itself():
    # odd and even cuts, no cut, cuts past the full length, leading zeros, empty
    for a in ([], [7], [0, 0, 3, -2], [5, -1, 0, 4, 9], [0, 2**70, -3, 0, 0, 1]):
        for n in (None, 0, 1, 2, 3, 4, 5, 2 * len(a) - 1, 2 * len(a), 2 * len(a) + 3):
            assert _square(a, n) == _convolve(a, a, n)


def test_coefficient_access_respects_precision():
    s = PowerSeries([1], 2)
    assert s[1] == 0
    with pytest.raises(InsufficientPrecisionError):
        s[2]


def test_scale_parameter():
    s = PowerSeries([0, 1, 1])  # t + t^2
    scaled = s.scale_parameter(Fraction(-2))
    assert scaled.coeffs == (0, -2, 4)


def test_compose_parameter_substitution():
    s = PowerSeries([0, 0, 1])  # t^2
    tau = PowerSeries([0, 1, 1])  # t + t^2
    assert s.compose(tau).coeffs == (0, 0, 1, 2, 1)
    with pytest.raises(ValueError):
        s.compose(PowerSeries([1]))


def test_exactness_is_preserved_by_polynomial_ops():
    t = PowerSeries([0, 1])
    s = t * t * t * t
    assert s.is_exact and s == PowerSeries.t_power(4)

from fractions import Fraction

import pytest

from nashres import INFINITE, ExtOrder, ext_min
from nashres.errors import InsufficientPrecisionError


def test_expect_exact():
    assert ExtOrder.exact(3).expect_exact() == 3
    with pytest.raises(InsufficientPrecisionError):
        ExtOrder.at_least(5).expect_exact()
    with pytest.raises(InsufficientPrecisionError):
        INFINITE.expect_exact()


def test_min_of_exacts():
    assert ext_min([ExtOrder.exact(3), ExtOrder.exact(5)]) == ExtOrder.exact(3)


def test_min_dominated_censoring_stays_exact():
    # a censored value bounded at or above the exact minimum cannot change it
    out = ext_min([ExtOrder.exact(3), ExtOrder.at_least(3)])
    assert out == ExtOrder.exact(3)
    out = ext_min([ExtOrder.exact(3), ExtOrder.at_least(7)])
    assert out == ExtOrder.exact(3)


def test_min_undercut_by_censoring_is_censored():
    out = ext_min([ExtOrder.exact(9), ExtOrder.at_least(8)])
    assert out.is_censored and out.value == 8


def test_min_all_censored():
    out = ext_min([ExtOrder.at_least(4), ExtOrder.at_least(2)])
    assert out == ExtOrder.at_least(2)


def test_min_ignores_infinite():
    assert ext_min([INFINITE, ExtOrder.exact(2)]) == ExtOrder.exact(2)
    assert ext_min([INFINITE, INFINITE]).is_infinite
    assert ext_min([]).is_infinite


def test_scaling_and_division():
    o = ExtOrder.exact(3)
    assert o.divided_by(2).value == Fraction(3, 2)
    assert INFINITE.divided_by(5).is_infinite


def test_str_forms():
    assert str(ExtOrder.exact(Fraction(3, 2))) == "3/2"
    assert str(ExtOrder.at_least(8)) == ">=8"
    assert str(INFINITE) == "infinite"

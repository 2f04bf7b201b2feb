from fractions import Fraction

import pytest

from nashres import (
    OneDimGenerator,
    ReesGenerator,
    algebra_order_at,
    diff_closure,
    onedim_resolution_steps,
    onedim_transform,
)
from nashres.errors import (
    InsufficientPrecisionError,
    NotPermissibleError,
)
from nashres.extorder import ExtOrder

V = ("x", "z")


def gens(algebra):
    return {(str(g.f), g.weight) for g in algebra}


def build(pairs, variables=V):
    from nashres import parse_poly

    return tuple(ReesGenerator(parse_poly(text, variables), n) for text, n in pairs)


def test_diff_closure_tschirnhausen_elimination():
    closed = diff_closure(build([("x^2 - z^3", 2)]))
    assert gens(closed) == {("x", 1), ("z^3", 2), ("z^2", 1)}


def test_diff_closure_weight_one_fixed():
    g = build([("x", 1)])
    assert gens(diff_closure(g)) == {("x", 1)}


def test_diff_closure_all_first_partials():
    vs = ("z1", "z2")
    closed = diff_closure(build([("z1^2 z2", 2)], variables=vs))
    assert gens(closed) == {("z1^2*z2", 2), ("z1*z2", 1), ("z1^2", 1)}


def test_diff_closure_idempotent():
    for pairs in [[("x^2 - z^3", 2)], [("x^2 z + z^4", 3)], [("x^3", 2)]]:
        once = diff_closure(build(pairs))
        twice = diff_closure(once)
        assert gens(once) == gens(twice)


def test_diff_closure_extensive_without_normalization():
    # plain generators are kept; only Tschirnhausen shapes are rewritten
    g = build([("x^2 z + z^4", 3)])
    closed = diff_closure(g)
    assert gens(g) <= gens(closed)


def test_algebra_order_at_origin():
    assert algebra_order_at(build([("x", 1), ("z^3", 2)]), (0, 0)).value == 1
    assert algebra_order_at(build([("z^3", 2)]), (0, 0)).value == Fraction(3, 2)
    assert algebra_order_at((), (0, 0)).is_infinite


def test_order_never_increases_under_closure():
    for pairs, point in [
        ([("x^2 - z^3", 2)], (0, 0)),
        ([("z^4", 3)], (0, 0)),
        ([("x^2 z^2", 4)], (0, 0)),
    ]:
        g = build(pairs)
        if algebra_order_at(g, point).value < 1:
            continue
        before = algebra_order_at(g, point)
        after = algebra_order_at(diff_closure(g), point)
        assert after.value <= before.value


def test_onedim_transform():
    a = _exact([(3, 1)])
    assert [(g.a.value, g.l) for g in onedim_transform(a)] == [(2, 1)]
    b = _exact([(6, 2), (4, 1)])
    assert [(g.a.value, g.l) for g in onedim_transform(b)] == [(4, 2), (3, 1)]
    with pytest.raises(NotPermissibleError, match="not permissible"):
        onedim_transform(_exact([(1, 2)]))


def test_onedim_transform_censored():
    low = [_censored(1, 2)]
    with pytest.raises(InsufficientPrecisionError):
        onedim_transform(low)
    fine = [_censored(5, 2)]
    out = onedim_transform(fine)[0]
    assert out.a.is_censored and out.a.value == 3


def _exact(pairs):
    return [OneDimGenerator(ExtOrder.exact(a), l) for a, l in pairs]


def _censored(bound, weight):
    return OneDimGenerator(ExtOrder.at_least(bound), weight)


def test_onedim_resolution_steps_examples():
    assert onedim_resolution_steps(_exact([(3, 1)])) == 3
    assert onedim_resolution_steps(_exact([(7, 2)])) == 3
    assert onedim_resolution_steps(_exact([(2, 2)])) == 1


def test_onedim_resolution_steps_censored():
    algebra = [_censored(3, 2)]
    with pytest.raises(InsufficientPrecisionError):
        onedim_resolution_steps(algebra)


def test_onedim_order_witness_keeps_the_first_minimizer():
    from nashres.rees import onedim_order_witness

    # 6/2, 3/1 and 9/3 tie at 3: the first one is the witness
    ties = _exact([(7, 2), (6, 2), (3, 1), (9, 3)])
    assert onedim_order_witness(ties) == (3, 1)
    r, i = onedim_order_witness(_exact([(5, 2), (7, 3), (3, 1)]))
    assert (r, i) == (Fraction(7, 3), 1) and type(r) is Fraction
    # a censored bound equal to the exact minimum cannot undercut it
    equal = [_censored(5, 2), *_exact([(4, 1), (5, 2)])]
    assert onedim_order_witness(equal) == (Fraction(5, 2), 2)


def test_onedim_order_witness_refuses_censored_and_empty_algebras():
    from nashres.rees import onedim_order_witness

    # the least censored bound, 3/2, lies below the exact minimum 2
    low = [_censored(7, 2), *_exact([(2, 1)]), _censored(3, 2)]
    with pytest.raises(InsufficientPrecisionError) as err:
        onedim_order_witness(low)
    assert str(err.value) == (
        "one-dimensional algebra order is only known to be >= 3/2; supply more coefficients"
    )
    with pytest.raises(InsufficientPrecisionError) as err:
        onedim_order_witness([_censored(4, 2)])
    assert str(err.value) == (
        "one-dimensional algebra order is only known to be >= 2; supply more coefficients"
    )
    with pytest.raises(InsufficientPrecisionError) as err:
        onedim_order_witness([])
    assert str(err.value) == "one-dimensional algebra order is infinite"

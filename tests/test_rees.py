from fractions import Fraction

import pytest

from nashres import (
    OneDimAlgebra,
    ReesAlgebra,
    algebra_order_at,
    diff_closure,
    odot,
    onedim_order,
    onedim_resolution_steps,
    onedim_transform,
    sing_contains,
)
from nashres.errors import (
    DimensionMismatchError,
    InsufficientPrecisionError,
    NotPermissibleError,
)
from nashres.extorder import ExtOrder

V = ("x", "z")


def gens(algebra):
    return {(str(g.f), g.weight) for g in algebra.generators}


def build(pairs, variables=V):
    from nashres import parse_poly

    return ReesAlgebra.from_pairs(
        variables, [(parse_poly(text, variables), n) for text, n in pairs]
    )


def test_odot_union():
    g1 = build([("x", 1)])
    g2 = build([("z^3", 2)])
    assert gens(odot(g1, g2)) == {("x", 1), ("z^3", 2)}


def test_odot_idempotent():
    g = build([("x", 1), ("z^3", 2)])
    assert gens(odot(g, g)) == gens(g)


def test_odot_extends_smaller_ambient():
    g1 = build([("x", 1)], variables=("x",))
    g2 = build([("z", 1)], variables=V)
    joined = odot(g1, g2)
    assert joined.ambient_vars == V
    assert gens(joined) == {("x", 1), ("z", 1)}


def test_odot_incompatible():
    g1 = build([("x", 1)], variables=("x",))
    g2 = build([("z", 1)], variables=("z",))
    with pytest.raises(DimensionMismatchError):
        odot(g1, g2)


def test_odot_commutative_associative():
    a = build([("x", 1)])
    b = build([("z^3", 2)])
    c = build([("x z", 2)])
    assert gens(odot(a, b)) == gens(odot(b, a))
    assert gens(odot(odot(a, b), c)) == gens(odot(a, odot(b, c)))


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
    assert algebra_order_at(ReesAlgebra(V), (0, 0)).is_infinite


def test_order_never_increases_under_closure():
    for pairs, point in [
        ([("x^2 - z^3", 2)], (0, 0)),
        ([("z^4", 3)], (0, 0)),
        ([("x^2 z^2", 4)], (0, 0)),
    ]:
        g = build(pairs)
        if not sing_contains(g, point):
            continue
        before = algebra_order_at(g, point)
        after = algebra_order_at(diff_closure(g), point)
        assert after.value <= before.value


def test_sing_contains():
    g = build([("x^2 - z^3", 2)])
    assert sing_contains(g, (0, 0))
    assert not sing_contains(g, (1, 1))
    assert sing_contains(build([("x", 1)]), (0, 7))


def test_onedim_transform():
    a = OneDimAlgebra.from_pairs([(3, 1)])
    assert [(g.a.value, g.l) for g in onedim_transform(a).generators] == [(2, 1)]
    b = OneDimAlgebra.from_pairs([(6, 2), (4, 1)])
    assert [(g.a.value, g.l) for g in onedim_transform(b).generators] == [(4, 2), (3, 1)]
    with pytest.raises(NotPermissibleError, match="not permissible"):
        onedim_transform(OneDimAlgebra.from_pairs([(1, 2)]))


def test_onedim_transform_censored():
    low = OneDimAlgebra([_censored(1, 2)])
    with pytest.raises(InsufficientPrecisionError):
        onedim_transform(low)
    fine = OneDimAlgebra([_censored(5, 2)])
    out = onedim_transform(fine).generators[0]
    assert out.a.is_censored and out.a.value == 3


def _censored(bound, weight):
    from nashres import OneDimGenerator

    return OneDimGenerator(ExtOrder.at_least(bound), weight)


def test_onedim_resolution_steps_examples():
    assert onedim_resolution_steps(OneDimAlgebra.from_pairs([(3, 1)])) == 3
    assert onedim_resolution_steps(OneDimAlgebra.from_pairs([(7, 2)])) == 3
    assert onedim_resolution_steps(OneDimAlgebra.from_pairs([(2, 2)])) == 1


def test_onedim_resolution_steps_censored():
    algebra = OneDimAlgebra([_censored(3, 2)])
    with pytest.raises(InsufficientPrecisionError):
        onedim_resolution_steps(algebra)


def test_onedim_order():
    a = OneDimAlgebra.from_pairs([(3, 1), (6, 2), (4, 1)])
    assert onedim_order(a).value == 3
    assert onedim_order(OneDimAlgebra([])).is_infinite


def test_onedim_order_witness_keeps_the_first_minimizer():
    from nashres.rees import onedim_order_witness

    # 6/2, 3/1 and 9/3 tie at 3: the first one is the witness
    ties = OneDimAlgebra.from_pairs([(7, 2), (6, 2), (3, 1), (9, 3)])
    assert onedim_order_witness(ties) == (3, 1)
    r, i = onedim_order_witness(OneDimAlgebra.from_pairs([(5, 2), (7, 3), (3, 1)]))
    assert (r, i) == (Fraction(7, 3), 1) and type(r) is Fraction
    # a censored bound equal to the exact minimum cannot undercut it
    equal = OneDimAlgebra([_censored(5, 2), *OneDimAlgebra.from_pairs([(4, 1), (5, 2)]).generators])
    assert onedim_order_witness(equal) == (Fraction(5, 2), 2)


def test_onedim_order_witness_refuses_censored_and_empty_algebras():
    from nashres.rees import onedim_order_witness

    # the least censored bound, 3/2, lies below the exact minimum 2
    low = OneDimAlgebra([_censored(7, 2), *OneDimAlgebra.from_pairs([(2, 1)]).generators, _censored(3, 2)])
    with pytest.raises(InsufficientPrecisionError) as err:
        onedim_order_witness(low)
    assert str(err.value) == (
        "one-dimensional algebra order is only known to be >= 3/2; supply more coefficients"
    )
    with pytest.raises(InsufficientPrecisionError) as err:
        onedim_order_witness(OneDimAlgebra([_censored(4, 2)]))
    assert str(err.value) == (
        "one-dimensional algebra order is only known to be >= 2; supply more coefficients"
    )
    with pytest.raises(InsufficientPrecisionError) as err:
        onedim_order_witness(OneDimAlgebra([]))
    assert str(err.value) == "one-dimensional algebra order is infinite"

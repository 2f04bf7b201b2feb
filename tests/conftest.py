"""Shared corpus: the presentations and arcs every suite exercises."""

from __future__ import annotations

import pytest

from nashres import (
    Arc,
    LocalPresentation,
    PowerSeries,
    tschirnhausen_normalize,
    validate_arc,
)


def poly(text, variables=None):
    from nashres import parse_poly

    return parse_poly(text, variables)


def make_presentation(d, *equations):
    """equations: (distinguished_var, text) pairs over the implied base."""
    from nashres import parse_poly
    from nashres.poly import canonical_var_key

    parsed = [(var, parse_poly(text)) for var, text in equations]
    declared = [var for var, _ in parsed]
    base = sorted(
        {v for _, f in parsed for v in f.vars if v not in declared},
        key=canonical_var_key,
    )
    hs = []
    for var, f in parsed:
        ambient = (var,) + tuple(base)
        hs.append(tschirnhausen_normalize(f.extend_vars(ambient), var))
    return LocalPresentation(d, tuple(hs))


def exact_arc(**coords):
    from nashres import parse_poly

    out = {}
    for name, text in coords.items():
        f = parse_poly(text)
        if f.vars not in ((), ("t",)):
            raise ValueError(f"arc coordinate {name} must be a polynomial in t")
        g = f if f.vars == ("t",) else f.extend_vars(("t",))
        degree = max(g.degree_in("t"), 0)
        cs = [0] * (degree + 1)
        for exp, c in g.terms.items():
            cs[exp[0]] = c
        out[name] = PowerSeries(cs)
    return Arc(out)


@pytest.fixture(autouse=True)
def _no_loaded_presentations():
    """Each test starts with no presentation kept by `cli.main` and no slot
    kept by verify's sampler, so a test that spies on the loading or the
    sampling path sees its own work."""
    from nashres.cli import _loaded_presentation, _sampler

    _loaded_presentation.cache_clear()
    _sampler.cache_clear()


@pytest.fixture
def cusp():
    return make_presentation(1, ("x", "x^2 - z^3"))


@pytest.fixture
def umbrella():
    return make_presentation(2, ("x", "x^2 - z1^2*z2"))


@pytest.fixture
def two_hyp():
    return make_presentation(
        2, ("x1", "x1^2 - z1^3"), ("x2", "x2^2 - z1*z2^2")
    )


@pytest.fixture
def cusp_arc(cusp):
    return validate_arc(exact_arc(x="t^3", z="t^2"), cusp)


@pytest.fixture
def umbrella_min_arc(umbrella):
    return validate_arc(exact_arc(x="t^3", z1="t^2", z2="t^2"), umbrella)


@pytest.fixture
def umbrella_fast_arc(umbrella):
    return validate_arc(exact_arc(x="t^2", z1="t", z2="t^2"), umbrella)


def a_n(n):
    return make_presentation(1, ("x", f"x^2 - z^{n + 1}"))

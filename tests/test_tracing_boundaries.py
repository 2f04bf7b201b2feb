"""The benchmark's traced boundaries must name callables of the package.

`perfbench/tracing.py` reports a boundary it cannot find as absent, and the
traced result then lacks that boundary's metrics; this test reads the list
and resolves every name, so a rename or removal fails here first.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _boundaries():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(module, attribute) for module, attribute, _, _ in tracing.BOUNDARIES]


@pytest.mark.parametrize("module, attribute", _boundaries())
def test_every_traced_boundary_is_a_callable_of_the_package(module, attribute):
    owner = importlib.import_module(f"nashres.{module}")
    for part in attribute.split("."):
        owner = getattr(owner, part)
    assert callable(owner)

"""The `--json` report writer: `cli._json_text` is json.dumps(indent=2,
sort_keys=True) byte for byte, on every JSON value and on every golden
report."""

from __future__ import annotations

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from golden_cases import CASES, GOLDEN_DIR
from nashres.cli import _json_text

# Quotes, backslashes, control characters and non-ASCII code points, the
# astral plane among them, besides any other character.
_strings = st.text(st.sampled_from('"\\/\x00\x1f\x7f\n\té−\U0001d400a') | st.characters())
_leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64, max_value=2**256)
    | st.integers(max_value=-1)
    | st.floats()
    | _strings
)
_values = st.recursive(
    _leaves,
    lambda children: st.lists(children)
    | st.lists(children).map(tuple)
    | st.dictionaries(_strings, children),
    max_leaves=20,
)


@settings(max_examples=150, deadline=None)
@given(_values)
@example({"b": 1, "a": {"d": [], "c": {}}})
@example(["é−", {"\U0001d400": "\x00"}, (), -(2**70)])
@example({1: "int keys", 2: [True, None, 0.5]})
def test_report_writer_is_the_indented_json_encoder(value):
    assert _json_text(value) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_writer_rewrites_each_golden_report(case):
    text = (GOLDEN_DIR / f"{case}.json").read_text(encoding="utf-8")
    assert _json_text(json.loads(text)) + "\n" == text

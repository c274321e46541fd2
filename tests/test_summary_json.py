"""The summary writer against ``json.dumps(indent=2, sort_keys=True,
allow_nan=False)``, byte for byte, and its errors against ``json``'s."""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from billiards.runner import summary_text

EDGE_STRINGS = ['"', "\\", "\x00", "\x1f", "\x7f", "\t\n\r", " ", "é", "\U0001f600",
                "a\"b\\cé\ud800"]
EDGE_NUMBERS = [0, -1, 2**63, -(2**63) - 1, 2**64 + 1, 10**40, -0.0, 0.0, 5e-324, -5e-324,
                1e308, 1.7976931348623157e308, 0.1, 1e16, 1e-7]

scalars = (st.none() | st.booleans() | st.integers() | st.sampled_from(EDGE_NUMBERS)
           | st.floats(allow_nan=False, allow_infinity=False)
           | st.text() | st.sampled_from(EDGE_STRINGS))
keys = st.text() | st.sampled_from(EDGE_STRINGS)
values = st.recursive(
    scalars,
    lambda children: (st.lists(children, max_size=5)
                      | st.lists(children, max_size=3).map(tuple)
                      | st.dictionaries(keys, children, max_size=5)),
    max_leaves=30)


def reference(o) -> str:
    return json.dumps(o, indent=2, sort_keys=True, allow_nan=False) + "\n"


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(keys, values, max_size=6))
def test_summary_text_writes_the_bytes_of_json_dumps(summary):
    assert summary_text(summary) == reference(summary)


@pytest.mark.parametrize("summary", [
    {}, {"a": []}, {"a": {}}, {"a": [[], {}, [[]]]}, {"b": True, "a": False, "c": None},
    {"big": [2**63, 2**64 + 1, -(2**70)], "tiny": [-0.0, 5e-324, 1e308]},
    {s: s for s in EDGE_STRINGS},
])
def test_summary_text_edge_cases(summary):
    assert summary_text(summary) == reference(summary)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("where", [lambda x: {"x": x}, lambda x: {"a": [1, {"b": [x]}]}])
def test_non_finite_floats_raise_like_json(bad, where):
    summary = where(bad)
    with pytest.raises(ValueError) as want:
        reference(summary)
    with pytest.raises(ValueError) as got:
        summary_text(summary)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("bad", [object(), {1, 2}, b"bytes", 1j])
def test_other_types_raise_type_error(bad):
    with pytest.raises(TypeError):
        reference({"x": [bad]})
    with pytest.raises(TypeError):
        summary_text({"x": [bad]})


def test_keys_must_be_strings():
    with pytest.raises(TypeError):
        summary_text({"a": {1: 2}})

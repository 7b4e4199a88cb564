"""``RunOptions``: the per-run execution knobs, validated once."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.exec import RunOptions

COUNT_FIELDS = ("batch_size", "max_records_in_ram")

#: Anything a caller might pass for a knob.
values = st.one_of(
    st.none(),
    st.booleans(),
    st.booleans().map(np.bool_),
    st.integers(min_value=-5, max_value=10**6),
    st.integers(min_value=-5, max_value=10**6).map(np.int64),
    st.integers(min_value=-5, max_value=127).map(np.int8),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=8),
    st.sampled_from(["raise", "skip", "10", "Skip"]),
)


def _valid_count(value):
    return value is None or (
        not isinstance(value, bool)
        and isinstance(value, (int, np.integer))
        and value >= 1
    )


@given(batch_size=values, max_records_in_ram=values, on_error=values)
def test_construction_validates_or_records_exactly_the_set_knobs(
    batch_size, max_records_in_ram, on_error
):
    knobs = {
        "batch_size": batch_size,
        "max_records_in_ram": max_records_in_ram,
        "on_error": on_error,
    }
    bad = [name for name in COUNT_FIELDS if not _valid_count(knobs[name])]
    if on_error not in ("raise", "skip"):
        bad.append("on_error")
    if bad:
        with pytest.raises((TypeError, ValueError)) as caught:
            RunOptions(**knobs)
        # The message names the first offending field, in field order.
        assert str(caught.value).startswith(bad[0])
        return
    options = RunOptions(**knobs)
    expected = {}
    if max_records_in_ram is not None:
        expected["stream"] = True
        expected["max_records_in_ram"] = int(max_records_in_ram)
    if batch_size is not None:
        expected["batch_size"] = int(batch_size)
    assert options.execution == (expected or None)
    for name in COUNT_FIELDS:
        value = getattr(options, name)
        assert value is None or type(value) is int
    assert options.record_identity() == (
        {} if batch_size is None else {"batch_size": int(batch_size)}
    )


def test_messages_name_the_field():
    with pytest.raises(TypeError, match=r"^batch_size must be an integer"):
        RunOptions(batch_size=2.5)
    with pytest.raises(
        TypeError, match=r"^max_records_in_ram must be an integer, got '10'"
    ):
        RunOptions(max_records_in_ram="10")
    with pytest.raises(
        ValueError, match=r"^max_records_in_ram must be >= 1, got 0"
    ):
        RunOptions(max_records_in_ram=0)
    with pytest.raises(
        ValueError, match=r'^on_error must be "raise" or "skip", got \'x\''
    ):
        RunOptions(on_error="x")


def test_defaults_record_nothing_and_options_are_frozen():
    options = RunOptions()
    assert options.execution is None
    assert options.record_identity() == {}
    assert options.on_error == "raise"
    with pytest.raises(dataclasses.FrozenInstanceError):
        options.batch_size = 4  # type: ignore[misc]


def test_not_part_of_the_public_facade():
    import repro.api

    assert "RunOptions" not in repro.api.__all__

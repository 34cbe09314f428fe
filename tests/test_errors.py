"""The config schema shared by the camera, generator and training configs,
and the JSON writer."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waterline.data import GenConfig
from waterline.errors import Bounds, ConfigError, load_json, write_json
from waterline.geometry import CameraModel
from waterline.training import TrainConfig

# Any JSON value (and the non-finite floats), plus numbers and pairs near the
# fields' bounds so that some drawn objects build a config.
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=6,
)
_NEAR = st.integers(-2, 1000) | st.floats(-100.0, 1000.0)
_VALUE = _NEAR | st.lists(_NEAR, min_size=2, max_size=2) | _JSON
# A valid object of each config, which the drawn keys override in half the draws.
_VALID = {
    CameraModel: dataclasses.asdict(CameraModel.default()),
    GenConfig: {"n_samples": 1},
    TrainConfig: {},
}


@pytest.mark.parametrize("cls", [CameraModel, GenConfig, TrainConfig])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_from_dict_builds_or_raises_config_error(cls, data):
    names = [f.name for f in dataclasses.fields(cls)]
    raw = data.draw(st.dictionaries(st.sampled_from(names), _VALUE))
    if data.draw(st.booleans()):
        raw = {**_VALID[cls], **raw}
    try:
        config = cls.from_dict(raw)
    except ConfigError:
        return  # main maps it to exit code 2
    for name, value in raw.items():
        assert getattr(config, name) == (tuple(value) if isinstance(value, list) else value)


@pytest.mark.parametrize(
    "bounds, inside, outside",
    [
        (Bounds(2), [2, 1e300], [1.999, -math.inf]),
        (Bounds(0, lo_open=True), [5e-324], [0, -1]),
        (Bounds(0, 1, hi_open=True), [0, 0.999], [1, -0.1]),
        (Bounds(0, 1, lo_open=True, hi_open=True), [0.5], [0, 1]),
        (Bounds(-90, 90), [-90, 90], [-90.5, 90.5]),
    ],
)
def test_bounds_edges(bounds, inside, outside):
    assert all(x in bounds for x in inside)
    assert not any(x in bounds for x in outside)


def test_bounds_holds_elementwise():
    """On an array, holds gives each item's membership; NaN lies in no interval."""
    bounds = Bounds(0, 1, lo_open=True)
    items = [-0.5, 0.0, 5e-324, 1.0, 1.5, math.nan, math.inf]
    assert bounds.holds(np.array(items)).tolist() == [x in bounds for x in items]
    assert [x in bounds for x in items] == [False, False, True, True, False, False, False]


def test_write_json_rejects_non_finite_before_opening(tmp_path):
    path = tmp_path / "out.json"
    with pytest.raises(ValueError):
        write_json(path, {"threshold": math.nan})
    assert not path.exists()


def _finite_typed(value) -> bool:
    """Whether a decoded JSON value holds only finite numbers and JSON types."""
    if isinstance(value, dict):
        return all(type(k) is str and _finite_typed(v) for k, v in value.items())
    if isinstance(value, list):
        return all(_finite_typed(v) for v in value)
    if type(value) is float:
        return math.isfinite(value)
    return value is None or type(value) in (bool, int, str)


# JSON text (json.dumps writes NaN and Infinity for non-finite floats), nesting
# deeper than the decoder's recursion limit, and arbitrary bytes.
_JSON_FILE = st.one_of(
    _JSON.map(lambda v: json.dumps(v).encode()),
    st.dictionaries(st.text(max_size=3), _JSON, max_size=3).map(lambda v: json.dumps(v).encode()),
    st.tuples(st.sampled_from([1, 50, 10_000, 100_000]), st.sampled_from("[{")).map(
        lambda d: (b'{"a": ' + (b"[" * d[0] + b"]" * d[0] if d[1] == "[" else
                                b'{"a": ' * d[0] + b"1" + b"}" * d[0]) + b"}")
    ),
    st.binary(max_size=40),
)


@settings(max_examples=300, deadline=None)
@given(raw=_JSON_FILE)
def test_load_json_loads_finite_object_or_raises_config_error(tmp_path_factory, raw):
    """Every file either loads to a JSON object of finite, typed values or
    raises the loader's error, which main maps to exit code 2."""
    path = tmp_path_factory.mktemp("json") / "config.json"
    path.write_bytes(raw)
    try:
        data = load_json(path, "config", ConfigError)
    except ConfigError as exc:
        assert str(exc).startswith("config ")
        return
    assert type(data) is dict and _finite_typed(data)

import json
import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fpplab import DomainError, ExperimentConfig, full_report
from fpplab.experiments import SCALING_CSV_HEADER
from fpplab.reporting import dumps, format_cell, write_svg_lines

finite_floats = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=500, deadline=None)
@given(finite_floats)
@example(1e16)
@example(5e-324)
@example(-0.0)
@example(0.1)
@example(1.7976931348623157e308)
def test_finite_floats_round_trip_bit_for_bit(x):
    back = json.loads(dumps({"x": x, "xs": [x, np.float64(x)]}))
    for y in (back["x"], *back["xs"]):
        assert type(y) is float
        assert y.hex() == x.hex()


@settings(max_examples=300, deadline=None)
@given(finite_floats)
@example(1e16)
@example(5e-324)
@example(-0.0)
def test_format_cell_parses_to_the_float_the_json_holds(x):
    cell = format_cell(x)
    assert float(cell).hex() == json.loads(dumps(x)).hex()
    assert format_cell(np.float64(x)) == cell


@settings(max_examples=300, deadline=None)
@given(st.text())
@example("exp:rate=1\x0c")
@example("\x00\x07\x1b\x7f  ")
@example('quote " and backslash \\ and \\n literal')
@example("σ ≤ ∞, naïve, 漢字, 🎲")
def test_strings_read_back_equal(s):
    doc = {s: s, "list": [s]}
    assert json.loads(dumps(doc)) == doc


@dataclass
class _Inner:
    edge: int
    endpoints: tuple
    value: float


@dataclass
class _Outer:
    name: str
    inner: _Inner
    items: list
    table: dict
    arr: np.ndarray


def test_numpy_values_and_nested_dataclasses_are_normalized():
    obj = _Outer(
        name="x",
        inner=_Inner(np.int64(3), (np.int32(1), 2), np.float32(0.5)),
        items=[_Inner(4, (5, 6), np.float64(1e16))],
        table={2: np.bool_(True), "a": None},
        arr=np.array([[1.5, 2.0], [3.0, -0.0]]),
    )
    assert json.loads(dumps(obj)) == {
        "name": "x",
        "inner": {"edge": 3, "endpoints": [1, 2], "value": 0.5},
        "items": [{"edge": 4, "endpoints": [5, 6], "value": 1e16}],
        "table": {"2": True, "a": None},
        "arr": [[1.5, 2.0], [3.0, -0.0]],
    }
    assert type(json.loads(dumps(np.int64(7)))) is int


def test_keys_sorted_two_space_indent_trailing_newline():
    text = dumps({"b": [1, {}], "a": [], "c": {"y": 1.0, "x": True}})
    assert text == (
        '{\n  "a": [],\n  "b": [\n    1,\n    {}\n  ],\n'
        '  "c": {\n    "x": true,\n    "y": 1.0\n  }\n}\n'
    )


@pytest.mark.parametrize(
    "bad", [math.nan, math.inf, -math.inf, np.float64("nan"), [1.0, {"k": math.inf}]]
)
def test_non_finite_floats_raise_domain_error(bad):
    with pytest.raises(DomainError):
        dumps({"v": bad})


@pytest.mark.parametrize("bad", [math.nan, math.inf, np.float32("-inf")])
def test_format_cell_rejects_non_finite(bad):
    with pytest.raises(DomainError):
        format_cell(bad)


def test_unserializable_object_raises_domain_error():
    with pytest.raises(DomainError):
        dumps({"v": object()})
    with pytest.raises(DomainError):
        dumps({"v": {1, 2}})


def test_full_report_sections_keep_their_fields():
    cfg = ExperimentConfig(dist_spec="exp:rate=1", dim=2, n_list=(5, 8, 12),
                           replicas=12, master_seed=4, workers=1)
    doc = json.loads(dumps(full_report(cfg)))
    assert set(doc) == {"version", "config", "format", "rows", "fit", "time_constant"}
    assert doc["format"] == 3
    assert set(doc["fit"]) == {"c_linear", "rss_linear", "c_over_log",
                               "rss_over_log", "preferred", "noise_floor"}
    assert set(doc["time_constant"]) == {"direction", "rows", "subadditivity",
                                         "nonincreasing_within_ci"}
    assert all(set(r) == set(SCALING_CSV_HEADER) for r in doc["rows"])


# ---------------------------------------------------------------------------
# SVG chart

_SVG = "{http://www.w3.org/2000/svg}"


def test_svg_chart_parses_with_one_polyline_per_series(tmp_path):
    import xml.etree.ElementTree as ET

    x = [5, 10, 20, 40]
    series = {"var/n": [0.31, 0.25, 0.22, 0.2], "mean/n": [1.1, 1.0, 0.95, 0.93],
              "a & b": [0.5, 0.5, 0.4, 0.3]}
    labels = dict(title="x<y", x_label="n", y_label="value")
    a = write_svg_lines(tmp_path / "a.svg", x, series, **labels)
    b = write_svg_lines(tmp_path / "b.svg", x, series, **labels)
    assert a.read_bytes() == b.read_bytes()
    root = ET.parse(a).getroot()
    assert root.tag == _SVG + "svg"
    vx, vy, vw, vh = (float(v) for v in root.get("viewBox").split())
    lines = root.findall(_SVG + "polyline")
    assert len(lines) == len(series)
    for line in lines:
        points = [tuple(map(float, p.split(","))) for p in line.get("points").split()]
        assert len(points) == len(x)
        assert all(vx <= px <= vx + vw and vy <= py <= vy + vh for px, py in points)
    texts = {t.text for t in root.iter(_SVG + "text")}
    assert {"x<y", "n", "value", "mean/n", "var/n", "a & b"} <= texts


def test_svg_chart_renders_a_constant_series(tmp_path):
    import xml.etree.ElementTree as ET

    path = write_svg_lines(tmp_path / "c.svg", [1, 2, 3], {"c": [4.0, 4.0, 4.0]})
    (line,) = ET.parse(path).getroot().findall(_SVG + "polyline")
    points = line.get("points").split()
    assert len(points) == 3 and len({p.split(",")[1] for p in points}) == 1


@pytest.mark.parametrize(
    "x,series",
    (([], {"a": []}), ([1, 2], {}), ([1, 2], {"a": []}), ([1, 2], {"a": [1.0, 2.0], "b": [3.0]})),
)
def test_svg_chart_rejects_empty_or_ragged_input(x, series, tmp_path):
    with pytest.raises(DomainError):
        write_svg_lines(tmp_path / "e.svg", x, series)
    assert not (tmp_path / "e.svg").exists()

"""Artifact bytes pinned to literals: canonical JSON of a nested report and
the FSF1 header.  Any change to either rendering shows here first."""

from dataclasses import dataclass

import numpy as np
import pytest

from fracsys import (GridSpec, canonical_json, constant_field, periodic_rule,
                     read_field_fsf1, write_field_fsf1, zero_rule)


@dataclass
class Row:
    name: str
    value: float
    shape: tuple


NESTED = [
    {"row": Row("r", np.float64(0.1), (np.int64(3), 2.5)), 7: "seven"},
    constant_field(GridSpec(dim=2, h=0.25, radius=1.0), [0.5, -0.5], zero_rule()),
    {"f32": np.float32(1.5), "i": np.int32(-4), "b": np.bool_(True), "py": False,
     "nan": float("nan"), "inf": np.inf, "-inf": -np.inf, "neg0": -0.0,
     "arr": np.array([[1.0, -0.0], [np.nan, 2.0]]), "none": None, 1.5: (1, "x"),
     "dup": {1: "int", "1": "str"}},
]

NESTED_JSON = (
    '[{"7": "seven", "row": {"name": "r", "shape": [3, 2.5], "value": 0.10000000000000001}}, '
    '{"exterior": "zero", "grid": {"dim": 2, "h": 0.25, "periodic": false, "radius": 1, '
    '"truncation_radius": 4}, "m": 2}, '
    '{"-inf": "-inf", "1.5": [1, "x"], "arr": [[1, -0], ["nan", 2]], "b": true, '
    '"dup": {"1": "str"}, "f32": 1.5, "i": -4, "inf": "inf", "nan": "nan", "neg0": -0, '
    '"none": null, "py": false}]\n'
)


def test_canonical_json_of_a_nested_report():
    # a dataclass in a dict in a list, a SampledField, numpy scalars, nan and
    # +-inf, -0.0, a tuple, non-string keys and two keys equal after str()
    assert canonical_json(NESTED) == NESTED_JSON


# magic "FSF1" | int32 n | int32 m | int32 dims[n] | float64 h, little endian
HEADERS = [
    (GridSpec(dim=1, h=0.25, radius=1.0),
     "46534631" "01000000" "02000000" "11000000" "000000000000d03f"),
    (GridSpec(dim=2, h=0.5, radius=1.0, periodic=True),
     "46534631" "02000000" "02000000" "04000000" "04000000" "000000000000e03f"),
]


@pytest.mark.parametrize("grid, header", HEADERS, ids=["1d-free", "2d-torus"])
def test_fsf1_header_bytes(tmp_path, grid, header):
    rule = periodic_rule() if grid.periodic else zero_rule()
    field = constant_field(grid, [1.0, 2.0], rule)
    raw = write_field_fsf1(tmp_path / "f.fsf1", field).read_bytes()
    head = bytes.fromhex(header)
    assert raw[: len(head)] == head
    assert raw[len(head):] == np.tile([1.0, 2.0], grid.shape).astype("<f8").tobytes()
    back = read_field_fsf1(tmp_path / "f.fsf1", rule)
    assert back.grid == grid and np.array_equal(back.values, field.values)

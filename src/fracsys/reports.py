"""Canonical serialization of reports and fields.

JSON output is diffable: keys sorted, floats rendered with 17 significant
digits, no locale or timestamp dependence, so a fixed seed and config yield
byte-identical artifacts.  Fields serialize to CSV (node coordinates plus m
values) and to a flat little-endian binary format, FSF1: one header,
struct format "<4sii{n}id",

    magic "FSF1" | int32 n | int32 m | int32 dims[n] | float64 h

then float64 values, C order, shape dims x m.  That one format writes the
header and reads it back.  Grids are origin centered, so coordinates are
implied by dims and h.
"""

from __future__ import annotations

import dataclasses
import json
import math
import struct
from pathlib import Path

import numpy as np

from .errors import DomainError
from .fields import GridSpec, SampledField, parse_rule

__all__ = [
    "canonical_json",
    "emit_report",
    "write_field_csv",
    "write_field_fsf1",
    "read_field_fsf1",
    "write_csv",
]

_MAGIC = b"FSF1"


def _header(n: int) -> struct.Struct:
    """The FSF1 header of an n-d grid: magic, n, m, dims[n], h."""
    return struct.Struct(f"<4sii{n}id")


def _render(obj) -> str:
    # a SampledField is a dataclass too, whose exterior rule holds functions:
    # it is summarized before the generic dataclass branch can recurse into it
    if isinstance(obj, SampledField):
        obj = {"grid": obj.grid, "m": obj.m, "exterior": obj.exterior.kind}
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        obj = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        items = {str(k): v for k, v in obj.items()}  # keys equal after str(): last wins
        return "{" + ", ".join(f"{json.dumps(k)}: {_render(items[k])}"
                               for k in sorted(items)) + "}"
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(map(_render, obj)) + "]"
    if isinstance(obj, (float, np.floating)):
        # JSON has no nan/inf literals; render them as strings, still diffable
        x = float(obj)
        if math.isfinite(x):
            return format(x, ".17g")
        return '"nan"' if x != x else ('"inf"' if x > 0 else '"-inf"')
    if isinstance(obj, (np.integer, np.bool_)):
        obj = obj.item()
    return json.dumps(obj)


def canonical_json(obj) -> str:
    """Serialize with sorted keys and fixed 17-significant-digit floats."""
    return _render(obj) + "\n"


def _csv_cell(v) -> str:
    return format(float(v), ".17g") if isinstance(v, (float, np.floating)) else str(v)


def write_csv(path, header, rows):
    """CSV with canonical float formatting: floats with 17 significant
    digits, anything else as str().  A float array is rendered a row at a
    time by one format string, with the same bytes, converted to Python
    floats a block of rows at a time so the transient stays small."""
    path = Path(path)
    lines = [",".join(header)]
    if isinstance(rows, np.ndarray) and rows.dtype.kind == "f":
        fmt = ",".join(["%.17g"] * rows.shape[1])
        for start in range(0, rows.shape[0], 256):
            lines += [fmt % tuple(row) for row in rows[start : start + 256].tolist()]
    else:
        lines += [",".join(map(_csv_cell, row)) for row in rows]
    path.write_text("\n".join(lines) + "\n")
    return path


def emit_report(report, path) -> Path:
    """Write any report (dataclass or dict) as canonical JSON; known tabular
    reports get a CSV companion next to the JSON file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(canonical_json(report))
    name = type(report).__name__
    if name == "DecayLedger":
        rows = [
            (int(k), float(r), float(m), *map(float, np.atleast_1d(c)))
            for k, r, m, c in zip(report.levels, report.ball_radii,
                                  report.radii, report.centers)
        ]
        mdim = np.atleast_2d(report.centers).shape[-1]
        header = ["k", "ball_radius", "M_k"] + [f"rho_k_{i}" for i in range(mdim)]
        write_csv(path.with_suffix(".csv"), header, rows)
    elif name == "HarnackReport":
        rows = list(zip(map(float, report.s_values), map(float, report.ratios_by_s)))
        write_csv(path.with_suffix(".csv"), ["s", "ratio"], rows)
    return path


def write_field_csv(path, field: SampledField) -> Path:
    pts = field.grid.points().reshape(-1, field.grid.dim)
    vals = np.asarray(field.values).reshape(-1, field.m)
    header = [f"x{i}" for i in range(field.grid.dim)] + [f"u{i}" for i in range(field.m)]
    rows = np.hstack([pts, vals])
    return write_csv(path, header, rows)


def _fsf1_grid(n, dims, h) -> GridSpec:
    """The centered grid an FSF1 header describes: odd dims => free space
    (ball + collar, default truncation radius), even => periodic."""
    if dims[0] % 2 == 1:
        return GridSpec(dim=n, h=h, radius=(dims[0] - 1) // 2 * h / 2.0)
    return GridSpec(dim=n, h=h, radius=dims[0] * h / 2.0, periodic=True)


def _require_fsf1_grid(grid: GridSpec):
    """Refuse a grid the FSF1 header cannot describe exactly, and so would
    read back differently."""
    if _fsf1_grid(grid.dim, grid.shape, grid.h) != grid:
        raise DomainError(f"FSF1 stores only dims and h; it cannot round-trip {grid}")


def write_field_fsf1(path, field: SampledField) -> Path:
    """Write a binary field; lossy grids are refused before the file is
    opened."""
    path = Path(path)
    grid = field.grid
    _require_fsf1_grid(grid)
    with open(path, "wb") as fh:
        fh.write(_header(grid.dim).pack(_MAGIC, grid.dim, field.m, *grid.shape, grid.h))
        fh.write(np.ascontiguousarray(field.values, dtype="<f8").tobytes())
    return path


def read_field_fsf1(path, exterior="zero") -> SampledField:
    """Read a binary field; the exterior rule is not stored and must be
    resupplied (config rule name or ExteriorRule).  DomainError on a
    malformed file: a short header, n, m or a dim below 1, or a payload that
    is not exactly prod(dims) * m float64 values."""
    raw = Path(path).read_bytes()
    if raw[:4] != _MAGIC:
        raise DomainError("not a field file (bad magic)")
    n, m = struct.unpack_from("<ii", raw, 4) if len(raw) >= 12 else (0, 0)
    header = _header(max(n, 0))
    if len(raw) < header.size:
        raise DomainError(f"FSF1 header needs {header.size} bytes, file has {len(raw)}")
    _, _, _, *dims, h = header.unpack_from(raw)
    if min(n, m, *dims) < 1:
        raise DomainError(f"FSF1 n = {n}, m = {m} and dims {dims} must be at least 1")
    payload = math.prod(dims) * m * 8
    if len(raw) - header.size != payload:
        raise DomainError(f"FSF1 payload of {dims} x {m} float64 needs {payload} bytes, "
                          f"file has {len(raw) - header.size}")
    vals = np.frombuffer(raw, dtype="<f8", offset=header.size).reshape(*dims, m)
    grid = _fsf1_grid(n, dims, h)
    rule = parse_rule(exterior) if isinstance(exterior, str) else exterior
    return SampledField(grid, vals.copy(), rule)

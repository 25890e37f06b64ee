"""Configs the runner refuses, and the command paths no other test runs.

A config whose JSON has the wrong shape (an array for the config, a number
for a section, a string where a list belongs), a malformed constant rule
and an order parameter outside (0, 1) end in exit status 2 with a message
naming the key, never in a traceback.
"""

import json

import numpy as np
import pytest

from fracsys import DomainError, GridSpec, read_field_fsf1, write_field_fsf1, zero_rule
from fracsys.cli import main
from fracsys.fields import constant_field

GRID_1D = {"dim": 1, "h": 1 / 16, "radius": 1.0}
TORUS_1D = {"dim": 1, "h": 2 * np.pi / 64, "radius": np.pi, "periodic": True}
TORUS_2D = {"dim": 2, "h": 2 * np.pi / 16, "radius": np.pi, "periodic": True}
BOUNDS = {"a": 1.0, "a_star": 0.0, "M": 1.0}


def run(tmp_path, capsys, argv, cfg, text=None):
    """main(argv + --config) on cfg written as JSON (or on the raw text);
    returns (exit status, stderr)."""
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg) if text is None else text)
    code = main([*argv, "--config", str(p)])
    return code, capsys.readouterr().err


def with_out(tmp_path, cfg):
    return {"output_dir": str(tmp_path / "out"), **cfg} if isinstance(cfg, dict) else cfg


SHAPE_CASES = {
    "array": ([1, 2], "config must be a JSON object, got list"),
    "kernel-number": ({"command": "solve-linear", "grid": GRID_1D, "kernel": 5},
                      "kernel must be an object, got 5"),
    "solver-number": ({"command": "solve-linear", "grid": GRID_1D, "solver": 5},
                      "solver must be an object, got 5"),
    "s_values-number": ({"command": "limit", "grid": TORUS_1D, "s_values": 0.5},
                        "s_values must be a list, got 0.5"),
    "exterior-number": ({"command": "solve-linear", "grid": GRID_1D, "exterior": 5},
                        "exterior must be a string, got 5"),
    "constant-not-json": ({"command": "solve-linear", "grid": GRID_1D,
                           "exterior": "constant:[1,"},
                          "constant rule needs a list of numbers: 'constant:[1,'"),
    "constant-not-numbers": ({"command": "solve-linear", "grid": GRID_1D,
                              "exterior": 'constant:["a"]'},
                             "constant rule needs a list of numbers"),
    # JSON booleans would read as 1 or 0; JSON admits NaN and Infinity
    "constant-boolean": ({"command": "solve-linear", "grid": GRID_1D,
                          "exterior": "constant:true"},
                         "constant rule needs a list of numbers: 'constant:true'"),
    "constant-boolean-in-list": ({"command": "solve-linear", "grid": GRID_1D,
                                  "exterior": "constant:[1, false]"},
                                 "constant rule needs a list of numbers"),
    "constant-nan": ({"command": "solve-linear", "grid": GRID_1D,
                      "exterior": "constant:[NaN]"},
                     "constant rule needs a list of numbers: 'constant:[NaN]'"),
    "constant-infinity": ({"command": "solve-linear", "grid": GRID_1D,
                           "exterior": "constant:-Infinity"},
                          "constant rule needs a list of numbers"),
}


@pytest.mark.parametrize("case", list(SHAPE_CASES))
def test_wrong_json_shape_exits_two(tmp_path, capsys, case):
    cfg, message = SHAPE_CASES[case]
    code, err = run(tmp_path, capsys, ["solve-linear"] if case == "array" else [],
                    with_out(tmp_path, cfg))
    assert code == 2
    assert message in err
    assert not (tmp_path / "out" / "field.csv").exists()


def test_output_dir_not_a_string_exits_two(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, err = run(tmp_path, capsys, ["audit"], {"bounds": BOUNDS, "output_dir": 5})
    assert code == 2
    assert "output_dir must be a string, got 5" in err
    assert not (tmp_path / "5").exists()


@pytest.mark.parametrize("name", ["constant:[1,", 'constant:["a"]', 'constant:{"a": 1}',
                                  "constant:true", "constant:[0.5, true]", "constant:[NaN]",
                                  "constant:Infinity", "constant:[1e999]"])
def test_field_file_with_malformed_constant_rule(tmp_path, name):
    grid = GridSpec(dim=1, h=1 / 8, radius=1.0)
    path = write_field_fsf1(tmp_path / "u.fsf1", constant_field(grid, [0.5], zero_rule()))
    with pytest.raises(DomainError, match="constant rule needs a list of numbers"):
        read_field_fsf1(path, name)
    assert np.all(read_field_fsf1(path, "constant:[0.5]").values == 0.5)


def test_probe_decay_refuses_an_order_out_of_range(tmp_path, capsys):
    cfg = {"command": "probe-decay", "grid": {"dim": 1, "h": 1 / 64, "radius": 1.5},
           "bounds": BOUNDS, "kernel": {"s": 1.5}, "solver": {"levels": 3}}
    code, err = run(tmp_path, capsys, [], with_out(tmp_path, cfg))
    assert code == 2
    assert "order parameter out of range: kernel.s = 1.5" in err
    assert not (tmp_path / "out" / "decay_ledger.json").exists()


DECAY = {"command": "probe-decay", "grid": {"dim": 1, "h": 1 / 64, "radius": 1.5},
         "bounds": BOUNDS, "solver": {"levels": 3}}

HARNACK = {"command": "probe-harnack", "grid": GRID_1D, "s_values": [0.5]}
LIMIT = {"command": "limit", "grid": TORUS_1D, "s_values": [0.9]}

# (base config, case name, keys added, the keys refused): keys a command
# never reads, beside the seed rows below
UNREAD_CASES = [
    (DECAY, "kernel", {"kernel": {"kind": "anisotropic", "matrix": [[2.0]], "Lambda": 99}},
     ["kernel.Lambda", "kernel.kind", "kernel.matrix"]),
    (DECAY, "exterior", {"exterior": "zero"}, ["exterior"]),
    (DECAY, "s_values", {"s_values": [0.5]}, ["s_values"]),
    (DECAY, "steps", {"solver": {"levels": 3, "steps": 5}}, ["solver.steps"]),
    ({"command": "audit", "bounds": BOUNDS}, "grid", {"grid": GRID_1D},
     ["grid", "grid.dim", "grid.h", "grid.radius"]),
    ({"command": "audit", "bounds": BOUNDS}, "kernel-s", {"kernel": {"s": 0.5}},
     ["kernel", "kernel.s"]),
    ({"command": "audit", "bounds": BOUNDS}, "steps", {"solver": {"steps": 5}},
     ["solver", "solver.steps"]),
    (HARNACK, "exterior", {"exterior": "sign"}, ["exterior"]),
    (HARNACK, "bounds", {"bounds": BOUNDS}, ["bounds", "bounds.M", "bounds.a", "bounds.a_star"]),
    (LIMIT, "exterior", {"exterior": "zero"}, ["exterior"]),
    (LIMIT, "field_profile", {"field_profile": "sign"}, ["field_profile"]),
    ({"command": "verify"}, "kernel", {"kernel": {"s": 0.5}}, ["kernel", "kernel.s"]),
    ({"command": "verify"}, "exterior", {"exterior": "zero"}, ["exterior"]),
]

# (config, exit status, message on stderr or the ledger's fitted decay rate:
# |x|^(1/2) and x halve their oscillation by 2^(-1/2) and 2^(-1) per level)
PATH_CASES = {
    "invalid-json": (None, 2, "config is not valid JSON"),
    "order-out-of-range": ({"command": "solve-linear", "grid": GRID_1D, "kernel": {"s": 1.0}},
                           2, "order parameter out of range: kernel.s = 1.0"),
    "anisotropic-no-matrix": ({"command": "solve-linear", "grid": GRID_1D,
                               "kernel": {"kind": "anisotropic"}},
                              2, "anisotropic kernel needs a matrix"),
    "unknown-kernel-kind": ({"command": "solve-linear", "grid": GRID_1D,
                             "kernel": {"kind": "gaussian"}},
                            2, "unsupported kernel kind in config: 'gaussian'"),
    "bounds-missing-keys": ({"command": "audit", "bounds": {"a": 1.0}},
                            2, "bounds section missing keys: ['M', 'a_star']"),
    "profile-sqrt_abs": ({**DECAY, "field_profile": "sqrt_abs"}, 0, 0.5),
    "profile-linear": ({**DECAY, "field_profile": "linear"}, 0, 1.0),
    "profile-unknown": ({**DECAY, "field_profile": "cubic"},
                        2, "unknown field profile: 'cubic'"),
    "limit-free-grid": ({"command": "limit", "grid": {**TORUS_1D, "periodic": False},
                         "s_values": [0.9]}, 2, "limit command needs a periodic grid"),
    "limit-2d-no-matrix": ({"command": "limit", "grid": TORUS_2D, "s_values": [0.9]},
                           2, "anisotropic limit needs kernel.matrix"),
    # keys a command would silently ignore
    "solve-linear-seed": ({"command": "solve-linear", "grid": GRID_1D, "seed": 3},
                          2, "solve-linear does not read config keys: ['seed']"),
    "solve-harmonic-seed": ({"command": "solve-harmonic", "grid": GRID_1D, "seed": 3},
                            2, "solve-harmonic does not read config keys: ['seed']"),
    "solve-gl-seed": ({"command": "solve-gl", "grid": GRID_1D, "seed": 3},
                      2, "solve-gl does not read config keys: ['seed']"),
    "fractional-matrix": ({"command": "solve-linear", "grid": {**GRID_1D, "dim": 2, "h": 1 / 8},
                           "kernel": {"matrix": [[2, 0], [0, 1]]}},
                          2, "kernel.matrix needs kind 'anisotropic'"),
    "limit-1d-matrix": ({"command": "limit", "grid": TORUS_1D, "s_values": [0.9],
                         "kernel": {"kind": "anisotropic", "matrix": [[3.0]]}},
                        2, "the 1-d limit is isotropic: it reads no kernel.matrix"),
    "limit-1d-kind": ({"command": "limit", "grid": TORUS_1D, "s_values": [0.9],
                       "kernel": {"kind": "anisotropic"}},
                      2, "the 1-d limit is isotropic: it reads no kernel.matrix"),
    "probe-harnack-matrix": ({"command": "probe-harnack",
                              "grid": {**GRID_1D, "dim": 2, "h": 1 / 8},
                              "kernel": {"matrix": [[2, 0], [0, 1]]}, "s_values": [0.5]},
                             2, "kernel.matrix needs kind 'anisotropic'"),
    **{f"limit-2d-{name}": ({"command": "limit", "grid": TORUS_2D, "s_values": [0.9],
                             "kernel": {**kind, "matrix": [[1, 0], [0, 1]]}},
                            2, "kernel.matrix is read only with kernel.kind 'anisotropic'")
       for name, kind in (("gaussian", {"kind": "gaussian"}),
                          ("fractional", {"kind": "fractional"}), ("no-kind", {}))},
    **{f"{command}-seed": ({**cfg, "seed": 3},
                           2, f"{command} does not read config keys: ['seed']")
       for command, cfg in (("probe-decay", DECAY),
                            ("probe-harnack", {"command": "probe-harnack", "grid": GRID_1D,
                                               "s_values": [0.5]}),
                            ("audit", {"command": "audit", "bounds": BOUNDS}),
                            ("limit", {"command": "limit", "grid": TORUS_1D,
                                       "s_values": [0.9]}))},
    **{f"{cfg['command']}-unread-{name}": ({**cfg, **extra}, 2,
                                           f"{cfg['command']} does not read config keys: {keys}")
       for cfg, name, extra, keys in UNREAD_CASES},
}


@pytest.mark.parametrize("case", list(PATH_CASES))
def test_refusals_and_profiles(tmp_path, capsys, case):
    cfg, status, expect = PATH_CASES[case]
    text = '{"command": "audit", ' if cfg is None else None
    code, err = run(tmp_path, capsys, ["audit"] if cfg is None else [],
                    with_out(tmp_path, cfg or {}), text=text)
    assert code == status
    if status == 0:
        ledger = json.loads((tmp_path / "out" / "decay_ledger.json").read_text())
        assert ledger["levels"] == [0, 1, 2, 3]
        assert ledger["alpha_fit"] == pytest.approx(expect, abs=1e-12)
        assert (tmp_path / "out" / "decay_ledger.csv").exists()
    else:
        assert expect in err
        assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())

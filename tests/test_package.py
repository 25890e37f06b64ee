"""The package namespace re-exports every public name of its submodules."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import fracsys

SUBMODULES = [m.name for m in pkgutil.iter_modules(fracsys.__path__)]


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_public_names_are_exported(name):
    module = importlib.import_module(f"fracsys.{name}")
    missing = [n for n in getattr(module, "__all__", []) if not hasattr(fracsys, n)]
    assert not missing, f"fracsys.{name}.__all__ names not exported by fracsys: {missing}"
    for n in getattr(module, "__all__", []):
        assert getattr(fracsys, n) is getattr(module, n)


SOURCES = sorted(Path(fracsys.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_private_attribute_of_another_object(path):
    # a module reaches another object's internals only through public names;
    # self._x and dunder names are fine
    tree = ast.parse(path.read_text(), filename=str(path))
    bad = [f"{path.name}:{node.lineno}: {ast.unparse(node)}" for node in ast.walk(tree)
           if isinstance(node, ast.Attribute) and node.attr.startswith("_")
           and not (node.attr.startswith("__") and node.attr.endswith("__"))
           and not (isinstance(node.value, ast.Name) and node.value.id == "self")]
    assert not bad, bad


def _calls(tree, names):
    """(line, name) of every call in tree to a function called one of names,
    by attribute (np.fft.fftn) or by bare name (fftn)."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            f = node.func
            name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
            if name in names:
                out.append((node.lineno, name))
    return out


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_complex_nd_transform(path):
    # real fields take real transforms: one n-d complex pair doubles the work
    tree = ast.parse(path.read_text(), filename=str(path))
    bad = _calls(tree, {"fftn", "ifftn", "fft2", "ifft2"})
    assert not bad, [f"{path.name}:{line}: {name}" for line, name in bad]


def test_operators_invert_transforms_only_in_the_fft_product():
    # every correlation, circulant and multiplier of the operators is one
    # spectral product, so one function holds every inverse transform
    path = Path(fracsys.__file__).parent / "operators.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    inverses = {"ifft", "irfft", "irfftn", "ifftn", "ifft2", "irfft2"}
    inside = {line for node in ast.walk(tree)
              if isinstance(node, ast.FunctionDef) and node.name == "_fft_product"
              for line, _ in _calls(node, inverses)}
    assert inside, "operators._fft_product holds no inverse transform"
    stray = [f"operators.py:{line}: {name}" for line, name in _calls(tree, inverses)
             if line not in inside]
    assert not stray, stray


def test_quadrature_integrates_the_singular_power_only_in_intervals():
    # every shell mass, moment and tail is one ray integral, so one function
    # holds the closed-form primitive r^q / q and its q = 0 logarithm
    path = Path(fracsys.__file__).parent / "quadrature.py"
    tree = ast.parse(path.read_text(), filename=str(path))

    def primitives(tree):
        powers = {(node.lineno, ast.unparse(node)) for node in ast.walk(tree)
                  if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
                  and isinstance(node.right, ast.Name) and node.right.id == "q"}
        return powers | set(_calls(tree, {"log"}))

    functions = {node.name: node for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef)}
    assert "_ray_tail" not in functions, "quadrature._ray_tail is back"
    inside = primitives(functions["_intervals"])
    assert inside, "quadrature._intervals holds no closed-form primitive"
    stray = [f"quadrature.py:{line}: {what}"
             for line, what in sorted(primitives(tree) - inside)]
    assert not stray, stray


def test_cli_names_its_commands_in_one_table():
    # every per-command rule (runner, keys read) sits in cli.COMMANDS, so no
    # other literal in cli.py may list the command names
    from fracsys import cli

    path = Path(cli.__file__)
    tree = ast.parse(path.read_text(), filename=str(path))
    names = set(cli.COMMANDS)

    def listed(node):
        elts = node.keys if isinstance(node, ast.Dict) else getattr(node, "elts", [])
        return {e.value for e in elts if isinstance(e, ast.Constant)} & names

    tables = [node for node in ast.walk(tree)
              if isinstance(node, (ast.Dict, ast.Tuple, ast.List, ast.Set))
              and len(listed(node)) > 1]
    commands = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                    and [ast.unparse(t) for t in node.targets] == ["COMMANDS"])
    assert tables == [commands], [f"cli.py:{node.lineno}: {sorted(listed(node))}"
                                  for node in tables]


def test_readme_reads_table_matches_the_cli():
    # README's "reads" table names, per command, the keys cli.COMMANDS lets
    # it read, beside the command, schema_version and output_dir all read
    from fracsys import cli

    readme = (Path(fracsys.__file__).parents[2] / "README.md").read_text()
    table = readme[readme.index("| command | reads |"):].split("\n\n")[0]
    rows = {}
    for line in table.splitlines()[2:]:
        command, reads = [cell.strip() for cell in line.strip("|").split("|")]
        rows[command.strip("`")] = [key.strip("`*") for key in reads.split(", ")]
    assert set(rows) == set(cli.COMMANDS)
    for command, (_, reads) in cli.COMMANDS.items():
        assert cli._reads(*rows[command]) == reads, command

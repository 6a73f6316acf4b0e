"""Package hygiene: unused imports, the one list of public names, _frozen."""

import ast
from pathlib import Path

import numpy as np
import pytest

import colflux
from colflux.numerics import _frozen

SRC = Path(colflux.__file__).parent
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem not in ("__init__", "cli"))


def unused_imports(tree: ast.Module) -> list:
    """Names bound by an import statement and never read nor re-exported."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    bound[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "__all__":
            read.update(c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant))
    return sorted((line, name) for name, line in bound.items() if name not in read)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_a_name_it_never_uses(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert unused_imports(tree) == []


def test_the_checker_sees_an_unused_import():
    tree = ast.parse("import os\nfrom a import b, c as d, e\nprint(d)\n__all__ = ['e']\n")
    assert unused_imports(tree) == [(1, "os"), (2, "b")]


def test_package_exports_exactly_the_modules_public_names():
    expected = ["__version__"]
    for name in MODULES:
        expected += getattr(colflux, name).__all__
    assert colflux.__all__ == expected
    assert len(set(expected)) == len(expected)
    for name in expected:
        assert hasattr(colflux, name), name


class TestFrozen:
    def test_wrong_shape_names_the_array(self):
        with pytest.raises(ValueError, match=r"^flux needs nodal values of shape \(4,\)"):
            _frozen(np.zeros(3), (4,), "flux")

    def test_non_finite_entry_names_the_array(self):
        with pytest.raises(ValueError, match="^q0 values must be finite"):
            _frozen(np.array([0.0, np.nan]), (2,), "q0")

    def test_returns_a_read_only_float64_array_without_copying(self):
        values = np.arange(6.0).reshape(2, 3)
        out = _frozen(values, (2, 3), "field")
        assert out is values and not out.flags.writeable
        converted = _frozen([1, 2])
        assert converted.dtype == np.float64 and not converted.flags.writeable

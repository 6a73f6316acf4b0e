"""Package hygiene: unused imports (in the tests too), private names across
modules, the one list of public names, _frozen, and the one check of nodal
inputs."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import colflux
from colflux.assimilate import PriorSpec, prior_apply_inverse
from colflux.model import CoefficientProfile
from colflux.numerics import ColumnGrid, TimeGrid, _frozen
from colflux.observe import Weight, apply_observation
from colflux.posterior import blind_direction
from colflux.spectral import eigensystem, expand_weight
from colflux.transport import FluxSignal, energy_fit, mass_balance_residual, solve_forward

SRC = Path(colflux.__file__).parent
TESTS = Path(__file__).parent
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


@pytest.mark.parametrize(
    "path", sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")), ids=lambda p: p.name
)
def test_no_module_imports_a_name_it_never_uses(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert unused_imports(tree) == []


def test_the_checker_sees_an_unused_import():
    tree = ast.parse("import os\nfrom a import b, c as d, e\nprint(d)\n__all__ = ['e']\n")
    assert unused_imports(tree) == [(1, "os"), (2, "b")]


def colflux_imports(tree: ast.Module):
    """(line, module, name) for each name imported from a colflux module;
    module is None for ``from . import``."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 1:
            module = node.module
        elif (node.module or "").startswith("colflux."):
            module = node.module.removeprefix("colflux.")
        else:
            continue
        for alias in node.names:
            yield node.lineno, module, alias.name


def foreign_private_imports(tree: ast.Module) -> list:
    """(line, module, name) for each private name imported from a colflux
    module other than numerics, the one home of shared private helpers."""
    found = []
    for line, module, name in colflux_imports(tree):
        private = name.startswith("_") and not name.startswith("__")
        if private and module != "numerics":
            found.append((line, module, name))
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_private_names_cross_modules_only_from_numerics(path):
    # the Crank-Nicolson loop and the hat assembly stay inside transport
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert foreign_private_imports(tree) == []


def test_the_checker_sees_a_foreign_private_import():
    tree = ast.parse(
        "from . import __version__\n"
        "from .numerics import _frozen\n"
        "from .transport import FluxSignal, _cn_sweep\n"
        "from colflux.assimilate import _KINDS\n"
        "from os import _exit\n"
    )
    assert foreign_private_imports(tree) == [
        (3, "transport", "_cn_sweep"),
        (4, "assimilate", "_KINDS"),
    ]


def unlisted_public_imports(tree: ast.Module) -> list:
    """(line, module, name) for each public name imported from a colflux
    module whose ``__all__`` does not list it."""
    return [
        (line, module, name)
        for line, module, name in colflux_imports(tree)
        if module
        and not name.startswith("_")
        and name not in importlib.import_module(f"colflux.{module}").__all__
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_names_shared_across_modules_are_listed_in_all(path):
    # a module's ``__all__`` is the one list of its public names: the
    # package namespace and the benchmark's per-layer tracer read it
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert unlisted_public_imports(tree) == []


def test_package_exports_exactly_the_modules_public_names():
    expected = ["__version__"]
    for name in MODULES:
        expected += getattr(colflux, name).__all__
    assert colflux.__all__ == expected
    assert len(set(expected)) == len(expected)
    for name in expected:
        assert hasattr(colflux, name), name


def test_importing_the_package_loads_no_numpy():
    # the namespace is lazy, so colflux.cli imports NumPy first and picks
    # how its OpenBLAS loads; an eager import here would take that away
    code = "import sys, colflux; print(sorted(m for m in sys.modules if m.startswith('numpy')))"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from colflux import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(colflux.__all__)
    assert namespace["map_estimate"] is colflux.assimilate.map_estimate
    assert set(colflux.__all__) <= set(dir(colflux))


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="^module 'colflux' has no attribute 'nowhere'$"):
        getattr(colflux, "nowhere")


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


def nodal_inputs():
    """Each nodal input of the package, as (name, call(values))."""
    zgrid = ColumnGrid(h=1.0, n=33)
    tgrid = TimeGrid(t_end=1.0, n=17)
    profile = CoefficientProfile(grid=zgrid, k=np.ones(zgrid.n), w=np.zeros(zgrid.n))
    flux = FluxSignal(grid=tgrid, values=np.zeros(tgrid.n))
    prior = PriorSpec(mean=flux, kind="diagonal")
    eig = eigensystem(profile, 4)
    weight = Weight(grid=zgrid, values=np.ones(zgrid.n))
    return {
        "prior_apply_inverse": ("g", tgrid.n, lambda v: prior_apply_inverse(prior, v)),
        "expand_weight": ("weight", zgrid.n, lambda v: expand_weight(v, eig)),
        "apply_observation": ("column", zgrid.n, lambda v: apply_observation(weight, v)),
        "solve_forward.q0": ("q0", zgrid.n, lambda v: solve_forward(profile, flux, v)),
        "mass_balance_residual.field": (
            "field", (zgrid.n, tgrid.n), lambda v: mass_balance_residual(v, profile, flux)
        ),
        "energy_fit.field": (
            "field", (zgrid.n, tgrid.n), lambda v: energy_fit(v, profile, flux, np.zeros(zgrid.n))
        ),
        "blind_direction": ("seed", tgrid.n, lambda v: blind_direction(eig, 1.0, 2, tgrid, v)),
    }


@pytest.mark.parametrize("site", sorted(nodal_inputs()))
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_every_nodal_input_is_checked_by_name(site, bad):
    name, shape, call = nodal_inputs()[site]
    values = np.full(shape, 0.5)
    values.flat[1] = bad
    with pytest.raises(ValueError, match=f"^{name} values must be finite$"):
        call(values)
    with pytest.raises(ValueError, match=f"^{name} needs nodal values of shape"):
        call(np.zeros(3))

"""Column-observation flux estimation toolkit.

Forward transport of a tracer in a vertical column, the adjoint
eigensystem of its observation dynamics, Bayesian/variational surface-flux
estimation from weighted column averages, and the information-geometry
diagnostics (gain directions, monotonicity, blind directions) that say
what such observations can and cannot see.

The namespace is lazy (PEP 562): a submodule, or a name in its
``__all__``, is imported on first use. So ``import colflux`` loads no
NumPy, and ``colflux.cli`` can choose how NumPy's OpenBLAS loads.
"""

from importlib import import_module

__version__ = "0.1.0"

_MODULES = (
    "assimilate", "errors", "model", "numerics", "observe", "posterior", "spectral", "transport"
)


def __getattr__(name: str):
    if name in _MODULES:
        return import_module(f"{__name__}.{name}")
    modules = [__getattr__(m) for m in _MODULES]
    if name == "__all__":  # each module's ``__all__`` is the one list of its public names
        return ["__version__", *(n for m in modules for n in m.__all__)]
    for module in modules:
        if name in module.__all__:
            return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__getattr__("__all__")})

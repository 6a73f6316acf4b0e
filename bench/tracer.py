"""Span tracing of colflux's public functions, installed from outside the package.

Every function in each layer module's ``__all__``, plus ``cli.main``, is
replaced by a wrapper that records one span per call: function, start,
end, the enclosing span and whether the call raised. The wrapper is bound
in every ``colflux`` namespace that holds the original, so calls through
``from .numerics import solve_tridiagonal`` are traced too. Spans stay in
memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import sys
import time
import types

LAYERS = (
    "numerics",
    "model",
    "transport",
    "spectral",
    "observe",
    "posterior",
    "assimilate",
    "cli",
)


class Tracer:
    def __init__(self):
        self.names = []
        # [function index, start, end, parent span index or -1, raised 0/1]
        self.spans = []
        self.columns = 0
        self._stack = []

    def _wrap(self, name: str, fn):
        index = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        count_columns = name == "numerics.solve_tridiagonal"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count_columns:
                shape = getattr(args[3] if len(args) > 3 else kwargs["rhs"], "shape", ())
                self.columns += shape[1] if len(shape) > 1 else 1
            span = [index, clock(), 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[4] = 1
                raise
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap the public functions of every layer; import colflux first."""
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"colflux.{layer}"]
            names = list(getattr(module, "__all__", ()))
            if layer == "cli":
                names.append("main")
            for attr in names:
                fn = getattr(module, attr)
                if isinstance(fn, types.FunctionType):
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "colflux" and not mod_name.startswith("colflux."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def dump(self) -> dict:
        return {"names": self.names, "spans": self.spans, "columns": self.columns}

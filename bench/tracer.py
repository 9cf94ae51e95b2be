"""Layer spans for momentbc, recorded from outside the package.

``install()`` wraps the public functions of the layer modules in every
``momentbc`` module namespace that binds them (``channel``, ``cli`` and
``boundary`` import names with ``from .system import ...``), plus scipy's
``spsolve`` as ``momentbc.channel`` calls it.  Nothing under ``src/`` is
edited.  Spans stay in memory as ``[name, start, end, parent, notes]``
lists until the sample ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("basis", "system", "boundary", "stability", "channel")

# Called once per matrix entry or polynomial: a span each would cost more
# than the work inside it, so their time stays in the caller's self time.
PER_ENTRY = {"basis.inner_full", "basis.inner_half",
             "basis.laguerre_coefficients", "basis.laguerre_radial"}


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []
        self._bc_kind = {}   # id(BoundaryOperator.B) -> 'mbc' / 'obc'

    def wrap(self, name, fn, note=None):
        """Return fn recording one span per call; note(tracer, args,
        kwargs, result) may attach a dict of numbers to the span."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, None, None, self._open[-1] if self._open else None, {}]
            self._open.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            if note is not None:
                span[4] = note(self, args, kwargs, result)
            return result
        return traced


def _spsolve_note(tracer, args, kwargs, result):
    K = args[0]
    return {"K_rows": int(K.shape[0]), "K_nnz": int(K.nnz)}


def _boundary_note(tracer, args, kwargs, result):
    tracer._bc_kind[id(result.B)] = result.kind
    return {}


def _stability_note(tracer, args, kwargs, result):
    # the CLI passes BoundaryOperator.B itself, so its identity names the kind
    B = args[1] if len(args) > 1 else kwargs["B"]
    return {"bc": tracer._bc_kind.get(id(B)), "min_schur_eig": result.min_schur_eig}


NOTES = {
    "boundary.make_boundary_operator": _boundary_note,
    "stability.check_stability": _stability_note,
}


class _ModuleProxy:
    """A module seen through a few replaced attributes."""

    def __init__(self, module, **replaced):
        self._module = module
        self.__dict__.update(replaced)

    def __getattr__(self, name):
        return getattr(self._module, name)


def install() -> Tracer:
    """Wrap the layer functions of the already imported momentbc package."""
    tracer = Tracer()
    package = [m for n, m in sys.modules.items()
               if n == "momentbc" or n.startswith("momentbc.")]
    for layer in LAYERS:
        module = sys.modules[f"momentbc.{layer}"]
        for attr, fn in list(vars(module).items()):
            name = f"{layer}.{attr}"
            if (attr.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__ or name in PER_ENTRY):
                continue
            traced = tracer.wrap(name, fn, NOTES.get(name))
            for mod in package:
                for bound, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, bound, traced)
    channel = sys.modules["momentbc.channel"]
    channel.spla = _ModuleProxy(channel.spla, spsolve=tracer.wrap(
        "channel.spsolve", channel.spla.spsolve, _spsolve_note))
    return tracer

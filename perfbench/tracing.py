"""Span tracing of pitcal's layers from outside the library.

:class:`Tracer` wraps every public function and public method of the layer
modules, on every ``pitcal`` module namespace that holds the same function
object (so ``pitcal.grid.invert_cdf`` and ``pitcal.bench.invert_cdf`` are both
traced), and restores the originals when the ``with`` block ends. Each call
records a span (name, start, end, parent) in memory; :meth:`Tracer.summary`
turns the spans of one traced region into per-name call counts, inclusive
time, self time (duration minus the time covered by child spans) and the
number of calls that raised.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

import numpy as np

LAYERS = ("rng", "grid", "models", "calibrate", "monotone_net", "diagnose",
          "baselines", "synthgen", "bench", "dataio", "cli")


def _layer_targets(layer: str, module):
    """(span name, owner, attribute, function) for each public callable of a layer."""
    prefix = module.__name__
    for name, obj in sorted(vars(module).items()):
        if name.startswith("_"):
            continue
        owner_mod = getattr(obj, "__module__", "") or ""
        if not (owner_mod == prefix or owner_mod.startswith(prefix + ".")):
            continue
        if inspect.isfunction(obj):
            yield f"{layer}.{name}", None, name, obj
        elif inspect.isclass(obj):
            for attr, member in sorted(vars(obj).items()):
                if inspect.isfunction(member) and (attr == "__call__" or not attr.startswith("_")):
                    yield f"{layer}.{obj.__name__}.{attr}", obj, attr, member


class Tracer:
    """Installs span-recording wrappers on the layer modules for one ``with`` block."""

    def __init__(self):
        self.names: list[str] = []
        self._restore: list = []
        self._span_name: list[int] = []
        self._parent: list[int] = []
        self._start: list[float] = []
        self._end: list[float] = []
        self._stack: list[int] = []
        self.failed: np.ndarray = np.zeros(0, dtype=np.int64)

    def _wrap(self, fn, name_id: int):
        span_name, parent, start, end, stack = (
            self._span_name, self._parent, self._start, self._end, self._stack)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(span_name)
            span_name.append(name_id)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                tracer.failed[name_id] += 1
                raise
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    def __enter__(self) -> "Tracer":
        layers = {}
        for layer in LAYERS:
            try:
                layers[layer] = importlib.import_module(f"pitcal.{layer}")
            except ModuleNotFoundError:
                continue  # a removed layer reports its spans as absent
        pitcal_modules = [m for n, m in list(sys.modules.items())
                          if m is not None and (n == "pitcal" or n.startswith("pitcal."))]
        for layer, module in layers.items():
            for span, owner, attr, fn in _layer_targets(layer, module):
                name_id = len(self.names)
                self.names.append(span)
                wrapper = self._wrap(fn, name_id)
                if owner is not None:
                    self._restore.append((owner, attr, fn))
                    setattr(owner, attr, wrapper)
                    continue
                for mod in pitcal_modules:
                    for mod_attr, value in list(vars(mod).items()):
                        if value is fn:
                            self._restore.append((mod, mod_attr, fn))
                            setattr(mod, mod_attr, wrapper)
        self.failed = np.zeros(len(self.names), dtype=np.int64)
        return self

    def __exit__(self, *exc):
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()
        return False

    def summary(self) -> dict:
        """Per span name: calls, incl_s, self_s and failed, over every span recorded."""
        n_names = len(self.names)
        ids = np.asarray(self._span_name, dtype=np.int64)
        parents = np.asarray(self._parent, dtype=np.int64)
        dur = np.asarray(self._end) - np.asarray(self._start)
        child = np.zeros(ids.size)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        calls = np.bincount(ids, minlength=n_names)
        incl = np.bincount(ids, weights=dur, minlength=n_names)
        self_s = np.bincount(ids, weights=dur - child, minlength=n_names)
        return {
            name: {"calls": int(calls[k]), "incl_s": float(incl[k]),
                   "self_s": float(self_s[k]), "failed": int(self.failed[k])}
            for k, name in enumerate(self.names)
        }

"""Layer spans for the traced run, recorded from outside the package.

`Tracer.install()` wraps the functions and methods of every rhpwn module
(each module is one layer) and rebinds every name that refers to them: the
defining module, each module that imported the name (`from .rewrite import
vacuum_expectation`), module-level dispatch tables and the package namespace.
A call counts at every wrapped function.  It opens a span only when it
crosses into another layer; a call within the layer it is already in is
counted but adds no span, so the spans mark the layer boundaries.

Spans are kept in flat arrays (name, parent, call id, start, end) and
written out by the caller once the run is over.  A layer's self time is its
span time minus the time covered by its direct child spans.
"""

from __future__ import annotations

import importlib
import types
from array import array
from time import perf_counter

LAYERS = (
    "cli", "jsonio", "algebra", "rewrite", "stepfn", "mupoly",
    "scalars", "series", "fock", "nogo", "processes",
)

# Constructors and operators are wrapped along with the public methods: the
# exact layers do most of their work through them.
_DUNDERS = frozenset((
    "__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__pow__", "__eq__", "__hash__",
))

# Third-party callables bound by name in a layer module; calls into them are
# counted as spans of that layer.
_FOREIGN = {"processes": ("quad",)}


class Tracer:
    def __init__(self):
        self.names = []  # qualified name per function id
        self.layer_of = []  # layer index per function id
        self.counts = []  # calls per function id
        self.segments = 0  # total length of common_refinement results
        self.call_id = -1
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_call = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self._layer_stack = [-1]
        self._undo = []

    # -- wrapping --------------------------------------------------------

    def _wrap(self, fn, qualname, layer):
        fid = len(self.names)
        self.names.append(qualname)
        self.layer_of.append(layer)
        self.counts.append(0)
        counts, stack, layers = self.counts, self._stack, self._layer_stack
        s_name, s_parent, s_call = self.span_name, self.span_parent, self.span_call
        s_start, s_end = self.span_start, self.span_end
        tracer = self
        count_segments = qualname == "stepfn.common_refinement"

        def wrapper(*args, **kwargs):
            counts[fid] += 1
            if layers[-1] == layer:
                result = fn(*args, **kwargs)
            else:
                sid = len(s_start)
                s_name.append(fid)
                s_parent.append(stack[-1])
                s_call.append(tracer.call_id)
                s_end.append(0.0)
                stack.append(sid)
                layers.append(layer)
                s_start.append(perf_counter())
                try:
                    result = fn(*args, **kwargs)
                finally:
                    s_end[sid] = perf_counter()
                    stack.pop()
                    layers.pop()
            if count_segments:
                tracer.segments += len(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _set(self, owner, name, value):
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def install(self):
        """Wrap every layer and rebind each name that refers to a wrapped function."""
        modules = {name: importlib.import_module(f"rhpwn.{name}") for name in LAYERS}
        wrapped = {}  # id(original) -> wrapper

        def wrap_once(fn, qualname, layer):
            if id(fn) not in wrapped:
                wrapped[id(fn)] = (fn, self._wrap(fn, qualname, layer))
            return wrapped[id(fn)][1]

        for layer, (name, mod) in enumerate(modules.items()):
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__:
                    wrap_once(obj, f"{name}.{attr}", layer)
                elif isinstance(obj, type) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    self._wrap_class(obj, name, layer, wrap_once)
            for attr in _FOREIGN.get(name, ()):
                wrap_once(getattr(mod, attr), f"{name}.{attr}", layer)

        targets = list(modules.values()) + [importlib.import_module("rhpwn")]
        for mod in targets:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and wrapped[id(obj)][0] is obj:
                    self._set(mod, attr, wrapped[id(obj)][1])
                elif isinstance(obj, dict) and not attr.startswith("__"):
                    for key, value in list(obj.items()):
                        if id(value) in wrapped and wrapped[id(value)][0] is value:
                            self._undo.append((obj, key, value))
                            obj[key] = wrapped[id(value)][1]

    def _wrap_class(self, cls, layer_name, layer, wrap_once):
        for attr, obj in list(cls.__dict__.items()):
            public = not attr.startswith("_") or attr in _DUNDERS
            if not public:
                continue
            qualname = f"{layer_name}.{cls.__name__}.{attr}"
            if isinstance(obj, types.FunctionType):
                self._set(cls, attr, wrap_once(obj, qualname, layer))
            elif isinstance(obj, (classmethod, staticmethod)):
                self._set(cls, attr, type(obj)(wrap_once(obj.__func__, qualname, layer)))

    def uninstall(self):
        for owner, name, value in reversed(self._undo):
            if isinstance(owner, dict):
                owner[name] = value
            else:
                setattr(owner, name, value)
        self._undo.clear()

    # -- results -----------------------------------------------------------

    def count(self, qualname: str) -> int:
        return sum(c for n, c in zip(self.names, self.counts) if n == qualname)

    def spans(self):
        """The recorded spans as numpy arrays."""
        import numpy as np

        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.span_parent, dtype=np.int32).copy(),
            "call": np.frombuffer(self.span_call, dtype=np.int32).copy(),
            "start": np.frombuffer(self.span_start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.span_end, dtype=np.float64).copy(),
        }

    def layer_totals(self):
        """Per layer: (spans opened, self seconds)."""
        import numpy as np

        spans = self.spans()
        duration = spans["end"] - spans["start"]
        covered = np.zeros_like(duration)
        has_parent = spans["parent"] >= 0
        np.add.at(covered, spans["parent"][has_parent], duration[has_parent])
        span_layer = np.asarray(self.layer_of, dtype=np.int64)[spans["name"]]
        opened = np.bincount(span_layer, minlength=len(LAYERS))
        self_s = np.bincount(span_layer, weights=duration - covered, minlength=len(LAYERS))
        return {name: (int(opened[i]), float(self_s[i])) for i, name in enumerate(LAYERS)}

    def save(self, path):
        import numpy as np

        np.savez(path, names=np.asarray(self.names), layer_of=np.asarray(self.layer_of),
                 layers=np.asarray(LAYERS), **self.spans())

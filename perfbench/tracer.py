"""Outside-in tracer for one realbott process.

The tracer wraps, from outside the program, every public function of the
layers `gf2poly`, `cohomology`, `oracle`, `arithmetic` and `cli`, plus the
public methods and arithmetic operators of their public classes.  A
function is rebound at every module-level name that holds it: `oracle`,
`cli` and `arithmetic` use `from ... import`, so patching only the defining
module would silently miss their calls.  The import of each lower layer is
timed as a span of that layer as well.

Each wrapped call is a span.  A layer's self time is the summed duration of
its spans minus the time spent in the spans they enclose; everything outside
the four lower layers (click, argument handling, output) is `cli`.  Object
construction and the dataclass protocol (`__init__`, `__eq__`, `__hash__`)
are not wrapped, so their time counts toward the calling span.
"""

from __future__ import annotations

import importlib.abc
import importlib.machinery
import inspect
import sys
import time
from collections import Counter

LOWER = ("gf2poly", "cohomology", "oracle", "arithmetic")
LAYERS = LOWER + ("cli",)
OPERATORS = frozenset({"__add__", "__sub__", "__mul__", "__pow__"})


def _mul_term_pairs(counts, args, result):
    counts["gf2poly.mul_term_pairs"] += len(args[0].terms) * len(args[1].terms)


def _normal_form_terms(counts, args, result):
    counts["cohomology.terms_in"] += len(args[0].terms)
    counts["cohomology.terms_out"] += len(result.coeffs)


def _hom_verdict(counts, args, result):
    if not result:
        counts["oracle.hom_rejects"] += 1


def _iso_verdict(counts, args, result):
    counts["oracle.witnesses" if result else "oracle.iso_rejects"] += 1


def _records(counts, args, result):
    counts["cli.records"] += len(args[0])


# Extra counters, keyed by the wrapped function they observe.
OBSERVERS = {
    "gf2poly.PolyGF2.__mul__": _mul_term_pairs,
    "cohomology.normal_form": _normal_form_terms,
    "oracle.induces_homomorphism": _hom_verdict,
    "oracle.is_graded_isomorphism": _iso_verdict,
    "cli.emit_records": _records,
}


class Tracer:
    """Self time per layer, calls per wrapped function, and extra counters."""

    def __init__(self):
        self.start = time.perf_counter()
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        # one entry per open span: time spent in the spans it encloses
        self._nested = [0.0]

    def span(self, layer: str, name: str, fn):
        """Wrap fn so each call is a span of layer, counted under name."""
        nested, self_s, calls, counts = self._nested, self.self_s, self.calls, self.counts
        observe = OBSERVERS.get(name)
        clock = time.perf_counter
        calls[name] += 0  # present, even if never called

        def traced(*args, **kwargs):
            nested.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[layer] += elapsed - nested.pop()
                nested[-1] += elapsed
                calls[name] += 1
            if observe is not None:
                observe(counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def time_imports(self) -> None:
        """Time the import of each lower layer as a span of that layer."""
        sys.meta_path.insert(0, _ImportTimer(self))

    def wrap_all(self) -> None:
        """Wrap every public function of the loaded layers at every binding."""
        wrappers = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            module = sys.modules.get(f"realbott.{layer}")
            if module is None:
                continue
            for name, value in list(vars(module).items()):
                if name.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(value):
                    wrappers[id(value)] = (value, self.span(layer, f"{layer}.{name}", value))
                elif inspect.isclass(value):
                    self._wrap_methods(layer, value, wrappers)
        for modname, module in list(sys.modules.items()):
            if modname != "realbott" and not modname.startswith("realbott."):
                continue
            for name, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, name, entry[1])

    def _wrap_methods(self, layer: str, cls: type, wrappers: dict) -> None:
        for name, value in list(vars(cls).items()):
            if name.startswith("_") and name not in OPERATORS:
                continue
            fn = value.__func__ if isinstance(value, (classmethod, staticmethod)) else value
            if not inspect.isfunction(fn):
                continue  # properties and data
            if id(fn) not in wrappers:
                qualname = f"{layer}.{cls.__name__}.{name}"
                wrappers[id(fn)] = (fn, self.span(layer, qualname, fn))
            wrapper = wrappers[id(fn)][1]
            setattr(cls, name, type(value)(wrapper) if fn is not value else wrapper)

    def report(self) -> dict:
        """Self time per layer, calls and counters since the tracer started."""
        total = time.perf_counter() - self.start
        self_s = dict(self.self_s)
        self_s["cli"] += total - self._nested[0]
        return {"self_s": self_s, "calls": dict(self.calls), "counts": dict(self.counts)}


class _ImportTimer(importlib.abc.MetaPathFinder):
    """Meta path finder that turns the import of a lower layer into a span."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def find_spec(self, name, path, target=None):
        package, _, layer = name.rpartition(".")
        if package != "realbott" or layer not in LOWER:
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path)
        if spec is not None and spec.loader is not None:
            spec.loader.exec_module = self.tracer.span(
                layer, f"{layer}.<import>", spec.loader.exec_module
            )
        return spec

"""Span recording around the ``hmf`` package, installed from outside.

``install`` replaces every public module-level function of every ``hmf``
module, and a declared list of methods on their classes, with wrappers that
record spans.  A function imported by name into another module (for example
``cli.exactness_certificate`` or ``complexes.graded_solve``) is rebound there
too, so no call escapes its span; ``install`` fails if an unwrapped binding
is left behind.  ``uninstall`` restores the originals.

Spans are aggregated as they close, per name: calls, inclusive seconds (the
outermost activation of a recursive name only) and self seconds (the span
minus the time its direct child spans cover).  The recorder assumes one
thread, which holds because the benchmark runs the package at its default
of one verifier thread.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
from time import perf_counter

import numpy as np

# Methods wrapped on their class, with a span.
SPAN_METHODS = (
    ("complexes", "MatrixMap", "compose"),
    ("complexes", "Complex", "validate"),
)
# Methods wrapped on their class, counted only: they are called too often
# for a span to be cheap.
COUNT_METHODS = (
    ("ring", "Poly", "__mul__"),
)


def metric_module(module):
    """Metric names start with a letter, so ``_kernels`` reads ``kernels``."""
    return module.lstrip("_")


def _count_rref(rec, args, kwargs):
    A = args[0] if args else kwargs["A"]
    m, n = np.shape(A)
    rec.add("kernels.rref.ops", m * n * min(m, n))
    rec.add("kernels.rref.cells", m * n)


def _count_homology_cells(originals):
    default_bound = originals["oracle.default_degree_bound"]

    def count(rec, args, kwargs):
        names = ("C", "hom_range", "D")
        bound = dict(zip(names, args))
        bound.update({k: v for k, v in kwargs.items() if k in names})
        C = bound["C"]
        hom_range = bound.get("hom_range")
        D = bound.get("D")
        D = default_bound(C) if D is None else D
        lo, hi = (C.lo, C.hi) if hom_range is None else hom_range
        rec.add("oracle.graded_homology.cells", max(0, hi - lo + 1) * (D + 1))

    return count


class Recorder:
    """Aggregated span statistics and computed counters."""

    def __init__(self):
        self.stats = {}  # name -> [calls, inclusive_s, self_s]
        self.counts = {}
        self._stack = []  # per open span: time covered by its children
        self._active = {}

    def add(self, name, n):
        self.counts[name] = self.counts.get(name, 0) + n

    def calls(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def inclusive(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def self_time(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[2]

    def span(self, name, fn, counter=None):
        """Wrap fn so each call records a span called name."""
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        active = self._active

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counter is not None:
                counter(self, args, kwargs)
            child = [0.0]
            stack.append(child)
            depth = active.get(name, 0)
            active[name] = depth + 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                active[name] = depth
                stats[0] += 1
                stats[2] += dt - child[0]
                if depth == 0:
                    stats[1] += dt
                if stack:
                    stack[-1][0] += dt

        return wrapper

    def counted(self, name, fn):
        """Wrap fn so each call only bumps a counter."""
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stats[0] += 1
            return fn(*args, **kwargs)

        return wrapper


def hmf_modules():
    import hmf

    mods = {}
    for info in pkgutil.iter_modules(hmf.__path__):
        mods[info.name] = importlib.import_module(f"hmf.{info.name}")
    return mods


def _public_functions(mod):
    for name, obj in vars(mod).items():
        if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                and not name.startswith("_")):
            yield name, obj


def _references(value, wrapped):
    """Original functions (ids in wrapped) reachable from a module-level value."""
    items = [value]
    if isinstance(value, dict):
        items = list(value.values())
    elif isinstance(value, (list, tuple, set, frozenset)):
        items = list(value)
    return [v for v in items if callable(v) and id(v) in wrapped]


class Installation:
    """The wrappers put in place by ``install``; ``uninstall`` undoes them."""

    def __init__(self):
        self.patches = []  # (setter, owner, attribute or key, original)

    def set(self, owner, attr, value):
        self.patches.append((setattr, owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def set_item(self, table, key, value):
        self.patches.append((dict.__setitem__, table, key, table[key]))
        table[key] = value

    def uninstall(self):
        for put, owner, key, original in reversed(self.patches):
            put(owner, key, original)
        self.patches.clear()


def install(rec):
    """Wrap the package for rec; returns the Installation to undo it."""
    mods = hmf_modules()
    inst = Installation()
    originals = {}  # "module.function" -> original
    wrappers = {}  # id(original) -> wrapper
    for short, mod in mods.items():
        for name, fn in _public_functions(mod):
            originals[f"{short}.{name}"] = fn
    counters = {
        "_kernels.rref": _count_rref,
        "oracle.graded_homology": _count_homology_cells(originals),
    }
    for key, fn in originals.items():
        short, name = key.split(".", 1)
        wrappers[id(fn)] = rec.span(f"{metric_module(short)}.{name}", fn,
                                    counter=counters.get(key))
    # Rebind every module-level binding of a wrapped function, wherever it
    # was imported by name, and the values of module-level dicts.
    for mod in mods.values():
        for attr, value in list(vars(mod).items()):
            if callable(value) and id(value) in wrappers:
                inst.set(mod, attr, wrappers[id(value)])
            elif type(value) is dict:
                for key, item in list(value.items()):
                    if callable(item) and id(item) in wrappers:
                        inst.set_item(value, key, wrappers[id(item)])
    for short, cls_name, meth in SPAN_METHODS + COUNT_METHODS:
        cls = getattr(mods[short], cls_name)
        fn = cls.__dict__[meth]
        name = f"{metric_module(short)}.{cls_name}.{meth}"
        if (short, cls_name, meth) in COUNT_METHODS:
            inst.set(cls, meth, rec.counted(name, fn))
        else:
            inst.set(cls, meth, rec.span(name, fn))
    leftovers = _unwrapped_bindings(mods, wrappers)
    if leftovers:
        inst.uninstall()
        raise RuntimeError(f"unwrapped bindings left: {leftovers}")
    return inst


def _unwrapped_bindings(mods, wrapped):
    """Places that still hold an original (an id in wrapped): module
    attributes, one level of module-level containers, and function defaults."""
    found = []
    for short, mod in mods.items():
        for attr, value in vars(mod).items():
            for ref in _references(value, wrapped):
                found.append(f"{short}.{attr} -> {ref.__name__}")
            if inspect.isfunction(value):
                fn = inspect.unwrap(value)
                defaults = (fn.__defaults__ or ()) + tuple(
                    (fn.__kwdefaults__ or {}).values())
                for ref in defaults:
                    if callable(ref) and id(ref) in wrapped:
                        found.append(f"{short}.{attr} default -> {ref.__name__}")
    return found

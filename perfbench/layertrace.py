"""In-memory span tracer that wraps gor3's public calls from outside.

The tracer patches functions and methods of the imported ``gor3`` modules;
nothing inside the package is changed on disk.  Every wrapped call opens a
span on a stack.  When it closes, its duration goes to the call's inclusive
time (outermost calls only) and its duration minus the time covered by
wrapped child spans goes to its self time.  Work the tracer does for itself
(counters, the bit scan of kernel output) is measured and excluded from the
self time of every span.

Targets are looked up by name when the tracer is installed.  A target that
does not exist at the measured commit is recorded in ``missing`` and the
metrics built on it are reported as absent, so that later changes to the
program never make the tracer crash.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

# Modules whose public functions and methods form the traced layers.  The
# layer name is the module name without the package prefix.
LAYER_MODULES = ("parsing", "poly", "linalg", "ideals", "pfaffians",
                 "apolarity", "criteria", "betti", "cases", "cli")

# Arithmetic dunders are the public interface of polynomials; other dunders
# (construction, comparison, hashing, printing) are not layer boundaries.
WRAPPED_DUNDERS = ("__mul__", "__rmul__", "__add__", "__sub__", "__neg__",
                   "__pow__")

# Accessors so small and so frequently called that a span would cost more
# than the work it measures.  Their time is charged to their caller.
SKIPPED = frozenset({
    "poly.MultiPoly.is_zero", "poly.MultiPoly.degree",
    "poly.MultiPoly.is_homogeneous", "poly.MultiPoly.homogeneous_degree",
    "poly.MultiPoly.coefficient", "poly.MultiPoly.leading_monomial",
    "poly.MultiPoly.sorted_terms",
    "apolarity.InverseForm.is_zero", "apolarity.InverseForm.degree",
})

PIECE_TARGET = "ideals.GradedIdeal.graded_piece"
PIECE_COUNTERS = ("ideals.pieces_built", "ideals.piece_cache_hits",
                  "ideals.pieces_above_full")

# The elimination kernel, as ``gor3.linalg`` binds it.
KERNEL_TARGETS = ("linalg.rref_int", "linalg.rref_mod")


class Tracer:
    """Spans and counters for one traced pass.  Install, enable, read."""

    def __init__(self):
        self.stack = []          # open spans: [child seconds]
        self.calls = {}          # key -> call count
        self.self_s = {}         # key -> seconds not covered by child spans
        self.outer_s = {}        # key -> inclusive seconds, outermost calls
        self.depth = {}          # key -> number of open spans of that key
        self.layer = {}          # key -> layer name
        self.counters = {}       # name -> int
        self.bookkeeping_s = 0.0
        self.missing = []        # targets that do not exist at this commit
        self.enabled = False
        self._patches = []       # (owner, attribute, original value)
        self._hooks = {          # key -> (before(args), after(args, result))
            "kernel.rref_int": (None, self._kernel_counts),
            "kernel.rref_mod": (None, self._kernel_counts),
            PIECE_TARGET: (self._piece_lookup, None),
        }

    # ------------------------------------------------------------------
    # installation

    def install(self, package="gor3"):
        """Wrap the kernel and every public call of the layer modules."""
        modules = {}
        for name in LAYER_MODULES:
            try:
                modules[name] = importlib.import_module(f"{package}.{name}")
            except ImportError:
                self.missing.append(f"{name} (module)")
        for target in KERNEL_TARGETS:
            mod_name, attr = target.split(".")
            fn = getattr(modules.get(mod_name), attr, None)
            if fn is None:
                self.missing.append(target)
                continue
            self.counters.setdefault("kernel.entries", 0)
            self.counters.setdefault("kernel.out_bits_max", 0)
            self._rebind_everywhere(package, fn,
                                    self._wrap(f"kernel.{attr}", "kernel", fn))
        for name, mod in modules.items():
            self._wrap_module(package, name, mod)
        if PIECE_TARGET in self.layer:
            for name in PIECE_COUNTERS:
                self.counters[name] = 0
        else:
            self.missing.append(PIECE_TARGET)
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap_module(self, package, layer, mod):
        for attr, value in list(vars(mod).items()):
            if attr.startswith("_") or getattr(value, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(value):
                key = f"{layer}.{attr}"
                if key not in SKIPPED:
                    self._rebind_everywhere(package, value,
                                            self._wrap(key, layer, value))
            elif inspect.isclass(value):
                self._wrap_class(layer, value)

    def _wrap_class(self, layer, cls):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in WRAPPED_DUNDERS:
                continue
            key = f"{layer}.{cls.__name__}.{attr}"
            if key in SKIPPED:
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(key, layer, raw.__func__))
            elif inspect.isfunction(raw):
                wrapped = self._wrap(key, layer, raw)
            else:
                continue    # properties, class constants
            self._patch(cls, attr, wrapped)

    def _rebind_everywhere(self, package, fn, wrapped):
        """Replace every module-level binding of fn inside the package, so
        that ``from .x import f`` copies see the wrapper too."""
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == package or name.startswith(package + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patch(mod, attr, wrapped)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # ------------------------------------------------------------------
    # spans

    def _wrap(self, key, layer, fn):
        before, after = self._hooks.get(key, (None, None))
        self.layer[key] = layer
        self.calls[key] = 0
        self.self_s[key] = 0.0
        self.outer_s[key] = 0.0
        self.depth[key] = 0
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tb = clock()
            if before is not None:
                before(args)
            stack = tracer.stack
            frame = [0.0]
            stack.append(frame)
            tracer.depth[key] += 1
            t0 = clock()
            done = False
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                t1 = clock()
                stack.pop()
                depth = tracer.depth[key] - 1
                tracer.depth[key] = depth
                duration = t1 - t0
                tracer.calls[key] += 1
                tracer.self_s[key] += duration - frame[0]
                if depth == 0:
                    tracer.outer_s[key] += duration
                if done and after is not None:
                    after(args, result)
                t2 = clock()
                tracer.bookkeeping_s += (t0 - tb) + (t2 - t1)
                if stack:
                    stack[-1][0] += t2 - tb

        return wrapper

    def _kernel_counts(self, args, result):
        rows = args[0]
        c = self.counters
        c["kernel.entries"] += len(rows) * (len(rows[0]) if rows else 0)
        bits = c["kernel.out_bits_max"]
        for row in result[1]:
            for v in row:
                b = abs(v).bit_length()
                if b > bits:
                    bits = b
        c["kernel.out_bits_max"] = bits

    def _piece_lookup(self, args):
        """Count graded pieces built, served from the per-ideal cache, and
        built above a piece of the same ideal that was already full."""
        ideal, t = args[0], args[1]
        pieces = getattr(ideal, "_pieces", None)
        c = self.counters
        if not isinstance(pieces, dict):
            # the per-ideal piece cache is gone: the counters mean nothing
            for name in PIECE_COUNTERS:
                c.pop(name, None)
            return
        if PIECE_COUNTERS[0] not in c:
            return
        if t in pieces:
            c["ideals.piece_cache_hits"] += 1
            return
        c["ideals.pieces_built"] += 1
        if any(u < t and getattr(p, "is_full", False)
               for u, p in pieces.items()):
            c["ideals.pieces_above_full"] += 1

    # ------------------------------------------------------------------
    # readout

    def layer_self_s(self, layer):
        keys = [k for k, v in self.layer.items() if v == layer]
        if not keys:
            return None
        return sum(self.self_s[k] for k in keys)


def lru_cache_totals(module):
    """(hits, misses) summed over the lru caches defined in a module."""
    hits = misses = 0
    found = False
    for value in vars(module).values():
        info = getattr(value, "cache_info", None)
        if callable(info) and getattr(value, "__module__", None) == module.__name__:
            ci = info()
            hits += ci.hits
            misses += ci.misses
            found = True
    return (hits, misses) if found else None


def clear_lru_caches(package="gor3"):
    """Empty every lru cache of the package, so each pass starts as a fresh
    process would."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == package or name.startswith(package + ".")):
            continue
        for value in vars(mod).values():
            clear = getattr(value, "cache_clear", None)
            if callable(clear) and getattr(value, "__module__", None) == name:
                clear()

"""Layer tracer for the benchmark's traced samples.

`Tracer.install()` wraps, from outside the program, the calls that cross
from one `extcheck` module into another:

* every function of one module bound by name in another module (the
  module-level `from .x import y` bindings), patched where it is looked up;
* every function imported inside a function body (`from .x import y` in a
  checker), patched in the defining module, because such imports resolve
  there at call time;
* the methods of `Context`, `ClosureFamily` and `FactorizationSystem`;
* `FiniteObject.__post_init__` and `Morphism.__post_init__`, which count
  constructions;
* the same-module functions in `INTRA`, which a per-layer counter needs.

`__hash__` and `__eq__` are never wrapped.  Each call is attributed to the
callee's module; its caller layer is the layer of the innermost wrapped
call around it ("bench" when there is none).  Self time is the call's
duration minus the durations of the wrapped calls inside it.  With
millions of calls, only aggregates are kept: per (caller layer, callee)
the count, total seconds and self seconds.

This module imports no `extcheck` code at import time, so the benchmark
driver can use `layer_metrics` without loading the program.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import time
import types

PACKAGE = "extcheck"
LAYERS = ("core", "contexts", "factorization", "subobjects", "closure",
          "semilattice", "theorems")
IMPORTERS = LAYERS + ("cli",)
CLASSES = (("contexts", "Context"), ("closure", "ClosureFamily"),
           ("factorization", "FactorizationSystem"))
CONSTRUCTED = (("core", "FiniteObject"), ("core", "Morphism"))
# Called only from inside their own module, but named by a metric below.
INTRA = (("subobjects", "iota_map"), ("factorization", "down_arrow_witness"),
         ("semilattice", "compose_homs"), ("core", "monotone_bijections"))
# Memoizing methods: a call that grows the memo dict is a miss.
MEMOS = {"contexts.Context.coproduct": "_coproducts",
         "contexts.Context.sub_lattice": "_lattices"}

# metric name -> (aggregate, callee key).  "calls" counts calls, "s" sums
# their inclusive seconds, "hit" is 1 - misses / calls of a memo method.
FUNCTION_METRICS = {
    "core.objects_built": ("calls", "core.FiniteObject.__post_init__"),
    "core.morphisms_built": ("calls", "core.Morphism.__post_init__"),
    "core.split_coproduct.calls": ("calls", "core.split_coproduct"),
    "core.pullback.calls": ("calls", "core.pullback"),
    "core.monotone_bijections.calls": ("calls", "core.monotone_bijections"),
    "contexts.coproduct.calls": ("calls", "contexts.Context.coproduct"),
    "contexts.coproduct.hit_ratio": ("hit", "contexts.Context.coproduct"),
    "contexts.sub_lattice.hit_ratio": ("hit", "contexts.Context.sub_lattice"),
    "contexts.objects.s": ("s", "contexts.Context.objects"),
    "contexts.validate_extensive.s": ("s", "contexts.Context.validate_extensive"),
    "factorization.validate_system.s": ("s", "factorization.validate_system"),
    "factorization.down_arrow.calls": ("calls", "factorization.down_arrow_witness"),
    "factorization.image_factorization.calls":
        ("calls", "factorization.image_factorization"),
    "subobjects.iota_map.calls": ("calls", "subobjects.iota_map"),
    "subobjects.sum_subobjects.calls": ("calls", "subobjects.sum_subobjects"),
    "subobjects.check_adjunction_admissible.s":
        ("s", "subobjects.check_adjunction_admissible"),
    "closure.closed_fast.calls": ("calls", "closure._closed_fast"),
    "closure.continuous_fast.calls": ("calls", "closure._continuous_fast"),
    "closure.component.calls": ("calls", "closure.ClosureFamily.component"),
    "closure.validate_closure.s": ("s", "closure.validate_closure"),
    "semilattice.enumerate_homs.calls": ("calls", "semilattice.enumerate_homs"),
    "semilattice.enumerate_homs.s": ("s", "semilattice.enumerate_homs"),
    "semilattice.compose_homs.calls": ("calls", "semilattice.compose_homs"),
    "semilattice.hom_matrix.calls": ("calls", "semilattice.hom_matrix"),
}


def _is_function(value) -> bool:
    # lru_cache objects are not FunctionType but keep the wrapped
    # function's __module__ and __name__.
    return isinstance(value, types.FunctionType) or hasattr(value, "cache_info")


def _layer_of(value) -> str | None:
    if not _is_function(value):
        return None
    module = getattr(value, "__module__", "") or ""
    prefix, _, layer = module.partition(".")
    return layer if prefix == PACKAGE and layer in LAYERS else None


def _local_imports(module) -> list[tuple[str, str]]:
    """(module, name) of every `from .module import name` inside a function."""
    found = []
    for node in ast.walk(ast.parse(inspect.getsource(module))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for sub in ast.walk(node):
                if isinstance(sub, ast.ImportFrom) and sub.level == 1:
                    found.extend((sub.module, a.name) for a in sub.names)
    return found


class Tracer:
    def __init__(self):
        # One frame per active wrapped call: [seconds in wrapped children,
        # layer].  The bottom frame stands for the benchmark's own code.
        self._stack: list[list] = [[0.0, "bench"]]
        # callee key -> caller layer -> [count, total seconds, self seconds]
        self.calls: dict[str, dict[str, list]] = {}
        self.layers: dict[str, str] = {}
        self.misses: dict[str, int] = {}

    def _wrap(self, fn, key: str, layer: str):
        stack = self._stack
        clock = time.perf_counter
        by_caller = self.calls.setdefault(key, {})
        self.layers[key] = layer

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, layer]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                parent[0] += dur
                acc = by_caller.get(parent[1])
                if acc is None:
                    acc = by_caller[parent[1]] = [0, 0.0, 0.0]
                acc[0] += 1
                acc[1] += dur
                acc[2] += dur - frame[0]

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", key)
        return traced

    def _count_misses(self, method, key: str, attr: str):
        misses = self.misses
        misses[key] = 0

        def counted(obj, *args, **kwargs):
            before = len(getattr(obj, attr))
            try:
                return method(obj, *args, **kwargs)
            finally:
                if len(getattr(obj, attr)) != before:
                    misses[key] += 1

        return counted

    def install(self) -> None:
        """Patch the program in this process.  Call before building any
        Context, so that contexts capture the wrapped functions."""
        modules = {name: importlib.import_module(f"{PACKAGE}.{name}")
                   for name in IMPORTERS}
        modules[PACKAGE] = importlib.import_module(PACKAGE)

        # id(function) -> (function, layer); `home` marks those patched in
        # their defining module as well as in the importers.
        targets: dict[int, tuple] = {}
        home: set[int] = set()
        for name, mod in modules.items():
            for value in vars(mod).values():
                layer = _layer_of(value)
                if layer is not None and layer != name:
                    targets[id(value)] = (value, layer)
        named = [pair for name in IMPORTERS
                 for pair in _local_imports(modules[name])] + list(INTRA)
        for mod_name, attr in named:
            value = getattr(modules[mod_name], attr, None)
            if _layer_of(value) != mod_name:
                raise RuntimeError(
                    f"tracer: {PACKAGE}.{mod_name}.{attr} is not a function "
                    "of that module")
            targets[id(value)] = (value, mod_name)
            home.add(id(value))

        wrappers = {i: self._wrap(fn, f"{layer}.{fn.__name__}", layer)
                    for i, (fn, layer) in targets.items()}
        for name, mod in modules.items():
            for attr, value in list(vars(mod).items()):
                i = id(value)
                if i in wrappers and (targets[i][1] != name or i in home):
                    setattr(mod, attr, wrappers[i])

        for mod_name, cls_name in CLASSES:
            cls = getattr(modules[mod_name], cls_name)
            for attr, value in list(vars(cls).items()):
                if not isinstance(value, types.FunctionType) or (
                        attr.startswith("__") and attr.endswith("__")):
                    continue
                key = f"{mod_name}.{cls_name}.{attr}"
                if key in MEMOS:
                    value = self._count_misses(value, key, MEMOS[key])
                setattr(cls, attr, self._wrap(value, key, mod_name))
            # Dataclass field defaults (Context.coproduct_fn) were bound
            # when the class was made; point them at the wrappers too.
            init = cls.__init__
            if init.__defaults__:
                init.__defaults__ = tuple(
                    wrappers.get(id(d), d) for d in init.__defaults__)
        for mod_name, cls_name in CONSTRUCTED:
            cls = getattr(modules[mod_name], cls_name)
            cls.__post_init__ = self._wrap(
                cls.__post_init__, f"{mod_name}.{cls_name}.__post_init__",
                mod_name)

        missing = sorted({key for _, key in FUNCTION_METRICS.values()}
                         - set(self.calls))
        if missing:
            raise RuntimeError(f"tracer: metrics name unwrapped functions: "
                               f"{', '.join(missing)}")

    def table(self) -> dict:
        return {"calls": self.calls, "layers": self.layers,
                "misses": self.misses}


def layer_metrics(table: dict) -> dict[str, float]:
    """Per-layer metrics from one traced sample's `Tracer.table()`."""
    calls, layers, misses = table["calls"], table["layers"], table["misses"]

    def total(key, column):
        start = 0 if column == 0 else 0.0
        return sum((acc[column] for acc in calls.get(key, {}).values()), start)

    out: dict[str, float] = {}
    for layer in LAYERS:
        keys = [k for k, lay in layers.items() if lay == layer]
        out[f"{layer}.self_s"] = sum((total(k, 2) for k in keys), 0.0)
        out[f"{layer}.calls"] = sum(total(k, 0) for k in keys)
    for metric, (kind, key) in FUNCTION_METRICS.items():
        n = total(key, 0)
        if kind == "calls":
            out[metric] = n
        elif kind == "s":
            out[metric] = total(key, 1)
        else:
            out[metric] = 1.0 - misses[key] / n if n else 0.0
    return out

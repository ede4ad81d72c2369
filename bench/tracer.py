"""Per-layer tracing from outside the package.

``Tracer.install()`` replaces each public function of the traced modules
with a wrapper that records a span per call, in every ``warpflow`` module
namespace that binds the function (``cli`` importing ``run_coupled`` from
``flow``, say), plus three ``SymTensorField`` methods on the class
(``__post_init__``, the constructor's validation, is reported as
``validate``).  A span's self time is its duration minus the time its
child spans cover, and the wrapper's own bookkeeping is charged to the
parent as child time, so self times exclude tracing overhead.  Each span
also collects the bookkeeping of its descendants and subtracts it from
its total time, so ``total_s`` (and ``ns_per_node``) exclude it too.
Spans stay in memory as aggregates and are read out once at the end.

Per function the tracer keeps:

* ``calls``;
* ``self_s`` and ``total_s`` (span time without and with children);
* ``nodes``: grid nodes of the first grid-bearing argument, summed;
* ``bytes``: computed, not measured -- the sizes of the array arguments
  plus the arrays returned, summed over calls;
* ``redundant``: calls whose inputs are bitwise identical to an earlier
  call's (fingerprinted only for the functions in ``FINGERPRINTED``,
  because hashing every argument costs more than most calls).
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import inspect
import math
import sys
from time import perf_counter

import numpy as np

PACKAGE = "warpflow"
MODULES = ("grids", "geometry", "warped", "functionals", "flow", "verify",
           "cli")
METHODS = ("matrix", "from_matrix", "__post_init__")
FINGERPRINTED = ("geometry.inverse_metric", "geometry.curvature_bundle",
                 "warped.christoffel_closed_form")

# The per-layer metrics the benchmark reports: function -> stats.
CT = ("calls", "self_s")
LAYER_METRICS = {
    "grids.diff_array": CT + ("bytes",),
    "grids.SymTensorField.matrix": CT,
    "grids.SymTensorField.from_matrix": CT,
    "grids.SymTensorField.validate": CT,
    "grids.integrate": CT,
    "grids.filter_array": CT,
    "geometry.inverse_metric": CT + ("redundant_frac",),
    "geometry.christoffel": CT + ("nodes", "ns_per_node"),
    "geometry.ricci": CT,
    "geometry.curvature_bundle": CT + ("nodes", "redundant_frac"),
    "geometry.hessian": CT,
    "geometry.laplace_beltrami": CT,
    "geometry.volume_density": CT,
    "geometry.grad_norm_sq": CT,
    "warped.assemble_product_metric": CT,
    "warped.christoffel_closed_form": CT + ("bytes", "redundant_frac"),
    "warped.ricci_closed_general": CT,
    "warped.ricci_closed_ansatz": CT,
    "warped.closed_scalar_curvature": CT,
    "functionals.einstein_hilbert_S": CT,
    "functionals.theorem_identity_residual": CT,
    "functionals.first_variation_check": CT,
    "functionals.gradient_tensor": CT,
    "functionals.F_lambda": CT,
    "functionals.dissipation_integral": CT,
    "flow.step": CT,
    "flow.run_decoupled": CT,
    "flow.monotonicity_report": CT,
    "verify.curvature_study": ("self_s",),
    "verify.identity_study": ("self_s",),
    "verify.variation_study": ("self_s",),
    "cli.main": ("self_s",),
}
UNITS = {"calls": "count", "self_s": "s", "nodes": "count",
         "ns_per_node": "ns", "bytes": "bytes", "redundant_frac": "ratio"}


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, trace_overhead included."""
    units = {f"{fn}.{stat}": UNITS[stat]
             for fn, stats in LAYER_METRICS.items() for stat in stats}
    units["trace_overhead"] = "ratio"
    return units


@dataclasses.dataclass
class Stats:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    nodes: int = 0
    bytes: int = 0
    redundant: int = 0


def _arrays(obj):
    """Arrays an argument or result carries: itself, a field's values, or
    the members of a tuple."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(getattr(obj, "values", None), np.ndarray):
        yield obj.values
    elif isinstance(obj, tuple):
        for item in obj:
            yield from _arrays(item)


def _nodes(args) -> int:
    for obj in args:
        for grid in (obj, getattr(obj, "grid", None)):
            if hasattr(grid, "points"):
                return math.prod(grid.points)
        if hasattr(obj, "grid_m") and hasattr(obj, "grid_n"):
            return math.prod(obj.grid_m.points) * math.prod(obj.grid_n.points)
    return 0


def _fingerprint(obj, digest) -> None:
    """Feed everything an argument holds into ``digest``: array bytes,
    dataclass fields recursively, and the repr of anything else."""
    if isinstance(obj, np.ndarray):
        arr = np.ascontiguousarray(obj)
        digest.update(f"{arr.dtype}{arr.shape}".encode())
        digest.update(arr.data)
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        digest.update(type(obj).__name__.encode())
        for f in dataclasses.fields(obj):
            _fingerprint(getattr(obj, f.name), digest)
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            _fingerprint(item, digest)
    else:
        digest.update(repr(obj).encode())
    digest.update(b"|")


class Tracer:
    """Aggregating span recorder.  Create one, ``install()`` it after the
    package is imported, run, then read ``stats`` or ``metrics()``."""

    def __init__(self):
        self.stats: dict[str, Stats] = {}
        self.originals: dict[str, object] = {}   # name -> unwrapped function
        # One frame per open span: [child span time, descendants'
        # bookkeeping time].
        self._stack: list[list[float]] = []
        self._seen: dict[str, set[bytes]] = {}

    def _wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, Stats())
        self.originals[name] = fn
        seen = self._seen.setdefault(name, set()) \
            if name in FINGERPRINTED else None
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = perf_counter()
            if seen is not None:
                digest = hashlib.blake2b(digest_size=16)
                _fingerprint((args, sorted(kwargs.items())), digest)
                key = digest.digest()
                if key in seen:
                    stats.redundant += 1
                seen.add(key)
            frame = [0.0, 0.0]
            stack.append(frame)
            t1 = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t2 = perf_counter()
                stack.pop()
                stats.calls += 1
                stats.total_s += t2 - t1 - frame[1]
                stats.self_s += t2 - t1 - frame[0]
                stats.nodes += _nodes(args)
                stats.bytes += sum(a.nbytes for obj in (*args, result)
                                   for a in _arrays(obj))
                if stack:
                    t3 = perf_counter()
                    stack[-1][0] += t3 - t0
                    stack[-1][1] += (t1 - t0) + (t3 - t2) + frame[1]

        return traced

    def install(self) -> None:
        """Wrap every traced function wherever the package binds it."""
        loaded = [mod for key, mod in sys.modules.items()
                  if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for short in MODULES:
            module = sys.modules[f"{PACKAGE}.{short}"]
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != module.__name__:
                    continue
                traced = self._wrap(f"{short}.{attr}", fn)
                for mod in loaded:
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, key, traced)
        cls = sys.modules[f"{PACKAGE}.grids"].SymTensorField
        for attr in METHODS:
            raw = inspect.getattr_static(cls, attr)
            name = "grids.SymTensorField." + (
                "validate" if attr == "__post_init__" else attr)
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self._wrap(name, raw.__func__)))
            else:
                setattr(cls, attr, self._wrap(name, raw))
        missing = sorted(set(LAYER_METRICS) - set(self.stats))
        if missing:
            print(f"tracer: not found, reported as never called: {missing}",
                  file=sys.stderr)

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics of ``LAYER_METRICS`` from the spans so far
        (trace_overhead is the caller's: it needs an untraced run)."""
        out: dict[str, float] = {}
        for fn, wanted in LAYER_METRICS.items():
            s = self.stats.get(fn, Stats())
            values = {
                "calls": s.calls, "self_s": s.self_s, "nodes": s.nodes,
                "bytes": s.bytes,
                "ns_per_node": 1e9 * s.total_s / s.nodes if s.nodes else 0.0,
                "redundant_frac": s.redundant / s.calls if s.calls else 0.0,
            }
            for stat in wanted:
                out[f"{fn}.{stat}"] = values[stat]
        return out

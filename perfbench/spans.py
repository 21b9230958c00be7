"""Span recorder that wraps causalprod's public functions from outside the package.

A traced child installs a Recorder after importing ``causalprod.cli`` and
before calling ``cli.main``.  Installing replaces each listed function in
every ``causalprod`` module namespace that binds it (and methods on their
class), so calls made through any import path are recorded.  Each call of a
timed function records one span (name, start, end, parent) in flat arrays;
functions called more than ~1e5 times per operation are only counted, since
a span per call would swamp the run being measured.  Nothing is written
until ``dump``, after the command has returned.

``summarize`` turns the dumped spans into calls, self time (span minus the
part its traced children cover) and inclusive time per name.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from pathlib import Path

import numpy as np

# (module, attribute path, span name)
TIMED = [
    ("cli", "main", "cli"),
    ("product", "double_product", "product.double_product"),
    ("product", "kernel_estimate", "product.kernel_estimate"),
    ("product", "PairOrdering.row_major", "product.ordering"),
    ("product", "convergence_study", "product.convergence_study"),
    ("coefficients", "SeriesPolynomial.evaluate", "coefficients.SeriesPolynomial.evaluate"),
    ("coefficients", "truncated_kernel", "coefficients.truncated_kernel"),
    ("coefficients", "causal_series", "coefficients.causal_series"),
    ("coefficients", "unitarity_identity_residual", "coefficients.unitarity_identity_residual"),
    ("coefficients", "forward_count_brute", "coefficients.forward_count_brute"),
    ("coefficients", "reversed_count_brute", "coefficients.reversed_count_brute"),
    ("kernel", "limit_kernel", "kernel.limit_kernel"),
    ("kernel", "kernel_causal", "kernel.kernel_causal"),
    ("kernel", "kernel_anticausal", "kernel.kernel_anticausal"),
    ("kernel", "bessel_series", "kernel.bessel_series"),
    ("kernel", "gauss_legendre", "kernel.gauss_legendre"),
    ("kernel", "bessel_profile", "kernel.bessel_profile"),
    ("kernel", "isometry_residual", "kernel.isometry_residual"),
    ("kernel", "lommel_residual", "kernel.lommel_residual"),
    ("kernel", "sonine_gegenbauer_residual", "kernel.sonine_gegenbauer_residual"),
    ("lattice", "enumerate_paths", "lattice.enumerate_paths"),
    ("lattice", "essential_order", "lattice.essential_order"),
    ("lattice", "enumerate_linear_extensions", "lattice.enumerate_linear_extensions"),
    ("combinatorics", "catalan_recurrence_holds", "combinatorics.catalan_recurrence_holds"),
]

COUNTED = [
    ("coefficients", "forward_count_closed", "coefficients.forward_count_closed"),
    ("combinatorics", "binomial", "combinatorics.binomial"),
]


def _factors(counters: dict, args: tuple, result) -> None:
    n, nu = args[0], args[2]
    if nu.modulus != 0.0:
        factors = n * (n - 1) // 2
        counters["product.factors_applied"] += factors
        # each factor reads and writes two complex128 columns of length n
        counters["product.bytes_moved_computed"] += factors * 64 * n


def _series_terms(counters: dict, args: tuple, result) -> None:
    counters["coefficients.series_terms"] += len(args[0].terms)


def _quad_nodes(counters: dict, args: tuple, result) -> None:
    counters["kernel.quad_nodes"] += args[3]


def _arg_xy(counters: dict, args: tuple, result) -> None:
    xy = abs(args[1] * args[2])
    if xy > counters["kernel.bessel_series.arg_xy_max"]:
        counters["kernel.bessel_series.arg_xy_max"] = xy


def _paths(counters: dict, args: tuple, result) -> None:
    counters["lattice.paths_enumerated"] += len(result)


def _extensions(counters: dict, args: tuple, result) -> None:
    counters["lattice.extensions_enumerated"] += len(result)


# work counters computed from a timed function's arguments or result
OBSERVERS = {
    "product.double_product": _factors,
    "coefficients.SeriesPolynomial.evaluate": _series_terms,
    "kernel.gauss_legendre": _quad_nodes,
    "kernel.bessel_series": _arg_xy,
    "lattice.enumerate_paths": _paths,
    "lattice.enumerate_linear_extensions": _extensions,
}

# counter name -> unit; a name ending in "_max" keeps the largest value seen
COUNTERS = {"product.factors_applied": "count", "product.bytes_moved_computed": "B",
            "coefficients.series_terms": "count", "kernel.quad_nodes": "count",
            "kernel.bessel_series.arg_xy_max": "1", "lattice.paths_enumerated": "count",
            "lattice.extensions_enumerated": "count"}


class Recorder:
    """Spans and counts of one traced process, kept in memory until ``dump``."""

    def __init__(self) -> None:
        self.names = [name for _, _, name in TIMED]
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._counters_of: dict = {}
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack = [-1]

    def install(self) -> None:
        """Wrap every TIMED and COUNTED function of the imported causalprod modules."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "causalprod" or key.startswith("causalprod."))]
        for nid, (module, attr, name) in enumerate(TIMED):
            self._patch(modules, module, attr, lambda fn, nid=nid, name=name:
                        self._timed(nid, fn, OBSERVERS.get(name)))
        for module, attr, name in COUNTED:
            self._patch(modules, module, attr, lambda fn, name=name: self._counted(name, fn))

    @staticmethod
    def _patch(modules: list, module: str, attr: str, make) -> None:
        owner = sys.modules[f"causalprod.{module}"]
        *path, last = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        raw = vars(owner)[last]
        if path:  # a method: replace it on its class, keeping classmethods bound to the class
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            wrapped = make(fn)
            setattr(owner, last, classmethod(wrapped) if isinstance(raw, classmethod) else wrapped)
            return
        wrapped = make(raw)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is raw:
                    setattr(mod, key, wrapped)

    def _timed(self, nid: int, fn, observe):
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        counters = self.counters
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(counters, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name: str, fn):
        # lru_cache with maxsize=0 stores nothing: it is a call counter in C, several
        # times cheaper than a Python wrapper; its misses are the calls.
        wrapper = functools.lru_cache(maxsize=0)(fn)
        self._counters_of[name] = wrapper
        return wrapper

    def dump(self, prefix: Path) -> None:
        """Write the spans to ``prefix``.npz and the names and counts to ``prefix``.json."""
        np.savez(f"{prefix}.npz",
                 name=np.frombuffer(self.span_name, dtype=np.int32),
                 parent=np.frombuffer(self.span_parent, dtype=np.int32),
                 start=np.frombuffer(self.span_start, dtype=np.float64),
                 end=np.frombuffer(self.span_end, dtype=np.float64))
        Path(f"{prefix}.json").write_text(json.dumps(
            {"names": self.names, "counters": self.counters,
             "calls": {name: w.cache_info().misses for name, w in self._counters_of.items()}}))


def summarize(prefix: Path) -> dict[str, dict[str, float]]:
    """Per-name calls, self time and inclusive time, plus counted calls and counters.

    Inclusive time skips a span whose parent has the same name, so a function
    that calls itself is not counted twice.
    """
    meta = json.loads(Path(f"{prefix}.json").read_text())
    with np.load(f"{prefix}.npz") as spans:
        name, parent = spans["name"], spans["parent"]
        dur = spans["end"] - spans["start"]
    k = len(meta["names"])
    nested = parent >= 0
    covered = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
    outer = np.ones(len(dur), dtype=bool)
    outer[nested] = name[parent[nested]] != name[nested]
    calls = np.bincount(name, minlength=k)
    self_s = np.bincount(name, weights=dur - covered, minlength=k)
    incl_s = np.bincount(name, weights=np.where(outer, dur, 0.0), minlength=k)
    out = {n: {"calls": int(calls[i]), "self_s": float(self_s[i]), "incl_s": float(incl_s[i])}
           for i, n in enumerate(meta["names"])}
    for n, c in meta["calls"].items():
        out[n] = {"calls": c}
    out["counters"] = meta["counters"]
    return out

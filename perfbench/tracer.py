"""Per-layer tracing from outside the package.

`Tracer.install` replaces every binding of the traced functions in every
loaded `qdist` module (the defining module, each `from .x import f` binding
and the package re-export) with a timing wrapper, and wraps
`numpy.linalg.svd` as the kernel layer. `Tracer.restore` puts the original
objects back. Spans are kept in memory as (name, start, end, parent, request)
and written out once the run ends; self time is a span's duration minus the
time its child spans cover.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import sys
import time

import numpy as np

# layer (qdist module) -> traced public functions
TRACED = {
    "linalg": ("rank_and_nullity", "hermitian_eigensystem"),
    "system": ("system_from_json", "system_to_json"),
    "lie_closure": ("lie_dimension",),
    "commutant": ("commutant_dimension", "build_stacked_adjoint",
                  "extract_original_space_symmetry"),
    "distance": ("epsilon_best", "epsilon_upper_gap_merge", "epsilon_upper_min_cut",
                 "epsilon_upper_block_search", "epsilon_upper_drift_removal",
                 "stoer_wagner_min_cut", "epsilon_lower_svd", "verify_certificate"),
    "speed_limit": ("t_star_lower", "delta_lower_bound", "evolve",
                    "verify_perturbation_inequality"),
    "models": ("build_hopping_chain", "build_cross_kerr",
               "build_global_control_chain", "build_two_qubit_ising"),
    "cli": ("analyze_system",),
}
ESTIMATORS = ("distance.epsilon_upper_gap_merge", "distance.epsilon_upper_min_cut",
              "distance.epsilon_upper_block_search",
              "distance.epsilon_upper_drift_removal")
SVD = "kernel.svd"
HASH = "trace.hash"


def svd_flops(rows: int, cols: int, compute_uv: bool, full_matrices: bool,
              is_complex: bool) -> float:
    """Floating-point operations of one dense SVD (Golub and Van Loan counts).

    A complex operation counts as four real ones.
    """
    m, n = max(rows, cols), min(rows, cols)
    if not compute_uv:
        flops = 4 * m * n * n - 4 * n ** 3 / 3
    elif full_matrices:
        flops = 4 * m * m * n + 8 * m * n * n + 9 * n ** 3
    else:
        flops = 14 * m * n * n + 8 * n ** 3
    return flops * (4 if is_complex else 1)


def svd_bytes(rows: int, cols: int, compute_uv: bool, full_matrices: bool,
              itemsize: int) -> float:
    """Bytes of one SVD's input plus its outputs."""
    m, n = max(rows, cols), min(rows, cols)
    total = m * n * itemsize + n * 8
    if compute_uv:
        total += ((m * m) if full_matrices else (m * n)) * itemsize + n * n * itemsize
    return float(total)


def self_times(spans) -> dict[str, list]:
    """name -> [calls, self seconds] from (name, start, end, parent, request) spans."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, list] = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        entry = out.setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += (end - start) - child_time[i]
    return out


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.request = None       # name of the system being run
        self.dim = None           # its dimension, to recognise d^4-column SVDs
        self.svd_calls: list[dict] = []
        self.certs_built = 0
        self.certs_verified = 0
        self._stack: list[int] = []
        self._installed: list[tuple] = []

    # ------------------------------------------------------------ spans

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.request])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if name in ESTIMATORS:
                self.certs_built += 1
                self.certs_verified += bool(result.verified_uncontrollable)
            return result
        return traced

    def _wrap_svd(self, fn):
        @functools.wraps(fn)
        def traced(a, *args, **kwargs):
            full = kwargs.get("full_matrices", args[0] if len(args) > 0 else True)
            uv = kwargs.get("compute_uv", args[1] if len(args) > 1 else True)
            index = self._open(SVD)
            try:
                self._record_svd(a, bool(full), bool(uv))
                return fn(a, *args, **kwargs)
            finally:
                self._close(index)
        return traced

    def _record_svd(self, a, full: bool, uv: bool) -> None:
        rows, cols = a.shape
        record = {
            "request": self.request, "rows": int(rows), "cols": int(cols),
            "flops": svd_flops(rows, cols, uv, full, a.dtype.kind == "c"),
            "bytes": svd_bytes(rows, cols, uv, full, a.dtype.itemsize),
            "d4": self.dim is not None and cols == self.dim ** 4, "digest": None,
        }
        if record["d4"]:
            # hashing is tracer work: a child span keeps it out of the SVD's self time
            index = self._open(HASH)
            digest = hashlib.blake2b(f"{a.shape}{a.dtype.str}".encode(), digest_size=16)
            digest.update(np.ascontiguousarray(a))
            record["digest"] = digest.hexdigest()
            self._close(index)
        self.svd_calls.append(record)

    # ------------------------------------------------------ (un)binding

    def install(self) -> None:
        """Rebind every traced function in every loaded qdist module."""
        homes = {layer: importlib.import_module(f"qdist.{layer}") for layer in TRACED}
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "qdist" or key.startswith("qdist."))]
        for layer, names in TRACED.items():
            home = homes[layer]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._bind(module, attr, original, wrapper)
        self._bind(np.linalg, "svd", np.linalg.svd, self._wrap_svd(np.linalg.svd))

    def _bind(self, owner, attr: str, original, wrapper) -> None:
        self._installed.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> list[tuple]:
        """Put every original function back; returns what was rebound."""
        done = self._installed
        for owner, attr, original in reversed(done):
            setattr(owner, attr, original)
        self._installed = []
        return done

    # ---------------------------------------------------------- results

    def metrics(self) -> dict[str, float]:
        """Per-function calls and self time, per-layer self time, kernel counts."""
        out: dict[str, float] = {}
        times = self_times(self.spans)
        layer_self = {layer: 0.0 for layer in TRACED}
        for layer, names in TRACED.items():
            for fname in names:
                calls, seconds = times.get(f"{layer}.{fname}", [0, 0.0])
                out[f"{layer}.{fname}.calls"] = calls
                out[f"{layer}.{fname}.self_s"] = seconds
                layer_self[layer] += seconds
        for layer, seconds in layer_self.items():
            out[f"{layer}.self_s"] = seconds
        out["kernel.svd.calls"] = len(self.svd_calls)
        out["kernel.svd.s"] = times.get(SVD, [0, 0.0])[1]
        out["kernel.svd.gflop_computed"] = sum(c["flops"] for c in self.svd_calls) / 1e9
        out["kernel.svd.gbyte_computed"] = sum(c["bytes"] for c in self.svd_calls) / 1e9
        d4 = [c["digest"] for c in self.svd_calls if c["d4"]]
        out["kernel.svd_d4.calls"] = len(d4)
        # with no d^4-column SVD there is nothing repeated: the ratio is 1
        out["kernel.svd_d4.distinct_ratio"] = len(set(d4)) / len(d4) if d4 else 1.0
        out["distance.cert_verified_ratio"] = (
            self.certs_verified / self.certs_built if self.certs_built else 1.0)
        return out

    def svd_d4_by_request(self) -> dict[str, list[int]]:
        """system -> [d^4-column SVD calls, distinct inputs among them]."""
        seen: dict[str, list] = {}
        for c in self.svd_calls:
            if c["d4"]:
                seen.setdefault(c["request"], []).append(c["digest"])
        return {k: [len(v), len(set(v))] for k, v in seen.items()}

    def write(self, path: str) -> None:
        spans = [{"name": n, "start": s, "end": e, "parent": p, "request": r}
                 for n, s, e, p, r in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": spans, "svd_calls": self.svd_calls}, fh)

"""In-memory span recorder installed around nucd's public callables.

The benchmark never edits the package: it replaces functions and methods
with timing wrappers for the duration of one pass and restores them after.
Each call becomes a span (name, start, end, parent).  Spans live in compact
arrays until the run ends; self time is a span's duration minus the time
its direct children cover (the program is single-threaded, so children
never overlap).

Two levels exist.  "coarse" wraps only the calls that set-up time and
per-cell timing need (generators, parsing, build_*, reference_minimum,
sampler builds, solver entry points): tens to hundreds of calls per pass,
each at least tens of microseconds long.  "full" adds the per-step calls of
every layer and is used only by the traced run.
"""

from __future__ import annotations

import os
import sys
import time
from array import array
from collections import Counter

import numpy as np

from nucd import bench, data_io, geometry, matrix, problems, sampling, solvers

# solver entry points the workloads reach; generalized_accel stays unwrapped
# so that the accelerated loop's own time is the self time of these spans
SOLVER_ENTRIES = {
    "nu_acdm": "nu-acdm",
    "acdm_baseline": "acdm",
    "nu_acdm_ns": "nu-acdm-ns",
    "rcdm": "rcdm",
    "kaczmarz": "kaczmarz",
}
SETUP_FUNCTIONS = (
    (data_io, ("gen_linear_system", "gen_skewed_dataset", "parse_libsvm")),
    (problems, ("build_kaczmarz", "build_ridge_dual", "build_lasso_dual",
                "build_penalty_dual", "reference_minimum")),
)
SAMPLER_BUILD = "sampling.build"
# span names whose time is set-up time
SETUP_NAMES = frozenset(
    {f"{m.__name__.rsplit('.', 1)[-1]}.{a}" for m, attrs in SETUP_FUNCTIONS for a in attrs}
    | {SAMPLER_BUILD}
)
BENCH_ENTRIES = ("run_kaczmarz_race", "beta_sweep")


class Spans:
    """Span store plus counters taken at the same call boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.current = -1
        self.counters: Counter = Counter()
        self.solver_calls: list[tuple[int, str, object]] = []  # (span, algo, trace)

    def __len__(self):
        return len(self.start)

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, before=None, after=None):
        """Timing wrapper around fn.  before(args) runs ahead of the timed
        call, after(span index, result) once it returned."""
        nid = self.intern(name)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(self.start)
            parent = self.current
            self.name_id.append(nid)
            self.parent.append(parent)
            self.start.append(0)
            self.end.append(0)
            self.current = idx
            if before is not None:
                before(args)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self.current = parent
                self.start[idx] = t0
                self.end[idx] = t1
            if after is not None:
                after(idx, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def arrays(self):
        """(name id, start ns, duration ns, parent, self ns) as numpy arrays."""
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=np.int64) - start
        parent = np.frombuffer(self.parent, dtype=np.int64)
        child = np.zeros(dur.size, dtype=np.int64)
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        return nid, start, dur, parent, dur - child

    def save(self, path) -> None:
        nid, start, dur, parent, _ = self.arrays()
        np.savez(path, names=np.asarray(self.names), name_id=nid,
                 start_ns=start, end_ns=start + dur, parent=parent)


def wrapper_cost_ns(repeats: int = 20000) -> float:
    """Per-span wrapper time that falls outside the span itself and so is
    charged to the parent's self time; the traced run subtracts it."""
    def noop():
        return None

    best = float("inf")
    for _ in range(5):
        spans = Spans()
        wrapped = spans.wrap("noop", noop)
        t0 = time.perf_counter_ns()
        for _ in range(repeats):
            noop()
        t1 = time.perf_counter_ns()
        for _ in range(repeats):
            wrapped()
        t2 = time.perf_counter_ns()
        inside = int(np.sum(spans.arrays()[2]))
        best = min(best, ((t2 - t1) - (t1 - t0) - inside) / repeats)
    return max(best, 0.0)


class Patch:
    """Rebinds attributes to wrappers and restores the originals on exit."""

    def __init__(self, spans: Spans):
        self.spans = spans
        self._undo = []

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def method(self, cls, attr, name, before=None):
        self._set(cls, attr, self.spans.wrap(name, cls.__dict__[attr], before))

    def function(self, module, attr, name, before=None, after=None):
        """Rebind a module-level function in every nucd module holding it
        (``from .x import f`` copies the binding)."""
        original = module.__dict__[attr]
        wrapped = self.spans.wrap(name, original, before, after)
        for mod in list(sys.modules.values()):
            mod_name = getattr(mod, "__name__", None) or ""
            if mod_name.split(".")[0] == "nucd" and getattr(mod, attr, None) is original:
                self._set(mod, attr, wrapped)

    def restore(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()


def install(spans: Spans, level: str) -> Patch:
    """Wrap nucd's callables at level "coarse" or "full"; use the result as
    a context manager to restore them."""
    if level not in ("coarse", "full"):
        raise ValueError(f"unknown trace level {level!r}")
    patch = Patch(spans)
    counters = spans.counters

    def file_size(args):
        counters["data_io.parse_bytes"] += os.path.getsize(args[0])

    for module, attrs in SETUP_FUNCTIONS:
        layer = module.__name__.rsplit(".", 1)[-1]
        for attr in attrs:
            before = file_size if attr == "parse_libsvm" else None
            patch.function(module, attr, f"{layer}.{attr}", before)

    for attr, algo in SOLVER_ENTRIES.items():
        def keep_trace(idx, out, algo=algo):
            spans.solver_calls.append((idx, algo, out[1]))
        patch.function(solvers, attr, f"solvers.{algo}", after=keep_trace)

    patch.method(sampling.WeightedSampler, "__init__", SAMPLER_BUILD)
    if level == "coarse":
        return patch

    def drawn(args):
        counters["sampling.drawn"] += int(args[1])

    patch.method(sampling.WeightedSampler, "sample_block", "sampling.sample_block", drawn)

    for attr in BENCH_ENTRIES:
        patch.function(bench, attr, f"bench.{attr}")

    for attr, name in (("__init__", "matrix.build"), ("row_dot", "matrix.row_dot"),
                       ("matvec", "matrix.matvec"), ("rmatvec", "matrix.rmatvec")):
        patch.method(matrix.SparseRowMatrix, attr, name)

    def moved(factor):
        # computed, not measured: bytes a recombination reads plus writes
        def before(args):
            p = args[0]
            size = p.x.size + (0 if p.agg is None else p.agg.size)
            counters["geometry.bytes"] += factor * 8 * size
        return before

    for attr, before in (("combine", moved(3)), ("copy_from", moved(2)),
                         ("copy", moved(2)), ("apply_coord_step", None),
                         ("coord_grad", None), ("value", None), ("rebuild", None)):
        patch.method(geometry.TrackedPoint, attr, f"geometry.{attr}", before)

    def touched(args):
        # computed: row entries the gradient needs vs vector entries it forms
        oracle, i = args[0], args[2]
        if isinstance(oracle, problems.KaczmarzQuadratic):
            nnz = int(oracle.a.indptr[i + 1] - oracle.a.indptr[i])
            formed = nnz  # row_dot reads only the row's columns
        else:
            nnz = int(oracle.data.indptr[i + 1] - oracle.data.indptr[i])
            formed = oracle.d  # _reg_conj_grad maps the whole d-vector
        counters["problems.row_nnz"] += nnz
        counters["problems.entries_formed"] += formed

    for cls in (problems.KaczmarzQuadratic, problems.ErmDual):
        patch.method(cls, "coord_grad", "problems.coord_grad", touched)
        patch.method(cls, "update_aggregate", "problems.update_aggregate")
        patch.method(cls, "value", "problems.value")

    patch.method(solvers._Recorder, "record", "solvers.record")
    return patch

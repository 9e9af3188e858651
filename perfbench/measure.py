"""Pass loop, metric computation and the result line."""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import time
from dataclasses import dataclass

import numpy as np
import scipy

import spans as sp
from workloads import WORKLOADS, cache_dir, first_epoch_below

ALGOS = ("nu-acdm", "acdm", "nu-acdm-ns", "rcdm", "kaczmarz")

# The host of a shared machine slows every process by up to ~40% for minutes
# at a time, far more than any bound the benchmark could keep.  A fixed
# kernel that does not touch nucd is timed before every pass, and that
# pass's times are reported at the speed where the kernel takes
# REFERENCE_PROBE_S: measured seconds * REFERENCE_PROBE_S / probe seconds.
# The raw values are printed alongside.
REFERENCE_PROBE_S = 0.016

END_TO_END_UNITS = {
    "wall_s": "s", "setup_s": "s", "steps_per_s": "1/s", "tte_s.p50": "s",
    "peak_rss_mb": "MB",
}


@dataclass
class Cell:
    """One top-level solver call of a pass."""

    algo: str
    seed: int
    wall_s: float
    steps: int
    epochs: float  # to the workload's eps, or run length when it has none
    reached: bool


@dataclass
class PassResult:
    wall_s: float
    setup_s: float
    cells: list
    checks: int
    failures: list
    scale: float = 1.0  # REFERENCE_PROBE_S / probe seconds before the pass

    @property
    def steps(self) -> int:
        return sum(c.steps for c in self.cells)

    def trajectory(self):
        """What tracing must not change: per cell, steps and epochs."""
        return [(c.algo, c.seed, c.steps, c.epochs) for c in self.cells]


def _interpreter_loop():
    acc = 0
    for i in range(150_000):
        acc += i % 7
    return acc


def _small_numpy_calls():
    v = np.arange(256.0)
    idx = np.arange(0, 256, 8)
    acc = 0.0
    for _ in range(3000):
        acc += float(np.dot(v[idx], v[idx]))
        v[idx] += 1e-12
    return acc


def _vector_updates():
    w = np.arange(10_000.0)
    for _ in range(600):
        w *= 0.999999
        w += 1e-9
    return float(w[0])


def probe_s() -> float:
    """Time of the reference kernels, each the best of three: a bare
    interpreter loop, small numpy calls, and 10 000-element vector updates,
    the three kinds of work in the solvers' inner loops."""
    total = 0.0
    for kernel in (_interpreter_loop, _small_numpy_calls, _vector_updates):
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            kernel()
            best = min(best, time.perf_counter() - t0)
        total += best
    return total


def _has_ancestor(spans, idx, names) -> bool:
    p = spans.parent[idx]
    while p >= 0:
        if spans.names[spans.name_id[p]] in names:
            return True
        p = spans.parent[p]
    return False


def run_pass(workload, spans, level, seed, pass_no, work_dir) -> PassResult:
    inp = workload.inputs(seed, pass_no, work_dir)
    first_span, first_call = len(spans), len(spans.solver_calls)
    with sp.install(spans, level):
        t0 = time.perf_counter()
        out = workload.solve(inp)
        wall = time.perf_counter() - t0

    setup_ids = [spans.intern(n) for n in sp.SETUP_NAMES]
    nid = np.frombuffer(spans.name_id, dtype=np.int32)[first_span:]
    setup_ns = 0
    for idx in first_span + np.flatnonzero(np.isin(nid, setup_ids)):
        if not _has_ancestor(spans, idx, sp.SETUP_NAMES):
            setup_ns += spans.end[idx] - spans.start[idx]

    cells = []
    for idx, algo, trace in spans.solver_calls[first_call:]:
        if _has_ancestor(spans, idx, sp.SETUP_NAMES):
            continue
        epochs = (float(trace.epochs[-1]) if workload.eps is None
                  else first_epoch_below(trace, workload.eps))
        cells.append(Cell(algo, int(trace.seed), (spans.end[idx] - spans.start[idx]) / 1e9,
                          int(trace.iters[-1]), epochs, not np.isnan(epochs)))
    checks, failures = workload.check(inp, out, cells)
    return PassResult(wall, setup_ns / 1e9, cells, checks, failures)


def per_layer(spans, passes, untraced_walls, traced_walls, cost_ns) -> dict:
    """Per-layer metrics from the traced passes' spans."""
    nid, _start, dur, parent, self_ns = spans.arrays()
    k = len(spans.names)
    has = parent >= 0
    direct = np.bincount(parent[has], minlength=dur.size)
    self_ns = self_ns - direct * cost_ns  # wrapper time charged to callers
    count = np.bincount(nid, minlength=k)
    total = np.bincount(nid, weights=dur, minlength=k)
    own = np.bincount(nid, weights=self_ns, minlength=k)
    ids = {name: i for i, name in enumerate(spans.names)}
    c = spans.counters
    n_pass = len(passes)

    def calls(name):
        return int(count[ids[name]]) if name in ids else 0

    def tot(*names):
        return float(sum(total[ids[n]] for n in names if n in ids))

    def mean(name, scale):
        n = calls(name)
        return tot(name) / n / scale if n else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    steps = {a: 0 for a in ALGOS}
    self_by_algo = {a: 0.0 for a in ALGOS}
    bench_cells = 0
    bench_ids = {ids[f"bench.{b}"] for b in sp.BENCH_ENTRIES if f"bench.{b}" in ids}
    for idx, algo, trace in spans.solver_calls:
        steps[algo] += int(trace.iters[-1])
        self_by_algo[algo] += float(self_ns[idx])
        if parent[idx] >= 0 and nid[parent[idx]] in bench_ids:
            bench_cells += 1
    all_steps = sum(steps.values())
    parse_s = tot("data_io.parse_libsvm") / 1e9
    bench_self = float(sum(own[i] for i in bench_ids))

    m = {
        "sampling.build_us": mean(sp.SAMPLER_BUILD, 1e3),
        "sampling.builds": calls(sp.SAMPLER_BUILD) / n_pass,
        "sampling.draw_ns": ratio(tot("sampling.sample_block"), c["sampling.drawn"]),
        "sampling.draw_use_ratio": ratio(all_steps, c["sampling.drawn"]),
        "matrix.build_s": tot("matrix.build") / 1e9 / n_pass,
        "matrix.row_dot_us": mean("matrix.row_dot", 1e3),
        "matrix.matvec_ms": mean("matrix.matvec", 1e6),
        "matrix.rmatvec_ms": mean("matrix.rmatvec", 1e6),
        "matrix.products": (calls("matrix.matvec") + calls("matrix.rmatvec")) / n_pass,
        "data_io.parse_s": parse_s / n_pass,
        "data_io.parse_mb_per_s": ratio(c["data_io.parse_bytes"] / 1e6, parse_s),
        "data_io.gen_s": tot("data_io.gen_linear_system", "data_io.gen_skewed_dataset") / 1e9 / n_pass,
        "geometry.combine_us": mean("geometry.combine", 1e3),
        "geometry.copy_from_us": mean("geometry.copy_from", 1e3),
        "geometry.combines_per_step": ratio(calls("geometry.combine"), all_steps),
        "geometry.coord_step_us": mean("geometry.apply_coord_step", 1e3),
        "geometry.bytes_per_step": ratio(c["geometry.bytes"], all_steps),
        "problems.coord_grad_us": mean("problems.coord_grad", 1e3),
        "problems.update_aggregate_us": mean("problems.update_aggregate", 1e3),
        "problems.value_us": mean("problems.value", 1e3),
        "problems.touched_ratio": ratio(c["problems.row_nnz"], c["problems.entries_formed"]),
        "problems.build_s": tot(*(n for n in ids if n.startswith("problems.build_"))) / 1e9 / n_pass,
        "problems.reference_s": tot("problems.reference_minimum") / 1e9 / n_pass,
    }
    for a in ALGOS:
        m[f"solvers.step_us.{a}"] = ratio(self_by_algo[a] / 1e3, steps[a])
    m["solvers.record_us"] = mean("solvers.record", 1e3)
    m["solvers.steps"] = all_steps / n_pass
    m["solvers.records"] = calls("solvers.record") / n_pass
    cells = [cell for p in passes for cell in p.cells]
    for a in ALGOS:
        epochs = [cell.epochs for cell in cells if cell.algo == a and cell.reached]
        m[f"solvers.epochs_to_eps.{a}.p50"] = float(np.median(epochs)) if epochs else 0.0
    m["bench.cells"] = bench_cells / n_pass
    m["bench.driver_overhead_s"] = bench_self / 1e9 / n_pass
    m["trace.overhead_frac"] = (statistics.median(traced_walls)
                                / statistics.median(untraced_walls) - 1.0)
    m["trace.span_cost_ns"] = cost_ns
    return m


PER_LAYER_UNITS = {
    "sampling.build_us": "us", "sampling.builds": "count", "sampling.draw_ns": "ns",
    "sampling.draw_use_ratio": "computed-ratio", "matrix.build_s": "s",
    "matrix.row_dot_us": "us", "matrix.matvec_ms": "ms", "matrix.rmatvec_ms": "ms",
    "matrix.products": "count", "data_io.parse_s": "s", "data_io.parse_mb_per_s": "MB/s",
    "data_io.gen_s": "s", "geometry.combine_us": "us", "geometry.copy_from_us": "us",
    "geometry.combines_per_step": "count", "geometry.coord_step_us": "us",
    "geometry.bytes_per_step": "computed-B/step", "problems.coord_grad_us": "us",
    "problems.update_aggregate_us": "us", "problems.value_us": "us",
    "problems.touched_ratio": "computed-ratio", "problems.build_s": "s",
    "problems.reference_s": "s",
    **{f"solvers.step_us.{a}": "us" for a in ALGOS},
    "solvers.record_us": "us", "solvers.steps": "count", "solvers.records": "count",
    **{f"solvers.epochs_to_eps.{a}.p50": "epochs" for a in ALGOS},
    "bench.cells": "count", "bench.driver_overhead_s": "s", "trace.overhead_frac": "ratio",
    "trace.span_cost_ns": "ns",
}


def end_to_end(workload, passes) -> tuple[dict, dict]:
    """(metrics for the result line, extras printed above it).  Each pass's
    times are multiplied by its scale and its rate divided by it; the
    extras also hold the unscaled values."""

    def summary(scaled):
        s = (lambda p: p.scale) if scaled else (lambda p: 1.0)
        primary = [c.wall_s * s(p) for p in passes for c in p.cells
                   if c.algo == workload.primary and c.reached]
        return {
            "wall_s": statistics.median(p.wall_s * s(p) for p in passes),
            "setup_s": statistics.median(p.setup_s * s(p) for p in passes),
            "steps_per_s": statistics.median(
                p.steps / (p.wall_s - p.setup_s) / s(p) for p in passes),
            # a run whose primary cells all missed fails its checks anyway
            "tte_s.p50": statistics.median(primary) if primary else 0.0,
        }

    metrics = summary(scaled=True)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    extras = {}
    for a in ALGOS:
        walls = [c.wall_s * p.scale for p in passes for c in p.cells
                 if c.algo == a and c.reached]
        if walls:
            extras[f"tte_s.{a}.p50"] = (statistics.median(walls), "s")
    extras.update({f"{k}.raw": (v, END_TO_END_UNITS[k])
                   for k, v in summary(scaled=False).items()})
    extras["speed_scale"] = (statistics.median(p.scale for p in passes), "ratio")
    return metrics, extras


def machine() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas_threads": int(os.environ["OMP_NUM_THREADS"])}


def run(name, seed, seconds, traced, root) -> int:
    workload = WORKLOADS[name]
    work_dir = cache_dir(root)
    print(f"# {name} seed={seed} seconds={seconds:g} trace={int(traced)} "
          f"{json.dumps(machine())}", flush=True)

    coarse = sp.Spans()
    full = sp.Spans()
    untraced, traced_passes, failures = [], [], []
    checks = 0
    cost_ns = sp.wrapper_cost_ns() if traced else 0.0
    started = time.perf_counter()
    pass_no = 0
    while pass_no == 0 or time.perf_counter() - started < seconds:
        scale = REFERENCE_PROBE_S / probe_s()
        plain = run_pass(workload, coarse, "coarse", seed, pass_no, work_dir)
        plain.scale = scale
        untraced.append(plain)
        checks += plain.checks
        failures += plain.failures
        if traced:
            deep = run_pass(workload, full, "full", seed, pass_no, work_dir)
            traced_passes.append(deep)
            checks += deep.checks + 1
            failures += deep.failures
            if deep.trajectory() != plain.trajectory():
                failures.append(f"pass {pass_no}: traced trajectory differs from untraced")
        pass_no += 1

    failures += workload.check_run([c for p in untraced for c in p.cells])
    checks += 1
    for f in failures:
        print(f"FAILED {f}", flush=True)
    metrics, extras = end_to_end(workload, untraced)
    units = dict(END_TO_END_UNITS)
    if traced:
        metrics = per_layer(full, traced_passes, [p.wall_s for p in untraced],
                            [p.wall_s for p in traced_passes], cost_ns)
        units = PER_LAYER_UNITS
        trace_dir = os.path.join(root, ".perfbench_work", "trace")
        os.makedirs(trace_dir, exist_ok=True)
        full.save(os.path.join(trace_dir, f"{name}.npz"))
        extras = {}
    extras["failed_frac"] = (len(failures) / checks, "ratio")
    print(f"{name}: {pass_no} passes, {sum(len(p.cells) for p in untraced)} untraced cells")
    for key, value in metrics.items():
        print(f"{name} {key} {value:.6g} {units[key]}")
    for key, (value, unit) in extras.items():
        print(f"{name} {key} {value:.6g} {unit}")
    result = {
        "correct": not failures,
        "attempted": checks,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if not failures else 1

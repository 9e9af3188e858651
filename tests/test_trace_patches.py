"""The benchmark's traced run wraps nucd's methods by name
(perfbench/spans.py); a rename or deletion of any wrapped name breaks it."""

import pathlib

import numpy as np

from nucd import geometry, matrix, problems, sampling, solvers
from nucd.data_io import gen_linear_system

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
PATCHED_CLASSES = (
    geometry.TrackedPoint,
    sampling.WeightedSampler,
    matrix.SparseRowMatrix,
    problems.KaczmarzQuadratic,
    problems.ErmDual,
    solvers._Recorder,
)


def test_full_trace_patches_install_and_restore(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    before = [dict(cls.__dict__) for cls in PATCHED_CLASSES]
    with spans.install(spans.Spans(), "full"):
        pass
    assert [dict(cls.__dict__) for cls in PATCHED_CLASSES] == before


def test_each_solver_entry_records_one_solver_call(monkeypatch):
    """A solver entry point that reached another wrapped entry point would
    record two solver cells for one run."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    a, b, _ = gen_linear_system(12, 4, 0.5, seed=1)
    oracle, profile = problems.build_kaczmarz(a, b)
    cfg = solvers.SolverConfig(iters=24, seed=2)
    for algo, run in (
        ("kaczmarz", lambda: solvers.kaczmarz(a, b, np.zeros(4), cfg)),
        ("nu-acdm", lambda: solvers.nu_acdm(oracle, profile, np.zeros(12), cfg)),
    ):
        recorder = spans.Spans()
        with spans.install(recorder, "coarse"):
            run()
        assert [call[1] for call in recorder.solver_calls] == [algo]

"""The benchmark's traced run wraps nucd's methods by name
(perfbench/spans.py); a rename or deletion of any wrapped name breaks it."""

import pathlib

from nucd import geometry, matrix, problems, sampling, solvers

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

"""tools/trajectory_digest.py, the parent/change identity check: two runs
print the same full and iterations digests for every (problem, solver,
check level) cell and for every trace of the bench experiments."""

import importlib.util
import pathlib
import subprocess
import sys
from unittest import mock

import numpy as np

from nucd import solvers

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "trajectory_digest.py"


def _digests():
    return subprocess.run([sys.executable, str(TOOL), "--epochs", "1"],
                          capture_output=True, text=True, check=True).stdout


def test_two_runs_print_identical_digests():
    first, second = _digests(), _digests()
    assert first == second
    cells = [line.split() for line in first.splitlines()]
    assert len({tuple(cell[:3]) for cell in cells}) == len(cells)
    solver_cells = [cell for cell in cells if cell[2] in ("off", "cheap", "full")]
    # 12 problems: 9 strongly convex with 5 solvers, 3 penalty duals with 2,
    # plus kaczmarz on 3 systems; each at 3 check levels; then, unchecked at
    # a stride of 64, kaczmarz on 2 systems, 5 solvers on 4 ridge and Lasso
    # duals and 2 on 2 penalty duals; then, unchecked with several blocks
    # per segment, kaczmarz and nu_acdm on a Lasso dual; then, unchecked on
    # the Gram path of a 100 x 48 system, kaczmarz and 3 solvers on its
    # quadratic; then nu_acdm_ns on a 30 x 8 penalty dual at a stride of 30
    # and nu_acdm on a ridge dual of the same rows in one segment; then 4
    # solvers on the folding 2 x 2 system at a stride of 1 at 3 check levels
    # and unchecked at strides of 64 and 997
    assert len(solver_cells) == ((9 * 5 + 3 * 2 + 3) * 3 + 2 + 4 * 5 + 2 * 2
                                 + 2 + 1 + 3 + 2 + 4 * (3 + 2))
    names = {tuple(cell[:3]) for cell in solver_cells}
    assert ("linsys-scattered-stride64", "kaczmarz", "off") in names
    assert ("lasso-mixed-stride64", "nu_acdm", "off") in names
    assert ("ridge-scattered-stride64", "rcdm", "off") in names
    assert ("penalty-mixed-stride64", "nu_acdm_ns", "off") in names
    assert ("linsys-scattered64-stride1000", "kaczmarz", "off") in names
    assert ("lasso-scattered64-stride1000", "nu_acdm", "off") in names
    assert ("linsys-gram-100x48", "kaczmarz", "off") in names
    assert ("kaczmarz-gram-100x48", "rcdm", "off") in names
    assert ("penalty-30x8-stride30", "nu_acdm_ns", "off") in names
    assert ("ridge-30x8-stride1200", "nu_acdm", "off") in names
    assert ("fold-2x2-stride1", "nu_acdm", "full") in names
    assert ("fold-2x2-stride997", "nu_acdm_ns", "off") in names
    # then the drivers: 3 algos x 2 seeds, 2 x 2, 3 x 1 and 3 betas; then
    # one parsed LibSVM file, with "\n" and with "\r\n" line ends, which
    # read the same
    drivers = [tuple(cell[:3]) for cell in cells[len(solver_cells):]]
    assert [d[0] for d in drivers] == (["kaczmarz-race"] * 6 + ["erm-race-ridge"] * 4
                                       + ["erm-race-lasso"] * 3 + ["beta-sweep"] * 3
                                       + ["parse-libsvm", "parse-libsvm-crlf"])
    assert drivers[-2] == ("parse-libsvm", "parse_libsvm", "rows=48")
    assert cells[-1][1:] == cells[-2][1:]
    assert ("erm-race-ridge", "gd", "seed=1") in drivers
    assert ("beta-sweep", "nu-acdm-ns", "beta=0.5") in drivers
    for *_cell, digest, iters_digest in cells:
        for sha1 in (digest, iters_digest):
            assert len(sha1) == 40 and int(sha1, 16) >= 0
    # the iterations digest covers the record schedule alone, which many
    # cells share
    assert len({cell[4] for cell in solver_cells}) < len({cell[3] for cell in solver_cells})


def test_digests_cover_the_edge_cases_of_the_pair_path():
    """Scattered-row blocks form their repeat term at the repeat pairs,
    which an empty row has without any column pair, and the penalty's
    keeps_x sums there too: a spy over the solver cells at --epochs 2
    sees blocks that repeat an empty row and penalty blocks with repeats
    (20 and 8 of 248 when this test was written)."""
    spec = importlib.util.spec_from_file_location("trajectory_digest", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    seen = {"blocks": 0, "repeated empty row": 0, "penalty with repeats": 0}
    triangle = solvers._ScatteredRows.triangle

    def spy(self, model, coefs, below=None):
        tri = triangle(self, model, coefs, below)
        seen["blocks"] += 1
        step = np.arange(self.idx.size)
        t, _s = np.nonzero((self.idx[:, None] == self.idx) & (step[:, None] > step))
        if t.size:
            if self.empty is not None and self.empty[t].any():
                seen["repeated empty row"] += 1
            if model.keeps_x is not None:
                seen["penalty with repeats"] += 1
        return tri

    with mock.patch.object(solvers._ScatteredRows, "triangle", spy):
        for _cell in tool.cells(2):
            pass
    assert all(seen.values()), seen

"""tools/trajectory_digest.py, the parent/change identity check: two runs
print the same full and iterations digests for every (problem, solver,
check level) cell and for every trace of the bench experiments."""

import pathlib
import subprocess
import sys

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
    # duals and 2 on 2 penalty duals; then 4 solvers on the folding 2 x 2
    # system at a stride of 1 at 3 check levels and unchecked at strides of
    # 64 and 997
    assert len(solver_cells) == ((9 * 5 + 3 * 2 + 3) * 3 + 2 + 4 * 5 + 2 * 2
                                 + 4 * (3 + 2))
    names = {tuple(cell[:3]) for cell in solver_cells}
    assert ("linsys-scattered-stride64", "kaczmarz", "off") in names
    assert ("lasso-mixed-stride64", "nu_acdm", "off") in names
    assert ("ridge-scattered-stride64", "rcdm", "off") in names
    assert ("penalty-mixed-stride64", "nu_acdm_ns", "off") in names
    assert ("fold-2x2-stride1", "nu_acdm", "full") in names
    assert ("fold-2x2-stride997", "nu_acdm_ns", "off") in names
    # then the drivers: 3 algos x 2 seeds, 2 x 2, 3 x 1 and 3 betas; then
    # one parsed LibSVM file
    drivers = [tuple(cell[:3]) for cell in cells[len(solver_cells):]]
    assert [d[0] for d in drivers] == (["kaczmarz-race"] * 6 + ["erm-race-ridge"] * 4
                                       + ["erm-race-lasso"] * 3 + ["beta-sweep"] * 3
                                       + ["parse-libsvm"])
    assert drivers[-1] == ("parse-libsvm", "parse_libsvm", "rows=48")
    assert ("erm-race-ridge", "gd", "seed=1") in drivers
    assert ("beta-sweep", "nu-acdm-ns", "beta=0.5") in drivers
    for *_cell, digest, iters_digest in cells:
        for sha1 in (digest, iters_digest):
            assert len(sha1) == 40 and int(sha1, 16) >= 0
    # the iterations digest covers the record schedule alone, which many
    # cells share
    assert len({cell[4] for cell in solver_cells}) < len({cell[3] for cell in solver_cells})

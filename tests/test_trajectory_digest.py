"""tools/trajectory_digest.py, the parent/change identity check: two runs
print the same digest for every (problem, solver, check level) cell."""

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
    # 12 problems: 9 strongly convex with 5 solvers, 3 penalty duals with 2,
    # plus kaczmarz on 3 systems; each at 3 check levels
    assert len(cells) == (9 * 5 + 3 * 2 + 3) * 3
    assert len({tuple(cell[:3]) for cell in cells}) == len(cells)
    for _problem, _solver, level, digest in cells:
        assert level in ("off", "cheap", "full")
        assert len(digest) == 40 and int(digest, 16) >= 0

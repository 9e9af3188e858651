"""The check suite's plumbing: run_all reports every check, under the
names `nucd check` prints, even when one raises, and
check_schedule_identities tests the schedules the solvers run, not a copy
of their formulas."""

import inspect

import pytest

from nucd import checks, solvers
from nucd.cli import main
from nucd.problems import ConvergenceError


def check_passing():
    return True, "fine"


def check_violated_guarantee():
    raise solvers.InvariantViolation("nu-acdm: z-step residual 1e-03 at iteration 4")


def check_not_converged():
    raise ConvergenceError("no record settled within 20000 epochs")


_SUITE = (check_passing, check_violated_guarantee, check_passing,
          check_not_converged, check_passing)


def test_run_all_fails_a_raising_check_and_runs_the_rest(monkeypatch):
    monkeypatch.setattr(checks, "ALL_CHECKS", _SUITE)
    lines = []
    results = checks.run_all(report=lines.append)
    assert [r.passed for r in results] == [True, False, True, False, True]
    assert [r.name for r in results] == [
        "passing", "violated-guarantee", "passing", "not-converged", "passing"]
    assert results[1].detail == (
        "InvariantViolation: nu-acdm: z-step residual 1e-03 at iteration 4")
    assert results[3].detail == (
        "ConvergenceError: no record settled within 20000 epochs")
    assert lines == [r.line() for r in results]


def test_check_command_prints_every_line_and_the_summary(monkeypatch, capsys):
    monkeypatch.setattr(checks, "ALL_CHECKS", _SUITE)
    assert main(["check"]) == 2
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in out[:-1]] == [
        ["PASS", "passing"], ["FAIL", "violated-guarantee"], ["PASS", "passing"],
        ["FAIL", "not-converged"], ["PASS", "passing"]]
    assert out[-1] == "3/5 checks passed"


def test_battery_checks_fail_by_name_when_the_battery_raises(monkeypatch):
    """Both checks that read the fully checked battery fail, each under
    its own name, when a run in it violates a guarantee."""
    def battery():
        raise solvers.InvariantViolation("rcdm: coordinate descent guarantee violated")

    monkeypatch.setattr(checks, "_fully_checked_runs", battery)
    monkeypatch.setattr(checks, "ALL_CHECKS", (checks.check_per_step_descent,
                                               checks.check_mirror_step_residuals))
    results = checks.run_all(report=None)
    assert [(r.name, r.passed) for r in results] == [
        ("per-step-descent", False), ("mirror-step-residuals", False)]
    assert all("coordinate descent guarantee violated" in r.detail for r in results)


# what `nucd check` prints: a check's name comes from its function, so
# renaming the function renames the line
SUITE = ("ns-convergence-bound", "sc-convergence-decay", "per-step-descent",
         "mirror-step-residuals", "schedule-identities", "speedup-table",
         "kaczmarz-race", "gradients-and-conjugates", "ridge-duality",
         "beta-sweep", "specialization-and-determinism", "kaczmarz-rate")


def test_the_suite_is_the_twelve_checks_in_order(monkeypatch):
    assert [fn.__name__ for fn in checks.ALL_CHECKS] == [
        "check_" + name.replace("-", "_") for name in SUITE]
    assert set(checks.ALL_CHECKS) == {
        fn for name, fn in vars(checks).items() if name.startswith("check_")}

    # stand-ins named and signed as the checks, which pass at once and
    # record what reached them
    given = {}

    def stand_in(fn):
        def quick(**kwargs):
            given[fn.__name__] = kwargs
            return True, ""
        quick.__name__, quick.__signature__ = fn.__name__, inspect.signature(fn)
        return quick

    monkeypatch.setattr(checks, "ALL_CHECKS", [stand_in(fn) for fn in checks.ALL_CHECKS])
    assert [r.name for r in checks.run_all(jobs=3, report=None)] == list(SUITE)
    assert {k: v for k, v in given.items() if v} == {
        "check_kaczmarz_race": {"jobs": 3}, "check_beta_sweep": {"jobs": 3}}


def _accel_eta_off(rate, sigma):
    tau, eta = solvers.accel_schedule(rate, sigma)
    return tau, eta * (1.0 + 1e-6)


def _ns_eta_off(k, s_sq):
    eta, tau = solvers.ns_schedule(k, s_sq)
    return eta * (1.0 + 1e-6), tau


@pytest.mark.parametrize("name, broken", [("accel_schedule", _accel_eta_off),
                                          ("ns_schedule", _ns_eta_off)])
def test_schedule_identities_check_reads_the_solvers_schedules(monkeypatch, name, broken):
    """An eta off by one part in a million in either schedule fails the check."""
    assert checks.check_schedule_identities()[0]
    monkeypatch.setattr(checks, name, broken)
    passed, detail = checks.check_schedule_identities()
    assert not passed, detail

"""Acceptance gate: every advertised guarantee, one test per criterion.

Each test runs the same check the `nucd check` CLI runs and prints its
PASS/FAIL line, so `pytest -v tests/test_acceptance.py` is the package's
sign-off run.  Tolerances live inside the checks; nothing here relaxes
them.
"""

import pytest

from nucd import checks


@pytest.mark.parametrize(
    "check_fn", checks.ALL_CHECKS, ids=lambda fn: fn.__name__.removeprefix("check_")
)
def test_acceptance(check_fn):
    result = checks.run_check(check_fn)
    print(result.line())
    assert result.passed, result.line()

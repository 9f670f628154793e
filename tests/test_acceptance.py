"""Acceptance suite: every criterion at its stated tolerance and budget.

Each test prints one PASS/FAIL line; `recipgas paper-suite` runs the same
checks from the command line.  The report of every criterion but 9 must
equal its recorded JSON in data/paper_suite_exact.json, so a refactor that
changes a verdict, a residual or a rendered expression fails here.
Criterion 7's floating-point text comes only from mpmath and Python
floats, so it is stable; criterion 9's goes through numpy and is not
pinned.
"""

import json
import time
from pathlib import Path

import pytest

from recipgas.accept import ALL_CRITERIA, criterion_9

BUDGET_SECONDS = {
    "1": 5, "2": 5, "3": 5, "4": 60, "5": 10,
    "6": 10, "7": 30, "8": 30, "9": 10, "10": 10,
}
EXACT_REPORTS = json.loads((Path(__file__).parent / "data" /
                            "paper_suite_exact.json").read_text())


@pytest.mark.parametrize("num, fn", ALL_CRITERIA, ids=[n for n, _ in
                                                       ALL_CRITERIA])
def test_criterion(num, fn, capsys):
    start = time.monotonic()
    report = fn()
    elapsed = time.monotonic() - start
    with capsys.disabled():
        print("\n%-4s criterion %-2s (%5.2fs)  %s"
              % (report.verdict, num, elapsed, report.title))
    assert report.passed, report.to_text()
    if num in EXACT_REPORTS:
        assert report.to_json_dict() == EXACT_REPORTS[num]
    assert elapsed < BUDGET_SECONDS[num], (
        "criterion %s exceeded its %ds budget: %.1fs"
        % (num, BUDGET_SECONDS[num], elapsed))


def test_criterion_9_detail_is_plain_floats():
    # the first detail is a dict of Python floats: its text does not
    # depend on how the installed numpy prints its scalars
    detail = criterion_9().items[0].detail
    assert "np." not in detail
    assert detail == "{'u': 1.0, 'v': 0.0, 'p': -1.0, 'rho': 0.5}"

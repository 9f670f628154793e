"""Acceptance suite: every criterion at its stated tolerance and budget.

Each test prints one PASS/FAIL line; `recipgas paper-suite` runs the same
checks from the command line.  The report of every criterion but 9 must
equal its recorded JSON in data/paper_suite_exact.json, so a refactor that
changes a verdict, a residual or a rendered expression fails here.
Criterion 7 decides the Lie equation and composition additivity exactly,
so its report holds no floating-point text; criterion 9's goes through
numpy and is not pinned.
"""

import json
import time
from pathlib import Path

import pytest

from recipgas import accept
from recipgas.accept import ALL_CRITERIA, criterion_9
from recipgas.liealg import standard_basis

BUDGET_SECONDS = {
    "1": 5, "2": 5, "3": 5, "4": 10, "5": 10,
    "6": 10, "7": 10, "8": 10, "9": 10, "10": 10,
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


def test_center_check_fails_on_a_noncommuting_pair(monkeypatch):
    # the direct commutator check is a verdict: one central element that
    # fails to commute fails it
    real = accept.commutator
    calls = []

    def first_nonzero(g, b):
        calls.append((g, b))
        return standard_basis(g.ctx)[2] if len(calls) == 1 else real(g, b)

    monkeypatch.setattr(accept, "commutator", first_nonzero)
    report = accept.criterion_2()
    checks = {i.name: i.passed for i in report.items}
    assert checks["central element commutes"] is False
    assert checks["center re-verified by direct commutators"] is False
    assert not report.passed

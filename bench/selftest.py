"""Self-test of the verdict checks: one wrong expectation gives exactly one
wrong verdict.

    python3 bench/selftest.py

Runs one pass of the algebra workload at the default seed twice: with the
known-answer table as committed (expects 0 wrong verdicts) and with the
ansatz dimension changed from 7 to 8 (expects exactly 1, the ansatz item).
Exits 0 when both hold.
"""

from __future__ import annotations

import copy
import io
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import workloads  # noqa: E402
from worker import run_pass  # noqa: E402


def wrong_items(items, answers):
    log = io.StringIO()
    _, records = run_pass(items, answers, log)
    failed = [i.name for i, r in zip(items, records) if r[-1] == "failed"]
    if failed:
        raise SystemExit("selftest: items raised: %s\n%s"
                         % (failed, log.getvalue()))
    return [i.name for i, r in zip(items, records) if r[-1] == "wrong"]


def main():
    items = workloads.build_items("algebra", workloads.DEFAULT_SEED)
    answers = workloads.load_answers()
    broken = copy.deepcopy(answers)
    broken["ansatz"]["dimension"] = 8
    clean = wrong_items(items, answers)
    flipped = wrong_items(items, broken)
    print("committed table: wrong_verdicts = %d %s" % (len(clean), clean))
    print("ansatz dimension 8: wrong_verdicts = %d %s"
          % (len(flipped), flipped))
    ok = clean == [] and flipped == ["paper/ansatz"]
    print("selftest %s" % ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""One workload in one process; started by run.py, never by hand.

Protocol on stdout: the line READY once set-up is done (imports, a
standard context, the seeded item list), then one line RESULT <json>,
which starts with the host reference measured right after READY.
Modes:
    setup   stop there
    run     closed loop: whole passes over the items, one item at a time,
            at least MIN_PASSES of them, then until the next pass would
            end after --seconds; the host reference (hostref.py) is
            sampled throughout
    trace   one untraced and one traced pass, in either order (with
            --spans, the spans are written there)
Item failures and tracebacks go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import traceback
from time import perf_counter

import hostref
import recipgas
import workloads
from recipgas.gasdyn import standard_context

MIN_PASSES = 2


def _versions():
    import mpmath
    import numpy

    from recipgas.symkernel.poly import QQ
    try:
        import gmpy2  # noqa: F401
        gmpy2_present = True
    except ImportError:
        gmpy2_present = False
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "mpmath": mpmath.__version__, "gmpy2": gmpy2_present,
            "QQ": "%s.%s" % (QQ.__module__, QQ.__qualname__)}


def run_pass(items, answers, log):
    """Run every item once; returns (elapsed, [(start, end, status)])."""
    records = []
    start = perf_counter()
    for item in items:
        t0 = perf_counter()
        try:
            workloads.run_item(item, answers)
            status = "ok"
        except workloads.WrongVerdict as exc:
            status = "wrong"
            print("WRONG %s: %s" % (item.name, exc), file=log)
        except Exception:
            status = "failed"
            print("FAILED %s" % item.name, file=log)
            traceback.print_exc(file=log)
        records.append((t0, perf_counter(), status))
    return perf_counter() - start, records


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"),
                    required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--spans", default="")
    ap.add_argument("--traced-first", action="store_true")
    args = ap.parse_args(argv)

    standard_context()
    answers = workloads.load_answers()
    items = workloads.build_items(args.workload, args.seed)
    print("READY", flush=True)
    out = {"setup_reference_s": hostref.reference_seconds()}
    if args.mode == "setup":
        print("RESULT " + json.dumps(out), flush=True)
        return 0

    out.update({"recipgas": os.path.dirname(recipgas.__file__),
                "versions": _versions(), "items": [i.name for i in items]})
    log = sys.stderr
    if args.mode == "run":
        passes, raw = [], []
        start = perf_counter()
        with hostref.HostReference() as ref:
            while True:
                wall, recs = run_pass(items, answers, log)
                passes.append(wall)
                raw.append(recs)
                elapsed = perf_counter() - start
                if len(passes) >= MIN_PASSES and \
                        elapsed + statistics.median(passes) > args.seconds:
                    break
        # per item: net seconds (reference sampling removed), the same
        # span in host-reference units, and the verdict status
        out["records"] = [[(b - a - ref.sampling_time(a, b),
                            ref.ref_units(a, b), status)
                           for a, b, status in recs] for recs in raw]
        out["reference_s"] = statistics.median(ref.durations)
        out["reference_samples"] = len(ref.durations)
    else:
        import tracer
        tr = tracer.Tracer()

        def traced_pass():
            tr.install()
            try:
                return run_pass(items, answers, log)
            finally:
                tr.uninstall()

        def plain_pass():
            return run_pass(items, answers, log)

        # --traced-first swaps the order, so that warm-up costs of the
        # first pass fall on the traced side in one child and on the
        # untraced side in the other
        order = (traced_pass, plain_pass) if args.traced_first \
            else (plain_pass, traced_pass)
        results = {fn: fn() for fn in order}
        wall, recs = results[plain_pass]
        twall, trecs = results[traced_pass]
        out["passes"] = [wall]
        out["records"] = [[(b - a, None, status) for a, b, status in r]
                          for r in (recs, trecs)]
        out["traced_wall_s"] = twall
        out["layers"] = tr.summary(twall)
        if args.spans:
            tr.write_spans(args.spans)
    out["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print("RESULT " + json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

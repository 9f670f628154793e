"""Verdict benchmark for recipgas.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout (it needs src/recipgas).  Every
workload runs in its own child process (bench/worker.py) with
PYTHONHASHSEED=0 and one BLAS/OpenMP thread.  With --trace 0 it reports
the end-to-end metrics of BENCHMARK.json: set-up time (median over
several fresh processes, at the nominal host speed), and the pass time,
median verdict time and verdict tail in host-reference units, and peak
RSS.  With --trace 1 it runs two
traced children, checks that their per-function call counts agree, and
reports the per-layer metrics.  The last line of stdout is one JSON
object: correct, attempted, failed, metrics.  bench/README.md describes
the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
from time import perf_counter

from hostref import NOMINAL_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("reciprocity", "algebra", "transform", "lie-flow")
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(args, deadline):
    """Run a worker; returns (seconds until READY, result dict or None)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + args
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(),
                            cwd=ROOT, text=True)
    # the watchdog ends a worker that outlives the run's deadline
    watchdog = threading.Timer(max(0.0, deadline - t0), proc.kill)
    watchdog.start()
    try:
        ready_s, result = None, None
        for line in proc.stdout:
            if line.startswith("READY") and ready_s is None:
                ready_s = perf_counter() - t0
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or ready_s is None:
        raise BenchError("worker %s exited with %s" % (args, proc.returncode))
    return ready_s, result


def tail_percentile(items):
    """Highest integer percentile of the items with at least five items
    above it: ten verdicts in two passes, the fewest a run makes."""
    return math.floor(100 * (items - 5) / items)


def percentile(samples, pct):
    """Nearest-rank percentile."""
    xs = sorted(samples)
    return xs[max(1, math.ceil(pct * len(xs) / 100)) - 1]


def count(records):
    attempted = sum(len(p) for p in records)
    wrong = sum(r[-1] == "wrong" for p in records for r in p)
    failed = sum(r[-1] == "failed" for p in records for r in p)
    return attempted, wrong, failed


def end_to_end(base, seconds, deadline):
    # set-up samples come before and after the measured run, so that they
    # see the host at two different times
    setups = [spawn(base + ["--mode", "setup"], deadline)
              for _ in range(SETUP_SAMPLES // 2)]
    setups.append(spawn(base + ["--mode", "run", "--seconds", str(seconds)],
                        deadline))
    res = setups[-1][1]
    setups += [spawn(base + ["--mode", "setup"], deadline)
               for _ in range(SETUP_SAMPLES - len(setups))]
    # set-up seconds scaled to the nominal host speed (see hostref.py)
    setup_s = statistics.median(
        ready * NOMINAL_S / r["setup_reference_s"] for ready, r in setups)
    recs = res["records"]
    n = len(res["items"])
    # each item's median over the passes, in seconds and in ref units
    secs = [statistics.median(p[i][0] for p in recs) for i in range(n)]
    refs = [statistics.median(p[i][1] for p in recs) for i in range(n)]
    pct = tail_percentile(n)
    attempted, wrong, failed = count(recs)
    metrics = {
        "setup_s": setup_s,
        "wall_ref": statistics.median(sum(r[1] for r in p) for p in recs),
        "verdict_p50_ref": statistics.median(refs),
        "verdict_tail_ref": percentile(refs, pct),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    print("passes: %d, items per pass: %d" % (len(recs), n))
    print("host reference: median %.6f s over %d samples"
          % (res["reference_s"], res["reference_samples"]))
    print("in seconds: setup_s %.4f, wall_s %.4f, verdict_p50_s %.4f, "
          "verdict_tail_s %.4f" % (
              statistics.median(ready for ready, _ in setups),
              statistics.median(sum(r[0] for r in p) for p in recs),
              statistics.median(secs), percentile(secs, pct)))
    print("verdict tails are p%d over %d items (%d above), %d verdicts "
          "in all" % (pct, n, n - math.ceil(pct * n / 100), attempted))
    report(res, wrong, failed, attempted)
    return metrics, attempted, wrong, failed


def report(res, wrong, failed, attempted):
    if os.path.dirname(res["recipgas"]) != os.path.join(ROOT, "src"):
        raise BenchError("worker imported recipgas from %s" % res["recipgas"])
    print("wrong_verdicts: %d" % wrong)
    print("failed_share: %.4f (%d of %d)" % (failed / attempted, failed,
                                              attempted))
    print("versions: %s" % json.dumps(res["versions"], sort_keys=True))


def per_layer(base, wl, deadline):
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    spans = os.path.join(out_dir, "spans-%s.npz" % wl)
    _, first = spawn(base + ["--mode", "trace", "--spans", spans], deadline)
    _, second = spawn(base + ["--mode", "trace", "--traced-first"],
                      deadline)
    layers = first["layers"]
    calls = {k: v for k, v in layers.items() if k.endswith(".calls")}
    repeat = calls == {k: v for k, v in second["layers"].items()
                       if k.endswith(".calls")}
    untraced = first["passes"][0] + second["passes"][0]
    traced = first["traced_wall_s"] + second["traced_wall_s"]
    layers["trace_overhead"] = traced / untraced
    records = first["records"] + second["records"]
    attempted, wrong, failed = count(records)
    wall = layers["traced_wall_s"]
    print("untraced passes %.3f s, traced passes %.3f s; %d spans of the "
          "first traced pass written to %s" % (untraced, traced,
                                               layers["spans"],
                                               os.path.relpath(spans, ROOT)))
    print("call counts repeat across two traced runs: %s"
          % ("yes" if repeat else "NO"))
    print("self time in the first traced pass (%.3f s):" % wall)
    print("%-36s %9s %9s %6s %9s %6s" % ("span", "calls", "self_s", "share",
                                          "incl_s", "share"))
    names = [k[:-len(".calls")] for k in calls]
    for name in sorted(names, key=lambda n: -layers[n + ".self_s"]):
        self_s, incl_s = layers[name + ".self_s"], layers[name + ".incl_s"]
        print("%-36s %9d %9.4f %5.1f%% %9.4f %5.1f%%" % (
            name, layers[name + ".calls"], self_s, 100 * self_s / wall,
            incl_s, 100 * incl_s / wall))
    for name in (k[:-len(".self_s")] for k in layers
                 if k.endswith(".self_s") and k.count(".") == 1):
        self_s = layers[name + ".self_s"]
        print("%-36s %9s %9.4f %5.1f%%" % (name, "", self_s,
                                          100 * self_s / wall))
    print("%-36s %9s %9.4f %5.1f%%" % ("(uncovered)", "",
                                      layers["uncovered_s"],
                                      100 * layers["uncovered_s"] / wall))
    print("errors by layer: %s" % (layers["errors"] or "none"))
    report(first, wrong, failed, attempted)
    return layers, attempted, wrong, failed, repeat


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if not os.path.isfile(os.path.join(ROOT, "src", "recipgas",
                                       "__init__.py")):
        print("bench: no src/recipgas under %s; run from a source checkout"
              % ROOT, file=sys.stderr)
        return 2

    deadline = perf_counter() + CHILD_TIMEOUT_S
    print("machine: %s" % json.dumps({
        "nproc": os.cpu_count(), "loadavg_1m": os.getloadavg()[0],
        "python": sys.version.split()[0]}))
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        if args.trace:
            values, attempted, wrong, failed, repeat = per_layer(
                base, args.workload, deadline)
            wanted = spec["per_layer"]
        else:
            values, attempted, wrong, failed = end_to_end(
                base, args.seconds, deadline)
            repeat = True
            wanted = spec["end_to_end"]
    except BenchError as exc:
        print("bench: %s" % exc, file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": wrong == 0 and failed == 0 and repeat,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

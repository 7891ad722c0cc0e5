#!/usr/bin/env python3
"""The sharpie benchmark: builds the benchmark package from the checkout's
sources, runs one workload and prints its result line.

Run from the root of a checkout:

  python3 perfbench/run.py --workload paper_cold --seed 1 --seconds 50 --trace 0

Workloads: paper_cold, search_parallel, serve_mixed (see perfbench/README.md).
The last line of stdout is the result: {"correct", "attempted", "failed",
"metrics"}; the lines before it give one row per protocol or request class.
--trace 1 prints the per-layer metrics instead of the end-to-end ones and
writes the benchmark's own spans as a Chrome trace under the work directory.

Tools around the same build:

  --dry-run --seed N           print the seeded serve_mixed request stream
  --check-edits                re-derive perfbench/protocols/edits.txt
  --steadiness W [--runs 10]   run W on RUNS seeds, report each metric's
                               median and quartiles, flag unresolved ones
  --compare DIR_A DIR_B        compare two sets of saved runs row by row

Build products and scratch files go to $CARGO_TARGET_DIR (default
.bench_build) inside the checkout.
"""

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, d) if not os.path.isabs(d) else d


def build():
    """Configures and builds the package; returns its binary directory."""
    out = os.path.join(build_dir(), "perfbench")
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", str(os.cpu_count() or 1)])
    with open(log_path, "a") as log:
        for cmd in steps:
            r = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT)
            if r.returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                sys.stderr.write("error: build failed: %s\n" % " ".join(cmd))
                sys.exit(1)
    return out


def bench_cmd(bindir, extra):
    work = os.path.join(build_dir(), "work")
    os.makedirs(work, exist_ok=True)
    return [os.path.join(bindir, "sharpie_bench"), "--bin-dir", bindir,
            "--work-dir", work, "--data-dir",
            os.path.join(HERE, "protocols")] + extra


def run_once(bindir, workload, seed, seconds, trace, capture=False):
    cmd = bench_cmd(bindir, ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace",
                             str(trace)])
    # Its own session, so a timeout takes down the daemons it spawned too.
    p = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True,
                         stdout=subprocess.PIPE if capture else None)
    try:
        out, _ = p.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        sys.stderr.write("error: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1, ""
    return p.returncode, out.decode() if capture else ""


def result_of(text):
    lines = [l for l in text.splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def rows_of(text):
    return [json.loads(l) for l in text.splitlines()
            if l.startswith('{"row"')]


def manifest():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def steadiness(bindir, workload, runs, seconds, outdir, first_seed):
    """Runs WORKLOAD on RUNS seeds; reports median, quartiles and spread
    (IQR / median) of every end-to-end metric against its bound."""
    bounds = {m["name"]: m["bound"] for m in manifest()["end_to_end"]}
    values = {}
    os.makedirs(outdir, exist_ok=True)
    failed = 0
    for i in range(runs):
        seed = first_seed + i
        rc, out = run_once(bindir, workload, seed, seconds, 0, capture=True)
        with open(os.path.join(outdir, "%s-%d.out" % (workload, seed)),
                  "w") as f:
            f.write(out)
        res = result_of(out) if rc == 0 else None
        if not res or not res["correct"]:
            failed += 1
            print("run seed=%d: rc=%d correct=%s" %
                  (seed, rc, res and res["correct"]), flush=True)
            continue
        for k, m in res["metrics"].items():
            values.setdefault(k, []).append(m["value"])
        print("run seed=%d: %s" % (seed, " ".join(
            "%s=%.4g" % (k, m["value"]) for k, m in res["metrics"].items())),
            flush=True)
    print("\nworkload %s, nproc %d, %d runs (%d failed), %s s each" %
          (workload, os.cpu_count() or 1, runs, failed, seconds))
    print("%-20s %12s %12s %12s %8s %6s  %s" %
          ("metric", "q1", "median", "q3", "spread", "bound", "status"))
    unresolved = 0
    for k, v in values.items():
        q1, med, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (
            v[0], v[0], v[0])
        spread = (q3 - q1) / med if med else float("inf")
        b = bounds.get(k)
        status = "ok"
        if b is not None and spread > b:
            status = "UNRESOLVED"
            unresolved += 1
        elif b is not None and k != "setup_s" and spread > b / 3:
            status = "ok (> bound/3)"
        print("%-20s %12.5g %12.5g %12.5g %8.4f %6s  %s" %
              (k, q1, statistics.median(v), q3, spread,
               "-" if b is None else b, status))
    return 1 if failed or unresolved else 0


def load_runs(d):
    runs = []
    for name in sorted(os.listdir(d)):
        if name.endswith(".out"):
            with open(os.path.join(d, name)) as f:
                text = f.read()
            res = result_of(text)
            if res:
                runs.append((rows_of(text), res))
    return runs


def compare(dir_a, dir_b):
    """Per-row median-latency ratios B/A, their geometric mean per
    workload, and each end-to-end metric's median ratio vs its bound."""
    a, b = load_runs(dir_a), load_runs(dir_b)
    if not a or not b:
        sys.stderr.write("error: no saved runs in one of the directories\n")
        return 1

    def row_medians(runs):
        acc = {}
        for rows, _ in runs:
            for r in rows:
                acc.setdefault((r["workload"], r["row"]), []).append(
                    r.get("p50_scaled_ms", r["p50_ms"]))
        return {k: statistics.median(v) for k, v in acc.items()}

    ra, rb = row_medians(a), row_medians(b)
    logs = {}
    print("%-16s %-22s %12s %12s %8s" % ("workload", "row", "A p50 ms",
                                          "B p50 ms", "B/A"))
    for k in sorted(set(ra) & set(rb)):
        ratio = rb[k] / ra[k] if ra[k] > 0 else float("nan")
        if ra[k] > 0 and rb[k] > 0:
            logs.setdefault(k[0], []).append(math.log(ratio))
        print("%-16s %-22s %12.4f %12.4f %8.3f" % (k[0], k[1], ra[k], rb[k],
                                                   ratio))
    for w, l in sorted(logs.items()):
        print("geomean B/A over %d rows of %s: %.4f" %
              (len(l), w, math.exp(sum(l) / len(l))))
    spec = {m["name"]: m for m in manifest()["end_to_end"]}
    print("\n%-20s %12s %12s %8s %6s  %s" % ("metric", "A median",
                                             "B median", "B/A", "bound",
                                             "verdict"))
    for name, m in spec.items():
        va = [r["metrics"][name]["value"] for _, r in a
              if name in r["metrics"]]
        vb = [r["metrics"][name]["value"] for _, r in b
              if name in r["metrics"]]
        if not va or not vb:
            continue
        ma, mb = statistics.median(va), statistics.median(vb)
        worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
        q = statistics.quantiles(va, n=4) if len(va) > 1 else [ma, ma, ma]
        spread = (q[2] - q[0]) / ma if ma else 0
        if spread > m["bound"]:
            verdict = "unresolved (A spread %.3f)" % spread
        elif worse > m["bound"]:
            verdict = "REGRESSION"
        else:
            verdict = "within bound"
        print("%-20s %12.5g %12.5g %8.3f %6s  %s" %
              (name, ma, mb, mb / ma if ma else float("nan"), m["bound"],
               verdict))
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--dry-run", action="store_true")
    p.add_argument("--check-edits", action="store_true")
    p.add_argument("--steadiness", metavar="WORKLOAD")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--out", default=None)
    p.add_argument("--compare", nargs=2, metavar="DIR")
    args = p.parse_args()

    if args.compare:
        sys.exit(compare(*args.compare))
    bindir = build()
    seconds = args.seconds
    if seconds is None:
        seconds = manifest()["run_seconds"]
    if args.dry_run:
        r = subprocess.run(bench_cmd(bindir, ["--dry-run", "--seed",
                                              str(args.seed)]), cwd=ROOT)
        sys.exit(r.returncode)
    if args.check_edits:
        r = subprocess.run(bench_cmd(bindir, ["--check-edits"]), cwd=ROOT)
        sys.exit(r.returncode)
    if args.steadiness:
        out = args.out or os.path.join(build_dir(), "steadiness",
                                       args.steadiness)
        sys.exit(steadiness(bindir, args.steadiness, args.runs, seconds, out,
                            args.seed))
    if not args.workload:
        p.error("--workload is required")
    rc, _ = run_once(bindir, args.workload, args.seed, seconds, args.trace)
    sys.exit(rc)


if __name__ == "__main__":
    main()

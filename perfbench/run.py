#!/usr/bin/env python3
"""DECOR benchmark driver.

Builds the benchmark package (perfbench/, which compiles ../src) into
.bench_build/perfbench, then runs one workload for a fixed host-time
budget, one fresh decor_bench process per iteration, and prints one JSON
result object as the last line of stdout.

    python3 perfbench/run.py --workload voronoi_lossy_stream --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --check-cli --seed 1

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
alternates traced and untraced iterations and reports the per-layer
metrics, the span self times and the tracing overhead. See README.md in
this directory for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BENCH_BIN = os.path.join(BUILD, "decor_bench")
CLI_BIN = os.path.join(BUILD, "decor")

WORKLOADS = ("grid_paper", "voronoi_lossy_stream", "restore_offline",
             "voronoi_observed")
# The first iteration of every run warms the page cache and the CPU and
# is checked but not timed.
WARMUP = 1
MIN_TIMED = 2
# Stop starting iterations after this many seconds, whatever --seconds
# says, so a run always ends well inside three minutes.
HARD_LIMIT_S = 140.0
# The benchmark's own spans whose self time is a per-layer metric.
SELF_TIME_SPANS = ("iteration", "setup", "run", "verify")


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target"] +
                 list(targets))
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed (log: %s)" % log_path, 1)


def run_iteration(workload, seed, traced, timeout):
    """One decor_bench process. Returns its report, or None on a crash
    or timeout (which counts as a failed iteration)."""
    scratch = os.path.join(ROOT, ".bench_build", "scratch",
                           "%s-%d" % (workload, os.getpid()))
    cmd = [BENCH_BIN, "--workload", workload, "--seed", str(seed),
           "--scratch", scratch]
    if traced:
        cmd.append("--traced")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        print("iteration timed out after %.0f s" % timeout, file=sys.stderr)
        return None
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        print("iteration exited with %d" % proc.returncode, file=sys.stderr)
        return None
    rep = json.loads(proc.stdout.strip().splitlines()[-1])
    rep["traced"] = traced
    return rep


def run_iterations(workload, seed, seconds, traced_plan):
    """Runs iterations until the budget is spent. traced_plan(i) says
    whether iteration i is traced; at least WARMUP + MIN_TIMED run."""
    start = time.monotonic()
    reports = []
    while True:
        elapsed = time.monotonic() - start
        per_iter = elapsed / len(reports) if reports else 0.0
        n = len(reports)
        if n >= WARMUP + MIN_TIMED and elapsed + per_iter > seconds:
            break
        if n >= 2 and elapsed + per_iter > HARD_LIMIT_S:
            break
        reports.append(run_iteration(workload, seed, traced_plan(n),
                                     HARD_LIMIT_S + 30.0 - elapsed))
        if reports[-1] is None:
            break
    return reports


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def high_percentile(values):
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return None
    p = (n - 10) / n
    return p, sorted(values)[int(p * n) - 1]


def judge(reports):
    """Counts failed iterations and decides correctness. An iteration
    fails when it crashed, missed its goal, failed an output check, or
    produced deterministic outputs unlike the first iteration's."""
    ok = [r for r in reports if r is not None]
    correct = len(ok) == len(reports) and len(ok) > 0
    failed = len(reports) - len(ok)
    reference = ok[0]["outputs"] if ok else None
    for r in ok:
        mismatch = r["outputs"] != reference
        if mismatch:
            diff = sorted(k for k in set(r["outputs"]) | set(reference)
                          if r["outputs"].get(k) != reference.get(k))
            print("determinism: outputs differ from the first iteration: " +
                  ", ".join(diff), file=sys.stderr)
        for e in r["errors"]:
            print("check failed: " + e, file=sys.stderr)
        for e in r["failures"]:
            print("iteration failed: " + e, file=sys.stderr)
        if r["errors"] or mismatch:
            correct = False
        if r["errors"] or r["failures"] or mismatch:
            failed += 1
    return correct, failed


def span_self_times(spans):
    """Self time of each span: its duration minus its children's."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] += s["end"] - s["start"]
    out = {}
    for i, s in enumerate(spans):
        out.setdefault(s["name"], 0.0)
        out[s["name"]] += s["end"] - s["start"] - child[i]
    return out


def summary_row(workload, seed, timed):
    """The human-readable row: every end-to-end figure of the workload,
    including those that vary too much from seed to seed to gate."""
    walls = [r["wall_s"] for r in timed]
    q1, q3 = quartiles(walls)
    hp = high_percentile(walls)
    out = timed[0]["outputs"]
    fields = [
        ("workload", workload), ("seed", seed), ("samples", len(walls)),
        ("wall_s_median", "%.4f" % statistics.median(walls)),
        ("wall_s_q1", "%.4f" % q1), ("wall_s_q3", "%.4f" % q3),
        ("wall_s_high", "p%.0f=%.4f" % (hp[0] * 100, hp[1]) if hp
         else "n/a(<11 samples)"),
        ("setup_s", "%.5f" % statistics.median(r["setup_s"] for r in timed)),
        ("placed_nodes", out["placed_nodes"]),
        ("area_k_covered", out["area_k_covered"]),
    ]
    for key in ("convergence_sim_s", "radio_tx", "radio_rx", "goodput_Bps"):
        if key in out:
            fields.append((key, out[key]))
    if "explain_convergence_s" in out:
        explain = statistics.median(r["explain_s"] for r in timed)
        fields.append(("explain_s", "%.4f" % explain))
    return " ".join("%s=%s" % kv for kv in fields)


def end_to_end(spec, workload, seed, seconds):
    reports = run_iterations(workload, seed, seconds, lambda i: False)
    correct, failed = judge(reports)
    timed = [r for r in reports[WARMUP:] if r is not None]
    if not timed:
        return reports, correct, failed, None
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in timed),
        "ops_per_s": statistics.median(r["work"] / r["wall_s"] for r in timed),
        "peak_rss_mb": statistics.median(r["peak_rss_kb"] / 1024.0
                                         for r in timed),
        "placed_nodes": timed[0]["outputs"]["placed_nodes"],
        "area_k_covered": timed[0]["outputs"]["area_k_covered"],
    }
    print(summary_row(workload, seed, timed))
    return reports, correct, failed, metrics_from(spec["end_to_end"], values)


def traced(spec, workload, seed, seconds):
    # Iteration 0 is the untimed warm-up; then traced and untraced
    # alternate in pairs whose order flips, so drift hits both sides.
    def plan(i):
        if i == 0:
            return False
        pair, pos = divmod(i - 1, 2)
        return (pos == 0) == (pair % 2 == 0)

    reports = run_iterations(workload, seed, seconds, plan)
    correct, failed = judge(reports)
    timed = [r for r in reports[WARMUP:] if r is not None]
    on = [r for r in timed if r["traced"]]
    off = [r for r in timed if not r["traced"]]
    if not on or not off:
        return reports, correct, failed, None
    values = {}
    for name in on[0]["layers"]:
        values[name] = statistics.median(r["layers"][name] for r in on)
    selfs = [span_self_times(r["spans"]) for r in on]
    for name in SELF_TIME_SPANS:
        values["trace.self_s." + name] = statistics.median(
            s.get(name, 0.0) for s in selfs)
    wall_on = statistics.median(r["wall_s"] for r in on)
    wall_off = statistics.median(r["wall_s"] for r in off)
    values["trace.wall_s.traced"] = wall_on
    values["trace.wall_s.untraced"] = wall_off
    values["trace.overhead_s"] = wall_on - wall_off
    out_dir = os.path.join(ROOT, ".bench_build", "traces")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "%s-seed%d.json" % (workload, seed))
    with open(path, "w") as f:
        json.dump({"workload": workload, "seed": seed,
                   "iterations": [{"spans": r["spans"],
                                   "self_s": span_self_times(r["spans"])}
                                  for r in on]}, f, indent=1)
    print("spans: %s (%d traced, %d untraced iterations)"
          % (os.path.relpath(path, ROOT), len(on), len(off)))
    for name, v in sorted(selfs[0].items(), key=lambda kv: -kv[1]):
        print("self_s %-40s %.6f" % (name, v))
    return reports, correct, failed, metrics_from(spec["per_layer"], values)


def metrics_from(declared, values):
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        fail("no value for declared metrics: " + ", ".join(missing), 1)
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared}


SIM_PAIRS = {"placed_nodes": "placed_nodes", "radio_tx": "radio_tx",
             "radio_rx": "radio_rx", "convergence_sim_s": "finish_time",
             "end_sim_s": "end_time", "arq_sent": "arq_sent",
             "arq_retx": "arq_retx", "arq_gave_up": "arq_gave_up",
             "data_delivered": "readings_delivered",
             "data_originated": "readings_originated",
             "goodput_Bps": "goodput_bytes_per_s"}
RESTORE_ARGS = ["restore", "--side=600", "--points=72000", "--initial=3600",
                "--k=3", "--failure=area", "--radius=90"]
# The decor CLI command each workload equals, with the benchmark output
# that must match each field of the CLI's --json report.
CLI_EQUIVALENTS = {
    "grid_paper": [(["sim", "--scheme=grid"], SIM_PAIRS)],
    "voronoi_lossy_stream": [
        (["sim", "--scheme=voronoi", "--loss=0.2", "--burst=4", "--window=4",
          "--load=1", "--linger=60"], SIM_PAIRS)],
    "restore_offline": [
        (RESTORE_ARGS + ["--scheme=" + s],
         {s + ".deploy_placed": "deploy_placed_nodes",
          s + ".killed": "killed_nodes",
          s + ".restore_placed": "restore_placed_nodes"})
        for s in ("centralized", "grid", "voronoi")],
    "voronoi_observed": [
        (["sim", "--scheme=voronoi", "--side=50", "--points=500", "--initial=5",
          "--loss=0.1", "--run-time=60", "--linger=60"], SIM_PAIRS)],
}


def check_cli(seed):
    """Runs the user-facing decor CLI and the benchmark on the same seed
    and compares every deterministic output both report."""
    build(["decor_bench", "decor_cli_ref"])
    ok = True
    json_path = os.path.join(BUILD, "cli-check.json")
    for workload, commands in CLI_EQUIVALENTS.items():
        rep = run_iteration(workload, seed, False, HARD_LIMIT_S)
        ok = ok and rep is not None
        for args, pairs in commands:
            subprocess.run([CLI_BIN] + args + ["--seed=%d" % seed,
                                               "--json=" + json_path],
                           cwd=ROOT, stdout=subprocess.DEVNULL)
            with open(json_path) as f:
                cli = json.load(f)["report"]
            for ours, theirs in pairs.items():
                if theirs not in cli:
                    continue
                mine = rep["outputs"][ours] if rep else None
                same = mine == cli[theirs]
                ok = ok and same
                print("%-22s %-28s bench=%-20s cli=%-20s %s" % (
                    workload, ours, mine, cli[theirs],
                    "ok" if same else "MISMATCH"))
    os.remove(json_path)
    print("cli equivalence: " + ("pass" if ok else "FAIL"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--check-cli", action="store_true",
                    help="compare the sim workloads with the decor CLI")
    args = ap.parse_args()
    if args.check_cli:
        return check_cli(args.seed)
    if args.workload is None:
        ap.error("--workload is required")
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    build(["decor_bench"])
    run = traced if args.trace else end_to_end
    reports, correct, failed, metrics = run(spec, args.workload, args.seed,
                                            seconds)
    if metrics is None:
        fail("no iteration completed", 1)
    print(json.dumps({"correct": correct, "attempted": len(reports),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

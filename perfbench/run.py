#!/usr/bin/env python3
"""Build and run the daemon benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout of the repository.  The first call
builds the benchmark and the libraries it links from source with dune,
into .bench_build/; every run then works in a fresh scratch directory
under .bench_build/runs/ and removes it when done.  The last line of
standard output is one JSON object: correct, attempted, failed and
metrics (the end-to-end metrics with --trace 0, the per-layer ones with
--trace 1).  With --workload all, every workload of BENCHMARK.json runs
in turn and each metric prints on a line of its own, with its unit.
BENCHMARK.json at the root names the workloads and metrics;
perfbench/NOTES.md explains them.
"""

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "dune", "default", "perfbench", "spebench.exe")
# The compilers' and the benchmark's temporary files stay in the checkout.
TMP_DIR = os.path.join(BUILD_DIR, "tmp")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    for needed in ("dune-project", os.path.join("lib", "serve"), os.path.join("perfbench", "dune")):
        if not os.path.exists(needed):
            fail("%s not found: run from the root of a full checkout" % needed)
    dune = shutil.which("dune")
    if dune is None:
        fail("dune is not on PATH")
    os.makedirs(TMP_DIR, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=os.path.abspath(TMP_DIR))
    cmd = [dune, "build", "--root", ".", "--build-dir", os.path.abspath(os.path.join(BUILD_DIR, "dune")),
           "--profile", "release", "./perfbench/spebench.exe"]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if done.returncode != 0:
        fail("build failed")


def stop_group(proc):
    """Kill the benchmark's whole process group and wait until it is empty."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.time() + 10
    while time.time() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_exe(args, timeout=RUN_TIMEOUT_S):
    """Run the benchmark executable in a fresh scratch directory; return (exit code, stdout lines)."""
    runs = os.path.join(BUILD_DIR, "runs")
    os.makedirs(runs, exist_ok=True)
    work = os.path.join(runs, "%d-%d" % (os.getpid(), int(time.time() * 1e6)))
    os.makedirs(work)
    spans = os.path.join(BUILD_DIR, "spans")
    os.makedirs(spans, exist_ok=True)
    cmd = [EXE, "--dir", work] + args
    if "--trace" in args and args[args.index("--trace") + 1] == "1":
        name = "%s-seed%s.json" % (args[args.index("--workload") + 1], args[args.index("--seed") + 1])
        cmd += ["--spans", os.path.join(spans, name)]
    os.makedirs(TMP_DIR, exist_ok=True)
    env = dict(os.environ, TMPDIR=os.path.abspath(TMP_DIR))
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True, env=env)
    try:
        out, _ = proc.communicate(timeout=timeout)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        stop_group(proc)
        shutil.rmtree(work, ignore_errors=True)
        fail("run timed out after %d s" % timeout)
    stop_group(proc)
    shutil.rmtree(work, ignore_errors=True)
    return code, out.splitlines()


def result_of(lines):
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        return None
    return result


def measure(workload, ns):
    code, lines = run_exe(["--workload", workload, "--seed", str(ns.seed), "--seconds", str(ns.seconds),
                           "--trace", str(ns.trace)])
    for line in lines:
        print(line)
    sys.stdout.flush()
    result = result_of(lines)
    if code != 0 or result is None:
        fail("%s did not produce a result (exit code %d)" % (workload, code))
    return result


def benchmark(ns):
    build()
    if ns.workload != "all":
        measure(ns.workload, ns)
        return
    with open("BENCHMARK.json") as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    results = [(w, measure(w, ns)) for w in workloads]
    clean = True
    for w, r in results:
        print("%-14s %-34s %d" % (w, "jobs attempted", r["attempted"]))
        print("%-14s %-34s %d" % (w, "jobs failed", r["failed"]))
        for name, m in r["metrics"].items():
            print("%-14s %-34s %.6g %s" % (w, name, m["value"], m["unit"]))
        clean = clean and r["correct"] and r["failed"] == 0
    sys.exit(0 if clean else 1)


# --- self-test --------------------------------------------------------------


def self_test():
    """At tiny sizes: every named metric prints with its unit; a corrupted
    reply counts as failed; a daemon that never answers ends the run with
    failures instead of a hang."""
    build()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    problems = []

    def run(workload, trace, extra=(), seconds=2):
        args = ["--workload", workload, "--seed", "7", "--seconds", str(seconds), "--trace", str(trace),
                "--size", "tiny"] + list(extra)
        started = time.time()
        code, lines = run_exe(args, timeout=120)
        return code, result_of(lines), time.time() - started

    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result, _ = run(w["name"], trace)
            label = "%s --trace %d" % (w["name"], trace)
            if code != 0 or result is None:
                problems.append("%s: no result (exit code %d)" % (label, code))
                continue
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append("%s: not a clean run: %s" % (label, json.dumps(
                    {k: result[k] for k in ("correct", "attempted", "failed")})))
            got = result["metrics"]
            for m in spec[key]:
                entry = got.get(m["name"])
                if entry is None:
                    problems.append("%s: metric %s missing" % (label, m["name"]))
                elif entry.get("unit") != m["unit"]:
                    problems.append("%s: %s has unit %r, expected %r" % (label, m["name"], entry.get("unit"), m["unit"]))
                elif not isinstance(entry.get("value"), (int, float)) or not math.isfinite(entry["value"]):
                    problems.append("%s: %s is not a finite number" % (label, m["name"]))
            extra = set(got) - {m["name"] for m in spec[key]}
            if extra:
                problems.append("%s: unlisted metrics %s" % (label, sorted(extra)))

    code, result, _ = run("serve-links", 0, ["--inject", "corrupt"])
    if result is None or result["correct"] or result["failed"] < 1:
        problems.append("a corrupted reply was not counted as failed: %s" % (result,))

    code, result, took = run("serve-links", 0, ["--inject", "stall"])
    if result is None or result["correct"] or result["failed"] < 1:
        problems.append("a daemon that never answers did not end the run with failures: %s" % (result,))
    elif took > 60:
        problems.append("a daemon that never answers held the run for %.0f s" % took)

    for p in problems:
        print("self-test: " + p)
    print("self-test: %s" % ("FAILED" if problems else "ok"))
    sys.exit(1 if problems else 0)


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true")
    ns = parser.parse_args()
    if ns.self_test:
        self_test()
    if None in (ns.workload, ns.seed, ns.seconds, ns.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if ns.seed < 0 or ns.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    benchmark(ns)


if __name__ == "__main__":
    main()

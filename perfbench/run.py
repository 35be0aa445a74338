#!/usr/bin/env python3
"""Session-pipeline benchmark entry point (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root. Builds the benchmark program (and the
harmony library from src/) under .bench_build/, runs one measurement, and
passes the program's output through: the last stdout line is the JSON
result. Exits non-zero, without a result line, when the build, the run or
the correctness gate fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "cmake")
BENCH = os.path.join(BUILD, "pipeline_bench")
RUN_TIMEOUT_S = 170


def stale_cache():
    """True when the build directory was configured for another checkout."""
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if not os.path.isfile(cache):
        return False
    with open(cache) as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:"):
                return os.path.realpath(line.split("=", 1)[1].strip()) != \
                    os.path.realpath(HERE)
    return True


def build():
    """Configures and builds the program; returns False on any failure."""
    if stale_cache():
        shutil.rmtree(BUILD)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", BUILD, "-j", jobs],
    ]
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if proc.returncode != 0:
            print("build step failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return os.path.isfile(BENCH)


def run_bench(extra, timeout=RUN_TIMEOUT_S):
    """Runs the program; returns (exit code, stdout text)."""
    cmd = [BENCH] + extra
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as e:
        out = e.stdout or ""
        if isinstance(out, bytes):
            out = out.decode()
        return 124, out
    return proc.returncode, proc.stdout


def measure(args):
    rc, out = run_bench(["--workload", args.workload, "--seed", str(args.seed),
                          "--seconds", str(args.seconds),
                          "--trace", str(args.trace)])
    lines = out.rstrip("\n").split("\n") if out else []
    if rc != 0 or not lines:
        # Never let a failed run's partial output pass for a result.
        sys.stderr.write(out)
        print("benchmark failed with exit code %d" % rc, file=sys.stderr)
        return rc or 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(out)
        print("benchmark printed no result line", file=sys.stderr)
        return 1
    if result.get("correct") is not True:
        sys.stderr.write(out)
        return 1
    sys.stdout.write(out)
    return 0


def printed_metrics(out):
    """{name: unit} for every 'metric NAME VALUE UNIT' line."""
    found = {}
    for line in out.split("\n"):
        parts = line.split()
        if len(parts) >= 4 and parts[0] == "metric":
            found[parts[1]] = parts[3]
    return found


def selftest():
    """Tiny-size check of the benchmark itself: every named metric is printed
    with its unit on every workload, and the correctness gate trips on an
    injected lost receipt."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    # Metrics the issue names that only apply to some workloads; they are
    # printed as text lines, not carried in the result line.
    disk_only = ["storage.pool_hit_frac", "storage.page_reads_per_txn",
                 "storage.page_writes_per_txn", "storage.fsyncs_per_block"]
    wire_only = ["net.txns_per_frame", "net.overhead_us_p50",
                 "net.flush_us_p50", "net.wire_vs_inprocess"]
    tiny = ["--seed", "7", "--seconds", "2", "--scale", "0.02"]
    failures = []
    for w in workloads:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            rc, out = run_bench(["--workload", w, "--trace", str(trace)]
                                 + tiny)
            lines = out.rstrip("\n").split("\n")
            if rc != 0:
                failures.append("%s trace %d: exit %d" % (w, trace, rc))
                continue
            result = json.loads(lines[-1])
            text = printed_metrics(out)
            for m in spec[key]:
                got = result["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    failures.append("%s: result line lacks %s [%s]"
                                    % (w, m["name"], m["unit"]))
                if text.get(m["name"]) != m["unit"]:
                    failures.append("%s: no text line for %s [%s]"
                                    % (w, m["name"], m["unit"]))
            if trace == 1:
                disk = "disk" in w
                wire = "wire" in w
                for name in disk_only:
                    if (name in text) != disk:
                        failures.append("%s: %s presence wrong" % (w, name))
                for name in wire_only:
                    if (name in text) != wire:
                        failures.append("%s: %s presence wrong" % (w, name))
                if "binding layer:" not in out:
                    failures.append("%s: no binding layer named" % w)
            print("selftest %s trace %d: %d metrics" % (w, trace, len(text)))
        rc, out = run_bench(["--workload", w, "--trace", "0",
                              "--inject-lost-receipt"] + tiny)
        if rc == 0 or '"correct"' in out:
            failures.append("%s: gate did not trip on a lost receipt" % w)
        else:
            print("selftest %s: lost receipt trips the gate (exit %d)"
                  % (w, rc))
    for f in failures:
        print("FAIL " + f)
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()
    if not args.selftest and not args.workload:
        p.error("--workload is required")
    if not build():
        return 2
    return selftest() if args.selftest else measure(args)


if __name__ == "__main__":
    sys.exit(main())

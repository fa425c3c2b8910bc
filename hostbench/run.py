#!/usr/bin/env python3
"""Host-time benchmark of the TERP simulator.

Run from the root of a checkout:

    python3 hostbench/run.py --workload whisper --seed 1 --seconds 10 --trace 0

Builds hostbench/ (and the simulator sources it links) with CMake into
$CARGO_TARGET_DIR/hostbench, default .bench_build/hostbench, then runs
the workload. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.

--trace 0: three processes, one after another. Each runs one cold pass
    of the workload's op list and then a fixed number of timed passes,
    set by --seconds. Times are taken in reference-host seconds: each
    is scaled by a fixed host-speed probe run beside it, so a shared
    host that speeds up or slows down between runs does not move them.
    ops_per_s is the ops in one pass over the median pass time of all
    processes; setup_s is the median over processes of the time from
    process start to the end of its cold pass; peak_rss_mb is the
    largest peak resident set. The wall-clock figures are logged too.
--trace 1: one process that runs a traced pass of every workload and
    reports the per-layer metrics.

--self-test checks the aggregation below and the program's own
failure accounting and traced re-drive. --record rewrites the expected
outputs in hostbench/expected/ (only for an intended change of
simulated results). See hostbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SOURCES = os.path.join(os.path.dirname(HERE), "src")
EXPECTED = os.path.join(HERE, "expected")

# Host seconds of one warm pass on a 4-core x86 host. They only fix
# how many passes a run makes; nothing is ever timed against them.
PASS_SECONDS = {"whisper": 0.6, "spec_mt": 0.8, "crash": 0.8,
                "serve": 1.2}
PROCESSES = 3
MIN_PASSES = 2
# Wall-clock limits: the build, then everything a run does after it.
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print("hostbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "hostbench")


def configured_source(out):
    """The source directory the build tree at out was configured from."""
    try:
        with open(os.path.join(out, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_HOME_DIRECTORY:INTERNAL="):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def build():
    """Configure once, build incrementally; returns the executable."""
    if not os.path.isfile(os.path.join(SOURCES, "CMakeLists.txt")):
        fail("simulator sources not found at " + SOURCES)
    out = build_dir()
    steps = []
    if configured_source(out) != HERE:
        # A build tree configured from another copy cannot be reused.
        if os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            os.remove(os.path.join(out, "CMakeCache.txt"))
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        try:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                               timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build failed: %s" % e)
        if r.returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "hostbench")


def child_env():
    # TERP_* switches change what the simulator does on the host.
    return {k: v for k, v in os.environ.items() if not k.startswith("TERP_")}


def run_child(args, deadline):
    """Runs the program; returns (spawn time, last stdout line as JSON)."""
    t0 = time.monotonic()
    try:
        r = subprocess.run(args, stdout=subprocess.PIPE, stderr=sys.stderr,
                           env=child_env(), timeout=max(1, deadline - t0),
                           text=True)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("%s: %s" % (args[1], e))
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        fail("%s exited %d" % (" ".join(args[:2]), r.returncode))
    return t0, json.loads(lines[-1])


def passes_per_process(workload, seconds):
    per = seconds / (PROCESSES * PASS_SECONDS[workload])
    return max(MIN_PASSES, int(round(per)))


def in_reference_seconds(rec, spawned):
    """Adds the record's pass and set-up times in reference-host seconds.

    A pass is scaled by the mean of the host-speed probes run just
    before and after it; the set-up time by the probe that follows the
    cold pass.
    """
    ref, probes = rec["probe_reference_s"], rec["probe_s"]
    rec["pass_ref_s"] = [t * ref / ((probes[i] + probes[i + 1]) / 2)
                         for i, t in enumerate(rec["pass_s"])]
    rec["setup_wall_s"] = rec["cold_end_s"] - spawned
    rec["setup_s"] = rec["setup_wall_s"] * ref / probes[0]


def aggregate(records):
    """End-to-end metrics of one run from its processes' records.

    Each record holds ops_per_pass, pass_ref_s (timed passes in
    reference seconds), setup_s, peak_rss_mb, attempted and failed.
    """
    passes = [p for r in records for p in r["pass_ref_s"]]
    ops = records[0]["ops_per_pass"]
    return {
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "passes": len(passes),
        "metrics": {
            "ops_per_s": {"value": ops / statistics.median(passes),
                          "unit": "1/s"},
            "setup_s": {"value": statistics.median(
                r["setup_s"] for r in records), "unit": "s"},
            "peak_rss_mb": {"value": max(r["peak_rss_mb"]
                                         for r in records),
                            "unit": "MB"},
        },
    }


def timed_run(exe, workload, seed, seconds, deadline):
    passes = passes_per_process(workload, seconds)
    records = []
    for _ in range(PROCESSES):
        t0, rec = run_child([exe, "run", "--workload", workload,
                             "--seed", str(seed), "--passes", str(passes),
                             "--expected", EXPECTED], deadline)
        in_reference_seconds(rec, t0)
        records.append(rec)
    res = aggregate(records)
    wall = [p for r in records for p in r["pass_s"]]
    print("hostbench: %s: %d ops per pass, median of %d passes over %d "
          "processes; wall clock: ops_per_s %.4f setup_s %.4f; probe "
          "median %.4f s, reference %.4f s"
          % (workload, records[0]["ops_per_pass"], res["passes"],
             PROCESSES, records[0]["ops_per_pass"] / statistics.median(wall),
             statistics.median(r["setup_wall_s"] for r in records),
             statistics.median(p for r in records for p in r["probe_s"]),
             records[0]["probe_reference_s"]))
    return res


def traced_run(exe, workload, seed, deadline):
    spans = os.path.join(build_dir(), "spans-%s-%d.json" % (workload, seed))
    _, rec = run_child([exe, "trace", "--seed", str(seed),
                        "--expected", EXPECTED, "--spans", spans], deadline)
    print("hostbench: spans written to " + spans)
    # A spec_mt re-drive that differs from runSpec is a failed op.
    return {"attempted": rec["attempted"], "failed": rec["failed"],
            "metrics": rec["metrics"]}


def self_test(exe):
    """The aggregation rules, then the program's own self-test."""
    rec = {"ops_per_pass": 10, "attempted": 40, "failed": 0,
           "peak_rss_mb": 20.0, "setup_s": 2.0}
    # A transient covering a minority of passes leaves the median.
    res = aggregate([dict(rec, pass_ref_s=[1.0, 1.0, 9.0]),
                     dict(rec, pass_ref_s=[1.0, 2.0, 8.0], failed=1,
                          setup_s=5.0),
                     dict(rec, pass_ref_s=[1.0, 1.0, 7.0], setup_s=1.0,
                          peak_rss_mb=30.0)])
    # A host at half the reference speed: probes and passes take twice
    # as long, and the reference-second times are unchanged.
    slow = {"probe_reference_s": 0.04, "probe_s": [0.08, 0.08, 0.08],
            "pass_s": [2.0, 2.0], "cold_end_s": 13.0}
    in_reference_seconds(slow, 10.0)
    checks = [
        (slow["pass_ref_s"] == [1.0, 1.0] and slow["setup_s"] == 1.5,
         "times scale by the adjacent probes into reference seconds"),
        (res["metrics"]["ops_per_s"]["value"] == 10.0,
         "ops_per_s is ops over the median pass time"),
        (res["metrics"]["setup_s"]["value"] == 2.0,
         "setup_s is the median over processes"),
        (res["metrics"]["peak_rss_mb"]["value"] == 30.0,
         "peak_rss_mb is the largest peak"),
        (res["attempted"] == 120 and res["failed"] == 1,
         "failed and attempted add up over processes"),
        (passes_per_process("whisper", 0) == MIN_PASSES,
         "a short run still makes the minimum passes"),
    ]
    for ok, what in checks:
        print("%s %s" % ("ok  " if ok else "FAIL", what))
    r = subprocess.run([exe, "selftest", "--expected", EXPECTED],
                       env=child_env(), timeout=RUN_TIMEOUT_S)
    return 0 if all(ok for ok, _ in checks) and r.returncode == 0 else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(PASS_SECONDS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--record", action="store_true")
    a = ap.parse_args()
    if not (a.workload or a.self_test or a.record):
        ap.error("--workload is required")
    if a.seconds < 1:
        ap.error("--seconds must be at least 1")
    seed = a.seed % (1 << 64)

    exe = build()
    if a.self_test:
        return self_test(exe)
    if a.record:
        return subprocess.run([exe, "record", "--out", EXPECTED],
                              env=child_env()).returncode
    deadline = time.monotonic() + RUN_TIMEOUT_S
    if a.trace:
        res = traced_run(exe, a.workload, seed, deadline)
    else:
        res = timed_run(exe, a.workload, seed, a.seconds, deadline)
    print(json.dumps({"correct": res["failed"] == 0,
                      "attempted": res["attempted"],
                      "failed": res["failed"],
                      "metrics": res["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

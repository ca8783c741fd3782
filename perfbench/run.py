#!/usr/bin/env python3
"""The repository benchmark: one command per workload run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (and with it the Manimal libraries) under
.bench_build/, generates the workload's seeded inputs in one process,
measures them in another that receives only file paths, prints every
metric by name with its unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
See perfbench/README.md for the workloads and metric definitions.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

import metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
WORKLOADS = ("select-sweep", "aggregate-spill", "udf-scan")
DEADLINE_S = 175  # a run must exit within 180 s once built


def log(message):
    print(message, file=sys.stderr, flush=True)


def run(cmd, env, timeout):
    """Runs cmd with stdout sent to stderr; raises on failure or timeout."""
    subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr,
                   timeout=timeout, check=True)


def build(env):
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run(["cmake", "-S", HERE, "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], env, 600)
    run(["cmake", "--build", BUILD_DIR, "--target", "perfbench_gen",
         "perfbench_measure", "-j", "4"], env, 880)


def clean_env():
    """The process environment without MANIMAL_* knobs, which would
    change what the system does, and with temp files in the checkout."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("MANIMAL_")}
    env["TMPDIR"] = os.path.join(BUILD_ROOT, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    return env


def report(raw, trace):
    jobs = raw["jobs"]
    failed = metrics.failed_jobs(jobs)
    correct = failed == 0 and all(r["ok"] and r["match"] for r in raw["replays"])
    if trace:
        values = metrics.per_layer(raw)
        notes = {"replays": len(raw["replays"]),
                 "replays_matching": sum(r["ok"] and r["match"]
                                         for r in raw["replays"])}
    else:
        values, notes = metrics.end_to_end(raw)
    notes["jobs"] = len(jobs)
    notes["failed"] = failed
    for name, (value, unit) in values.items():
        print(f"{name} = {value} {unit}")
    for name, value in notes.items():
        print(f"# {name} = {value}")
    for job in jobs:
        if job["error"]:
            print(f"# job error: {job['error']}")
    for replay in raw["replays"]:
        if not (replay["ok"] and replay["match"]):
            print(f"# replay of job {replay['job']} differs: {replay['error']}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in values.items()},
    }))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")

    env = clean_env()
    build(env)
    start = time.monotonic()
    run_dir = os.path.join(BUILD_ROOT, "runs",
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        data_dir = os.path.join(run_dir, "data")
        os.makedirs(data_dir)
        run([os.path.join(BUILD_DIR, "perfbench_gen"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--dir", data_dir], env, 60)
        os.sync()  # keep the inputs' write-back out of the measured phase
        raw_path = os.path.join(run_dir, "raw.json")
        run([os.path.join(BUILD_DIR, "perfbench_measure"),
             "--workload", args.workload,
             "--input", os.path.join(data_dir, "input.msq"),
             "--jobs", os.path.join(data_dir, "jobs.txt"),
             "--workspace", os.path.join(run_dir, "workspace"),
             "--seconds", str(args.seconds), "--trace", args.trace,
             "--out", raw_path],
            env, max(1, DEADLINE_S - (time.monotonic() - start)))
        with open(raw_path) as f:
            raw = json.load(f)
        if args.trace == "1":
            spans_path = os.path.join(BUILD_ROOT, f"spans-{args.workload}.json")
            with open(spans_path, "w") as f:
                json.dump(raw["spans"], f)
            log(f"spans written to {spans_path}")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    report(raw, args.trace == "1")


if __name__ == "__main__":
    try:
        main()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError, ValueError, KeyError) as error:
        log(f"perfbench: {error}")
        sys.exit(1)

#!/usr/bin/env python3
"""Build and run the MDM benchmark harness.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke

Run from the root of a checkout. The first call configures and builds the
repository's libraries plus the harness (perfbench/CMakeLists.txt) into
.bench_build/; later calls rebuild incrementally. The harness prints its check
lines and diagnostics, then the result JSON as the last line of standard
output. --smoke runs every workload briefly, traced and untraced, and asserts
that every metric of BENCHMARK.json prints with its unit and that every
correctness check runs and passes.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "harness", "mdm_perfbench")
RUN_TIMEOUT_S = 175
# Compiler and harness temporaries stay inside the checkout too.
ENV = dict(os.environ, TMPDIR=os.path.join(BUILD_DIR, "tmp"))

# Checks each workload must execute (smoke mode asserts the list).
EXPECTED_CHECKS = {
    "melt_native_4k": ["native_forces_vs_ewald", "nve_energy_drift"],
    "machine_emulated_512": ["emulator_forces_vs_ewald",
                             "wine2_forces_vs_ewald", "nve_energy_drift"],
    "parallel_pme_512": ["pme_forces_vs_ewald", "pme_energy_vs_ewald",
                         "nve_energy_drift"],
    "fleet_open_loop": ["fleet_jobs_completed", "fleet_bit_identical",
                        "fleet_cache_bypassed"],
}


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally; output goes to stderr."""
    os.makedirs(ENV["TMPDIR"], exist_ok=True)
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        harness_build = os.path.join(BUILD_DIR, "harness")
        if not os.path.exists(os.path.join(harness_build, "Makefile")):
            log("configuring (Release)")
            subprocess.run(
                ["cmake", "-S", BENCH_DIR, "-B", harness_build,
                 "-DCMAKE_BUILD_TYPE=Release"],
                check=True, stdout=sys.stderr, stderr=sys.stderr, env=ENV)
        jobs = str(max(1, os.cpu_count() or 1))
        subprocess.run(
            ["cmake", "--build", harness_build, "--target", "mdm_perfbench",
             "-j", jobs],
            check=True, stdout=sys.stderr, stderr=sys.stderr, env=ENV)


def commit_id():
    """HEAD of the checkout when it is the root of a git work tree."""
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and \
                os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            return lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown (not a git checkout)"


def harness(workload, seed, seconds, trace, capture=False):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", os.path.join(BUILD_DIR, "work"),
           "--commit", commit_id()]
    return subprocess.run(cmd, timeout=RUN_TIMEOUT_S, text=True,
                          capture_output=capture, env=ENV)


def smoke():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    problems = []
    for w in bench["workloads"]:
        name = w["name"]
        for trace, metrics in ((0, bench["end_to_end"]),
                               (1, bench["per_layer"])):
            proc = harness(name, 1, 1, trace, capture=True)
            lines = proc.stdout.strip().splitlines()
            tag = f"{name} trace={trace}"
            if proc.returncode != 0 or not lines:
                problems.append(f"{tag}: exit {proc.returncode}\n{proc.stderr}")
                continue
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{tag}: {result['failed']} failed checks")
            got = result["metrics"]
            if set(got) != {m["name"] for m in metrics}:
                problems.append(f"{tag}: metric set differs: "
                                f"{sorted(set(got) ^ {m['name'] for m in metrics})}")
            for m in metrics:
                entry = got.get(m["name"])
                if entry is None or entry.get("unit") != m["unit"] or \
                        not isinstance(entry.get("value"), (int, float)):
                    problems.append(f"{tag}: {m['name']} missing or unit "
                                    f"!= {m['unit']}: {entry}")
            ran = [l.split()[1] for l in lines if l.startswith("check ")]
            if ran != EXPECTED_CHECKS[name]:
                problems.append(f"{tag}: checks ran {ran}, expected "
                                f"{EXPECTED_CHECKS[name]}")
            log(f"smoke {tag}: {len(got)} metrics, checks {ran}")
    for p in problems:
        log("SMOKE FAIL " + p)
    log("smoke " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and not args.workload:
        parser.error("--workload is required")
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1
    if args.smoke:
        return smoke()
    try:
        return harness(args.workload, args.seed, args.seconds,
                       args.trace).returncode
    except subprocess.TimeoutExpired:
        log(f"harness exceeded {RUN_TIMEOUT_S} s")
        return 1


if __name__ == "__main__":
    sys.exit(main())

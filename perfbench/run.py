#!/usr/bin/env python3
"""Run one workload of the repository benchmark, or its self-check.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

Run from the root of a checkout.  The benchmark and the mdqa CLI are
built from source into .bench_build (release profile), then
perfbench/bench.exe measures the workload; its last stdout line is the
result object.  --self-check runs every workload of BENCHMARK.json at
tiny sizes, one iteration each, traced and untraced, and asserts that
every listed metric is emitted with its unit and that all output checks
pass.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
BENCH_EXE = os.path.join(ROOT, BUILD_DIR, "default", "perfbench", "bench.exe")
MDQA_EXE = os.path.join(ROOT, BUILD_DIR, "default", "bin", "mdqa_cli.exe")
WORKLOADS = ["mdq-pipeline-160", "assess-320", "serve-320"]
RUN_TIMEOUT_S = 170


def build():
    cmd = ["dune", "build", "--root", ".", "--profile", "release",
           "--build-dir", BUILD_DIR, "./perfbench/bench.exe",
           "./bin/mdqa_cli.exe"]
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                           stderr=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return False
    return r.returncode == 0


def source_id():
    """The commit, or a digest of the sources when git has none."""
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0:
            return r.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for top in ("lib", "bin", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for f in sorted(files):
                if f.endswith((".ml", ".mli")) or f == "dune":
                    p = os.path.join(d, f)
                    h.update(os.path.relpath(p, ROOT).encode())
                    with open(p, "rb") as fh:
                        h.update(fh.read())
    return "src-" + h.hexdigest()[:16]


NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
    else os.cpu_count()


def pin_to_one_cpu():
    """Run the benchmark, and the server it spawns, on one CPU.

    On a shared host each CPU's speed swings by a third from second to
    second, independently of the others.  The bench scales its times by
    a calibration kernel timed between operations; that only tracks the
    speed the measured work saw if both run on the same CPU."""
    if hasattr(os, "sched_setaffinity"):
        cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {max(cpus)})


def run_bench(workload, seed, seconds, trace, quick=False, echo=True):
    """Run bench.exe in its own process group, so a timeout also stops
    the server it may have spawned.  Returns (exit code, stdout lines)."""
    cmd = [BENCH_EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--mdqa", MDQA_EXE, "--commit", source_id(),
           "--nproc", str(NPROC)]
    if quick:
        cmd.append("--quick")
    p = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                         start_new_session=True)
    try:
        out, _ = p.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        print(f"run.py: {workload} exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 1, []
    if echo:
        sys.stdout.write(out)
    return p.returncode, out.splitlines()


def parse_result(lines):
    if not lines:
        return None
    try:
        r = json.loads(lines[-1])
    except ValueError:
        return None
    if not isinstance(r, dict) or set(r) != {"correct", "attempted", "failed",
                                             "metrics"}:
        return None
    return r


def self_check():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ok = True
    for w in spec["workloads"]:
        for trace, table in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            code, lines = run_bench(w["name"], 1, 1, trace, quick=True,
                                    echo=False)
            r = parse_result(lines)
            problems = []
            if code != 0:
                problems.append(f"exit code {code}")
            if r is None:
                problems.append("no result line")
            else:
                if not r["correct"] or r["failed"] != 0:
                    problems.append(f"{r['failed']} of {r['attempted']} "
                                    "operations failed their checks")
                if r["attempted"] < 1:
                    problems.append("nothing attempted")
                want = {m["name"]: m["unit"] for m in table}
                got = {k: v.get("unit") for k, v in r["metrics"].items()}
                if got != want:
                    problems.append(f"metrics {got} != {want}")
                for k, v in r["metrics"].items():
                    if not isinstance(v.get("value"), (int, float)):
                        problems.append(f"{k} has no numeric value")
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print(f"self-check {w['name']} trace={trace}: {status}")
            ok = ok and not problems
    return ok


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=[0, 1])
    ap.add_argument("--self-check", action="store_true")
    a = ap.parse_args()
    if not a.self_check and None in (a.workload, a.seed, a.seconds, a.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    if not build():
        return 1
    pin_to_one_cpu()
    if a.self_check:
        return 0 if self_check() else 1
    code, lines = run_bench(a.workload, a.seed, a.seconds, a.trace)
    if code != 0 or parse_result(lines) is None:
        print(f"run.py: bench exited {code} without a valid result",
              file=sys.stderr)
        return code or 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

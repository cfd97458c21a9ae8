#!/usr/bin/env python3
"""Build and run the ECGRID simulator benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper_lifetime --seed 1 \
        --seconds 25 --trace 0
    python3 perfbench/run.py --self-test

The first call configures and builds perfbench/ (the simulator libraries
plus the benchmark binary, Release) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset; later calls only
re-run the incremental build. The script prints provenance (git sha,
source digest, compiler, build type, CPU model, cores), the binary's
per-round log and check results, runs tools/campaign_report.py --check
on the results files the run wrote (audited_campaign writes them), and
ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exit status is non-zero, with no result line, when the build fails, the
tree holds no simulator sources, or the binary refuses the build.
Only the Python standard library is used.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORKLOADS = ("paper_lifetime", "dense_grid", "audited_campaign")
RUN_LIMIT_S = 175.0


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_root():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(deadline):
    """Configure (once) and build; returns the binary path."""
    build_dir = os.path.join(build_root(), "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr,
                       timeout=max(1.0, deadline - time.monotonic()))
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs], check=True,
                   stdout=sys.stderr,
                   timeout=max(1.0, deadline - time.monotonic()))
    return os.path.join(build_dir, "ecgrid_perfbench")


def source_digest():
    """sha256 over the simulator and benchmark sources (path + bytes)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for folder, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def provenance():
    sha = "none (not a git checkout)"
    if os.path.exists(os.path.join(ROOT, ".git")):  # not an enclosing repo's
        try:
            sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10,
                                 check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "git_sha": sha,
        "source_digest": source_digest(),
        "cpu_model": cpu,
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
    }


def campaign_report_check(path):
    """tools/campaign_report.py --check on one results file."""
    report = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "campaign_report.py"),
         "--check", path], capture_output=True, text=True, timeout=60)
    return report.returncode == 0, (report.stdout + report.stderr).strip()


def run_binary(binary, args, deadline):
    proc = subprocess.run([binary] + args, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    sys.stderr.write(proc.stderr)
    return proc


def measure(args, deadline):
    binary = build(deadline)
    print("provenance: " + json.dumps(provenance(), sort_keys=True), flush=True)
    work_dir = os.path.join(build_root(), "runs",
                            "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    os.makedirs(work_dir, exist_ok=True)
    try:
        proc = run_binary(binary, [
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--work-dir", work_dir], deadline)
        lines = proc.stdout.rstrip("\n").split("\n")
        for line in lines[:-1]:
            print(line)
        if proc.returncode != 0:
            log("run.py: benchmark binary exited with %d" % proc.returncode)
            return proc.returncode
        result = json.loads(lines[-1])
        for name in sorted(os.listdir(work_dir)):
            if not name.endswith(".jsonl"):
                continue
            ok, detail = campaign_report_check(os.path.join(work_dir, name))
            print("check %-4s campaign_report --check %s  %s"
                  % ("ok" if ok else "FAIL", name, detail.splitlines()[-1]
                     if detail else ""))
            result["correct"] = result["correct"] and ok
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


def self_test(deadline):
    """Every check must report a doctored input as a failure."""
    binary = build(deadline)
    work_dir = os.path.join(build_root(), "runs", "self-test-%d" % os.getpid())
    os.makedirs(work_dir, exist_ok=True)
    misses = 0
    try:
        proc = run_binary(binary, ["--self-test", "--work-dir", work_dir],
                          deadline)
        print(proc.stdout, end="")
        misses += 0 if proc.returncode == 0 else 1
        # campaign_report --check: a real results file passes, doctored
        # copies (duplicate fingerprint, torn line) fail.
        proc = run_binary(binary, [
            "--workload", "audited_campaign", "--seed", "1", "--seconds", "1",
            "--work-dir", work_dir], deadline)
        results = os.path.join(work_dir, "audited_campaign_results.jsonl")
        with open(results, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        cases = [("valid results file", lines, True),
                 ("duplicated record", lines + lines[:1], False),
                 ("torn last line", lines[:-1] + [lines[-1][:40]], False)]
        for what, content, expect_ok in cases:
            path = os.path.join(work_dir, "doctored.jsonl")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write("\n".join(content) + "\n")
            ok, _ = campaign_report_check(path)
            good = ok == expect_ok
            misses += 0 if good else 1
            print("self-test %-4s %-52s -> %s" % (
                "ok" if good else "MISS", "campaign_report: " + what,
                "check passed" if ok else "check failed"))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print("self-test total: %d miss(es)" % misses)
    return 0 if misses == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if not 0 <= args.seed < 2 ** 40:
        # Scenario seeds derived from it travel as JSON numbers (doubles).
        parser.error("--seed must be in [0, 2**40)")
    if not os.path.isfile(os.path.join(ROOT, "src", "harness", "scenario.hpp")):
        log("run.py: no simulator sources under %s/src; run from the root "
            "of a full checkout" % ROOT)
        return 2
    built = os.path.isfile(os.path.join(build_root(), "perfbench",
                                        "ecgrid_perfbench"))
    # The first run in a checkout also builds; allow it the build's time.
    deadline = time.monotonic() + (RUN_LIMIT_S if built else 890.0)
    try:
        return self_test(deadline) if args.self_test else measure(args, deadline)
    except subprocess.CalledProcessError as error:
        log("run.py: %s failed with %d" % (error.cmd[0], error.returncode))
        return 1
    except subprocess.TimeoutExpired as error:
        log("run.py: %s timed out" % error.cmd[0])
        return 1


if __name__ == "__main__":
    sys.exit(main())

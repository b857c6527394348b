#!/usr/bin/env python3
"""Build perfbench from this checkout and run one workload (or all three).

    python3 perfbench/run.py --workload serve_small|gate_qaoa|anneal_ising|all \\
        --seed N --seconds S --trace 0|1

Run it from the root of the checkout.  The first run configures and builds
the quml library, the quml_serve daemon and the perfbench binary under
$CARGO_TARGET_DIR (default .bench_build); later runs only rebuild what
changed.  Build output goes to stderr.  The binary's human-readable report
goes to stdout, and the last stdout line is one JSON object with the keys
correct, attempted, failed and metrics.  The exit status is 0 only when every
correctness check passed.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["serve_small", "gate_qaoa", "anneal_ising"]
RUN_TIMEOUT_S = 170


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no quml source tree next to perfbench/; run from a full checkout")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs], stdout=sys.stderr, check=True)


def run_one(binary, serve_bin, work_dir, workload, seed, seconds, trace):
    """Runs the binary in its own process group, so a timeout also stops any
    daemon it started.  Returns (exit code, stdout)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--serve-bin", serve_bin, "--work-dir", work_dir]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"perfbench: {workload} did not finish in {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, ""
    return proc.returncode, out


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(target, "perfbench")
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit(f"perfbench: build failed: {err}")
    # A relative work directory keeps unix socket paths under the 108-byte limit.
    work_dir = os.path.relpath(os.path.join(target, "perfbench-work"))
    os.makedirs(work_dir, exist_ok=True)
    binary = os.path.join(build_dir, "perfbench")
    serve_bin = os.path.join(build_dir, "quml", "tools", "quml_serve")

    if args.workload != "all":
        code, out = run_one(binary, serve_bin, work_dir, args.workload, args.seed, args.seconds,
                            args.trace)
        sys.stdout.write(out)
        sys.exit(code)

    # One command for every workload: each report in turn, then one combined
    # JSON line whose metric names carry the workload as a prefix.
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        code, out = run_one(binary, serve_bin, work_dir, workload, args.seed, args.seconds,
                            args.trace)
        sys.stdout.write(out)
        worst = worst or code
        lines = out.strip().splitlines()
        try:
            result = json.loads(lines[-1]) if lines else None
        except ValueError:
            result = None
        if result is None:
            combined["correct"] = False
            continue
        combined["correct"] = combined["correct"] and result["correct"] and code == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    sys.exit(worst or (0 if combined["correct"] else 1))


if __name__ == "__main__":
    main()

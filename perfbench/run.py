#!/usr/bin/env python3
"""Build and run the federation benchmark from the root of a checkout.

    python3 perfbench/run.py --workload hybrid_cifar10 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload hybrid_cifar10 --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --compare --seed 1 --seconds 30   # pruned-vs-dense line
    python3 perfbench/run.py --workload fanout_mnist --smoke --trace 1

The first call configures and builds perfbench/ (which builds the repository's
own library) into .bench_build/perfbench in Release mode; later calls only
rebuild what changed. The benchmark binary prints human-readable lines and then
one JSON result line; this script checks that the result carries exactly the
metrics BENCHMARK.json names for the mode (end_to_end for --trace 0, per_layer
for --trace 1), with their units, and keeps a copy under .bench_out/.
"""
import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no repository sources next to perfbench/ (expected CMakeLists.txt and src/ in "
             + ROOT + ")", 2)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for step in steps:
        try:
            done = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            fail("build timed out: " + " ".join(step))
        if done.returncode != 0:
            sys.stderr.write(done.stdout.decode(errors="replace"))
            fail("build failed: " + " ".join(step))


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def run_once(workload, seed, seconds, trace, smoke, echo=True):
    """Runs the binary once; returns the parsed result (exits on any error)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out-dir", OUT_DIR]
    if smoke:
        cmd.append("--smoke")
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s timed out after %d s" % (workload, RUN_TIMEOUT_S))
    sys.stderr.write(done.stderr.decode(errors="replace"))
    lines = done.stdout.decode(errors="replace").splitlines()
    if done.returncode != 0 or not lines:
        fail("%s exited with code %d" % (workload, done.returncode))
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("last output line is not a JSON result: " + lines[-1][:200])

    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result keys %s" % sorted(result))
    want = expected_metrics(trace)
    got = {name: entry.get("unit") for name, entry in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s, unit mismatch %s"
             % (missing, extra, units))

    os.makedirs(OUT_DIR, exist_ok=True)
    name = "result-%s-trace%d-seed%d%s.json" % (workload, trace, seed, "-smoke" if smoke else "")
    with open(os.path.join(OUT_DIR, name), "w") as f:
        f.write(lines[-1] + "\n")
    if echo:
        print("\n".join(lines), flush=True)
    return result


def compare(seed, seconds, smoke):
    """hybrid_cifar10 over dense_cifar10, for throughput and the step time."""
    values = {}
    for workload in ("hybrid_cifar10", "dense_cifar10"):
        timed = run_once(workload, seed, seconds, 0, smoke, echo=False)["metrics"]
        traced = run_once(workload, seed, seconds, 1, smoke, echo=False)["metrics"]
        values[workload] = (timed["train_samples_per_s"]["value"], traced["nn.step_ms"]["value"])
    (h_tput, h_step), (d_tput, d_step) = values["hybrid_cifar10"], values["dense_cifar10"]
    print("pruned-vs-dense (seed %d): train_samples_per_s hybrid %.1f / dense %.1f = %.3f; "
          "nn.step_ms hybrid %.3f / dense %.3f = %.3f"
          % (seed, h_tput, d_tput, h_tput / d_tput, h_step, d_step, h_step / d_step))
    print(json.dumps({"train_samples_per_s": {"hybrid": h_tput, "dense": d_tput,
                                              "ratio": h_tput / d_tput},
                      "nn.step_ms": {"hybrid": h_step, "dense": d_step,
                                     "ratio": h_step / d_step}}))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="toy sizes, for the smoke test")
    parser.add_argument("--compare", action="store_true",
                        help="print hybrid_cifar10 over dense_cifar10 ratios")
    args = parser.parse_args()
    if not args.compare and not args.workload:
        parser.error("--workload is required (or --compare)")

    build()
    if args.compare:
        compare(args.seed, args.seconds, args.smoke)
    else:
        run_once(args.workload, args.seed, args.seconds, args.trace, args.smoke)


if __name__ == "__main__":
    main()

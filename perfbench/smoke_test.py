#!/usr/bin/env python3
"""Smoke test of the benchmark itself: every workload at toy size, both modes.

    python3 perfbench/smoke_test.py

run.py already refuses a result whose metrics or units differ from
BENCHMARK.json; this script additionally asserts that every run passes its
correctness checks and that the per-layer names resolve for both model
families: lenet5 (hybrid_cifar10) times all 14 layers, cnn5 (fanout_mnist)
times its 12 and reports 0 for the two lenet5-only layers.
"""
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LAYERS = {"hybrid_cifar10": 14, "dense_cifar10": 14, "fanout_mnist": 12}


def run(workload, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          timeout=900)
    assert done.returncode == 0, "%s trace=%d failed:\n%s" % (
        workload, trace, done.stderr.decode(errors="replace")[-2000:])
    return json.loads(done.stdout.decode().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace in (0, 1):
            result = run(workload, trace)
            assert result["correct"], "%s trace=%d: correctness check failed" % (workload, trace)
            assert result["attempted"] >= 1 and result["failed"] == 0, (workload, trace, result)
            group = bench["per_layer"] if trace else bench["end_to_end"]
            for metric in group:
                entry = result["metrics"][metric["name"]]
                assert entry["unit"] == metric["unit"], (workload, metric["name"])
            if trace:
                for name, entry in result["metrics"].items():
                    m = re.match(r"nn\.(\d\d)\.\w+\.(fwd|bwd)_ms$", name)
                    if m is None:
                        continue
                    present = int(m.group(1)) < LAYERS[workload]
                    assert (entry["value"] > 0) == present, (workload, name, entry["value"])
            print("ok  %-16s trace=%d  %d metrics" % (workload, trace, len(result["metrics"])))
    print("perfbench smoke test passed")


if __name__ == "__main__":
    main()

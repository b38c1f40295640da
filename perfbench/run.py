#!/usr/bin/env python3
"""Two-clock benchmark of the HAM-Offload simulator.

Builds the program from the repository's sources (perfbench/CMakeLists.txt)
into the build directory, then runs one workload:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

`--workload all` runs the four workloads one after another. `--selftest`
runs the benchmark's helper tests and checks that manifest.json and
BENCHMARK.json agree.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics: end-to-end metrics with --trace 0, the per-layer ledger
with --trace 1. The line before it is a report naming each metric's clock
(virt = simulated time, host = wall clock read at a reference machine
speed, see src/machine.hpp), the sample counts and the machine. Traced
runs also write their spans to <build>/traces/. The build directory is
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench at the repository
root. Exit code 0 means every output check passed and every
simulated statistic repeated bit-for-bit across repetitions.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "manifest.json")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
BUILD_TIMEOUT_S = 840
RUN_GRACE_S = 60


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def build(out_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "offload", "offload.hpp")):
        fail("the program sources (src/) are not next to the benchmark", 2)
    if shutil.which("cmake") is None:
        fail("cmake not found", 2)
    steps = []
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"] + gen)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out_dir, "-j", jobs])
    # Keep the compiler's temporary files inside the build directory too.
    tmp = os.path.join(out_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in steps:
        try:
            res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                 text=True, timeout=BUILD_TIMEOUT_S, env=env)
        except subprocess.TimeoutExpired:
            fail("build step timed out: " + " ".join(cmd))
        if res.returncode != 0:
            sys.stderr.write(res.stdout[-8000:])
            fail("build failed: " + " ".join(cmd))


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def run_workload(binary, trace_dir, manifest, workload, seed, seconds, trace):
    spec = manifest["workloads"][workload]
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0",
           "--latency-limit-us", str(spec["latency_limit_us"]),
           "--trace-dir", trace_dir]
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=seconds + RUN_GRACE_S)
    except subprocess.TimeoutExpired:
        fail(workload + ": timed out")
    lines = res.stdout.strip().splitlines()
    if len(lines) < 2:
        fail(workload + ": no result (exit code %d)" % res.returncode)
    return res.returncode, json.loads(lines[-2]), json.loads(lines[-1])


def check_names(result, trace):
    """The printed metrics must be exactly the ones BENCHMARK.json lists."""
    if not os.path.isfile(BENCHMARK):
        return
    bench = load_json(BENCHMARK)
    want = [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]
    got = list(result["metrics"])
    if sorted(want) != sorted(got):
        fail("metrics %s do not match BENCHMARK.json %s" % (got, want))


def selftest(out_dir):
    res = subprocess.run([os.path.join(out_dir, "perfbench_selftest")])
    if res.returncode != 0:
        fail("helper tests failed")
    manifest = load_json(MANIFEST)
    if os.path.isfile(BENCHMARK):
        bench = load_json(BENCHMARK)
        names = sorted(w["name"] for w in bench["workloads"])
        if names != sorted(manifest["workloads"]):
            fail("BENCHMARK.json and manifest.json list different workloads")
        gated = {m["name"] for m in bench["end_to_end"]} | {m["name"] for m in bench["per_layer"]}
        documented = set(manifest["end_to_end"]) | {
            m for layer in manifest["layers"] for m in layer["metrics"]}
        if not gated <= documented:
            fail("metrics missing from manifest.json: %s" % sorted(gated - documented))
    print("perfbench self-test passed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    out_dir = build_dir()
    build(out_dir)
    if args.selftest:
        selftest(out_dir)
        return 0
    manifest = load_json(MANIFEST)
    names = list(manifest["workloads"])
    if args.workload not in names + ["all"]:
        fail("--workload must be one of %s or all" % names, 2)
    if args.seconds <= 0:
        fail("--seconds must be positive", 2)
    trace_dir = os.path.join(out_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    binary = os.path.join(out_dir, "perfbench")

    chosen = names if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for w in chosen:
        seed = args.seed if args.seed is not None else manifest["workloads"][w]["default_seed"]
        rc, report, result = run_workload(binary, trace_dir, manifest, w, seed,
                                          args.seconds, args.trace == 1)
        check_names(result, args.trace == 1)
        print(json.dumps(report))
        worst = worst or rc
        if len(chosen) == 1:
            print(json.dumps(result))
            return rc
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            combined["metrics"][w + "/" + k] = v
    print(json.dumps(combined))
    return worst


if __name__ == "__main__":
    sys.exit(main())

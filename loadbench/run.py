#!/usr/bin/env python3
"""Entry point of the loader benchmark (see README.md in this directory).

One measurement, as BENCHMARK.json's command runs it from the repository root:

    python3 loadbench/run.py --workload imagenet_tcp --seed 1 --seconds 12 --trace 0

builds the benchmark (CMake, into .bench_build/ or $CARGO_TARGET_DIR),
generates the workload's dataset under .bench_data/, runs one measurement
and prints the result JSON as the last line of stdout. It exits non-zero,
printing no result, when the build or the run fails.

A/A mode runs interleaved repeated measurements of one build and prints each
end-to-end metric's median, quartiles and spread against its bound:

    python3 loadbench/run.py --aa 10 [--workloads imagenet_tcp,...] [--seconds 12]

--selftest runs the unit tests of the benchmark's own math.
"""
import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configure (once) and build; returns the build directory."""
    bdir = build_dir()
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", bdir, "-j", "4"], check=True, stdout=sys.stderr)
    return bdir


def validate(result, names):
    """Raise ValueError unless `result` is a well-formed result carrying
    exactly the metrics `names`."""
    if set(result) != RESULT_KEYS:
        raise ValueError(f"result keys {sorted(result)}")
    if not isinstance(result["correct"], bool):
        raise ValueError("correct is not a bool")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            raise ValueError(f"{key} is not a count")
    if result["attempted"] < 1:
        raise ValueError("nothing attempted")
    if set(result["metrics"]) != set(names):
        missing = set(names) - set(result["metrics"])
        extra = set(result["metrics"]) - set(names)
        raise ValueError(f"metrics missing {sorted(missing)}, unexpected {sorted(extra)}")
    for name, m in result["metrics"].items():
        if set(m) != {"value", "unit"} or not isinstance(m["value"], (int, float)) \
                or not math.isfinite(m["value"]):
            raise ValueError(f"metric {name}: {m}")


def energy_cores(spec, given):
    """C of the energy model: --energy-cores, which BENCHMARK.json's command
    passes, or else the value written in that command."""
    if given is not None:
        return given
    cmd = spec["command"]
    return float(cmd[cmd.index("--energy-cores") + 1])


def measure(bdir, spec, cores, workload, seed, seconds, trace):
    """One run of the benchmark binary; returns its validated result."""
    data = os.path.join(ROOT, ".bench_data", workload)
    cmd = [os.path.join(bdir, "loadbench"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0", "--data", data,
           "--energy-cores", str(cores)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(data, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        raise RuntimeError(f"loadbench exited {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    validate(result, names)
    return result


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) as the acceptance check takes
    them: statistics.quantiles(values, n=4)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def relative_worsening(first, second, better):
    """How much worse median `second` is than `first`, as a share of
    `first` (negative when it is better)."""
    if not first:
        return 0.0
    change = (second - first) / first
    return change if better == "lower" else -change


def aa(bdir, spec, cores, workloads, runs, seconds, seed0):
    """Interleaved A/A: `runs` rounds over `workloads` (order rotated each
    round), each run with a fresh seed; even rounds form set A, odd set B."""
    metrics = spec["end_to_end"]
    values = {w: {m["name"]: [] for m in metrics} for w in workloads}
    failures = 0
    for r in range(runs):
        order = workloads[r % len(workloads):] + workloads[:r % len(workloads)]
        for w in order:
            seed = seed0 + r
            result = measure(bdir, spec, cores, w, seed, seconds, trace=False)
            failures += result["failed"] + (0 if result["correct"] else 1)
            for m in metrics:
                values[w][m["name"]].append(result["metrics"][m["name"]]["value"])
            log(f"aa round {r + 1}/{runs} {w} seed {seed}: " + ", ".join(
                f"{m['name']}={result['metrics'][m['name']]['value']:.6g}" for m in metrics))
    worst = 0.0
    print(f"A/A over {runs} interleaved runs per workload "
          f"(spread = (q3 - q1) / median; target < bound / 3)")
    print(f"{'workload':16} {'metric':14} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6} {'A->B':>7}  verdict")
    for w in workloads:
        for m in metrics:
            v = values[w][m["name"]]
            med, q1, q3, s = spread(v)
            a_med = statistics.median(v[0::2])
            b_med = statistics.median(v[1::2])
            drift = relative_worsening(a_med, b_med, m["better"])
            steady = m["name"] == "setup_s" or s < m["bound"] / 3
            verdict = "ok" if steady and drift <= m["bound"] else "NOISY"
            if m["name"] != "setup_s":
                worst = max(worst, s / m["bound"])
            print(f"{w:16} {m['name']:14} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{s:7.2%} {m['bound']:6.0%} {drift:+7.2%}  {verdict}")
    print(f"largest spread / bound (setup_s excluded): {worst:.2f}; failed samples: {failures}")


def selftest(bdir):
    subprocess.run([os.path.join(bdir, "loadbench_math_test")], check=True)
    import unittest
    sys.path.insert(0, HERE)
    suite = unittest.defaultTestLoader.loadTestsFromName("test_run")
    if not unittest.TextTestRunner(verbosity=1).run(suite).wasSuccessful():
        raise RuntimeError("python unit tests failed")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--energy-cores", type=float, default=None,
                   help="C of the energy model (BENCHMARK.json's command sets it)")
    p.add_argument("--aa", type=int, metavar="RUNS", help="A/A mode: runs per workload")
    p.add_argument("--workloads", help="A/A mode: comma-separated subset")
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()

    try:
        spec = load_spec()
        cores = energy_cores(spec, args.energy_cores)
        seconds = args.seconds or spec["run_seconds"]
        bdir = build()
        if args.selftest:
            selftest(bdir)
        elif args.aa is not None:
            if args.aa < 2:
                p.error("--aa needs at least 2 runs for quartiles")
            names = [w["name"] for w in spec["workloads"]]
            workloads = args.workloads.split(",") if args.workloads else names
            aa(bdir, spec, cores, workloads, args.aa, seconds, args.seed)
        else:
            if not args.workload:
                p.error("--workload is required")
            result = measure(bdir, spec, cores, args.workload, args.seed, seconds,
                             args.trace == 1)
            print(json.dumps(result))
    except (OSError, ValueError, RuntimeError, KeyError,
            subprocess.SubprocessError, json.JSONDecodeError) as e:
        log(f"run.py: {type(e).__name__}: {e}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

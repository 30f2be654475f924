#!/usr/bin/env python3
"""Builds the layered sDTW benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and compiles the
library and the benchmark program into .bench_build/perfbench (Release);
later runs only rebuild what changed. The program's output is passed
through except its last line, which lists every metric the run measured,
by name. BENCHMARK.json is the one list of metric names and units: this
script prints the mode's metrics (end_to_end for --trace 0, per_layer for
--trace 1) in its order and with its units, as a table and then as the
result JSON on the last line. A per-layer metric of a layer the workload
never reaches reads 0; a measured name BENCHMARK.json does not list, or an
end-to-end metric the run did not measure, is an error (exit 1).

Traced runs write their spans to .bench_build/traces/<workload>-seed<n>.json.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "sdtw_perfbench"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources under {ROOT / 'src'}: run from the root of "
             "a full checkout")
    if not (BUILD / "CMakeCache.txt").is_file():
        BUILD.mkdir(parents=True, exist_ok=True)
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            fail("cmake configure failed")
    # Three jobs: the box has four cores and shares them.
    step = ["cmake", "--build", str(BUILD), "--target", "sdtw_perfbench",
            "--parallel", "3"]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def source_digest():
    """Content hash of the library and benchmark sources."""
    h = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            if "__pycache__" in path.parts:
                continue
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def mode_metrics(trace):
    """BENCHMARK.json's metrics of the mode, and every name it lists."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    mode = spec["per_layer" if trace else "end_to_end"]
    known = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    if trace:
        layers = json.loads((HERE / "layers.json").read_text())["per_layer"]
        if set(layers) != {m["name"] for m in mode}:
            fail("layers.json and BENCHMARK.json name different per-layer "
                 "metrics")
    return mode, known


def result_line(measured, trace):
    """The contract's result object from the program's last line."""
    mode, known = mode_metrics(trace)
    unknown = sorted(set(measured["measured"]) - known)
    if unknown:
        fail(f"measured metrics BENCHMARK.json does not list: {unknown}")
    missing = [m["name"] for m in mode
               if not trace and m["name"] not in measured["measured"]]
    if missing:
        fail(f"end-to-end metrics not measured: {missing}")
    # A layer the workload never reaches did no work.
    metrics = {m["name"]: {"value": measured["measured"].get(m["name"], 0.0),
                           "unit": m["unit"]} for m in mode}
    print("metrics:")
    for name, m in metrics.items():
        value = "null" if m["value"] is None else f"{m['value']:20.6f}"
        print(f"  {name:34} {value:>20} {m['unit']}")
    return {"correct": measured["correct"], "attempted": measured["attempted"],
            "failed": measured["failed"], "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    build()
    env = dict(os.environ, PERFBENCH_COMMIT=commit(),
               PERFBENCH_SOURCE_DIGEST=source_digest())
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        traces = ROOT / ".bench_build" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload {args.workload} exceeded {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail(f"sdtw_perfbench exited with {proc.returncode}")

    *lines, last = proc.stdout.rstrip("\n").split("\n")
    try:
        measured = json.loads(last)
    except json.JSONDecodeError:
        sys.stderr.write(proc.stdout)
        fail("the last output line is not the measured metrics")
    sys.stdout.write("".join(line + "\n" for line in lines))
    result = result_line(measured, args.trace == "1")
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Repeats benchmark runs and compares sets of them.

    python3 perfbench/compare.py sweep DIR [--workloads a,b] [--seeds 1-10]
                                 [--trace 0|1] [--seconds S]
        Runs perfbench/run.py once per (workload, seed), sequentially, and
        keeps each run's standard output in DIR/<workload>-seed<n>-t<trace>.out.

    python3 perfbench/compare.py spread DIR
        Per workload and end-to-end metric: run count, median, quartiles and
        the spread (q3 - q1) / median, against the metric's bound in
        BENCHMARK.json. Quartiles are statistics.quantiles(values, n=4).

    python3 perfbench/compare.py diff BASE_DIR NEW_DIR
        Per workload and end-to-end metric: both medians, the change in the
        metric's worse direction as a share of the base median, and a
        verdict against the bound. A pairing whose spread exceeds the bound
        on either side is reported as unresolved, not as unchanged.

Run from the root of a checkout. Every command refuses run sets whose
kernel variant or CPU features differ: their timings are not comparable.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

META_PREFIX = "perfbench-meta "
COMPARABLE_KEYS = ("kernel", "cpu_features")


def load_spec():
    return json.loads(Path("BENCHMARK.json").read_text())


def load_runs(directory):
    """{workload: [(meta, result)]} of every *.out file in `directory`."""
    runs = defaultdict(list)
    for path in sorted(Path(directory).glob("*.out")):
        lines = path.read_text().rstrip("\n").split("\n")
        meta = next((json.loads(l[len(META_PREFIX):]) for l in lines
                     if l.startswith(META_PREFIX)), None)
        if meta is None or not lines[-1].startswith("{"):
            sys.exit(f"{path}: not a complete benchmark run")
        runs[meta["workload"]].append((meta, json.loads(lines[-1])))
    return runs


def check_comparable(*run_sets):
    seen = set()
    for runs in run_sets:
        for entries in runs.values():
            for meta, _ in entries:
                seen.add(tuple(meta[k] for k in COMPARABLE_KEYS))
    if len(seen) > 1:
        sys.exit("refusing to compare runs with different kernel variants or "
                 f"CPU features: {sorted(seen)}")


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def metric_values(entries, name):
    return [r["metrics"][name]["value"] for _, r in entries
            if r["metrics"].get(name, {}).get("value") is not None]


def cmd_sweep(args):
    out = Path(args.dir)
    out.mkdir(parents=True, exist_ok=True)
    spec = load_spec()
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    seconds = args.seconds or spec["run_seconds"]
    for w in workloads:
        for seed in seeds:
            cmd = spec["command"] + ["--workload", w, "--seed", str(seed),
                                     "--seconds", str(seconds),
                                     "--trace", args.trace]
            start = time.monotonic()
            proc = subprocess.run(cmd, capture_output=True, text=True)
            elapsed = time.monotonic() - start
            path = out / f"{w}-seed{seed}-t{args.trace}.out"
            path.write_text(proc.stdout)
            status = "ok" if proc.returncode == 0 else f"exit {proc.returncode}"
            print(f"{w} seed {seed}: {status} in {elapsed:.1f} s", flush=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr[-2000:])


def cmd_spread(args):
    spec = load_spec()
    runs = load_runs(args.dir)
    check_comparable(runs)
    worst = 0.0
    print(f"{'workload':15} {'metric':18} {'n':>3} {'median':>14} "
          f"{'spread':>8} {'bound':>6} {'incorrect':>9}")
    for w in [w["name"] for w in spec["workloads"]]:
        entries = runs.get(w, [])
        bad = sum(1 for _, r in entries if not r["correct"])
        for m in spec["end_to_end"]:
            values = metric_values(entries, m["name"])
            if len(values) < 2:
                continue
            s = summary(values)
            worst = max(worst, s["spread"] / m["bound"])
            flag = ""
            if s["spread"] > m["bound"]:
                flag = "  OVER BOUND"
            elif s["spread"] > m["bound"] / 3:
                flag = "  over bound/3"
            print(f"{w:15} {m['name']:18} {len(values):3} "
                  f"{s['median']:14.6g} {s['spread']:8.4f} {m['bound']:6.2f} "
                  f"{bad:9d}{flag}")
    print(f"largest spread / bound: {worst:.3f}")


def cmd_diff(args):
    spec = load_spec()
    base, new = load_runs(args.base), load_runs(args.new)
    check_comparable(base, new)
    failed = False
    for w in [w["name"] for w in spec["workloads"]]:
        for m in spec["end_to_end"]:
            a = metric_values(base.get(w, []), m["name"])
            b = metric_values(new.get(w, []), m["name"])
            if len(a) < 2 or len(b) < 2:
                continue
            sa, sb = summary(a), summary(b)
            sign = 1.0 if m["better"] == "lower" else -1.0
            worse = sign * (sb["median"] - sa["median"]) / sa["median"]
            if max(sa["spread"], sb["spread"]) > m["bound"]:
                verdict = "unresolved"
            elif worse > m["bound"]:
                verdict, failed = "REGRESSION", True
            else:
                verdict = "within bound"
            print(f"{w:15} {m['name']:18} {sa['median']:14.6g} -> "
                  f"{sb['median']:14.6g} worse by {worse:+.4f} "
                  f"(bound {m['bound']}): {verdict}")
    sys.exit(1 if failed else 0)


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("sweep")
    p.add_argument("dir")
    p.add_argument("--workloads", default="")
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--trace", default="0", choices=["0", "1"])
    p.add_argument("--seconds", type=float, default=0)
    p.set_defaults(fn=cmd_sweep)
    p = sub.add_parser("spread")
    p.add_argument("dir")
    p.set_defaults(fn=cmd_spread)
    p = sub.add_parser("diff")
    p.add_argument("base")
    p.add_argument("new")
    p.set_defaults(fn=cmd_diff)
    args = parser.parse_args()
    args.fn(args)


if __name__ == "__main__":
    main()

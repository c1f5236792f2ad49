#!/usr/bin/env python3
"""Run the parc_bench suite repeatedly and summarise each metric.

Usage (from the repository root):

    python3 benchmark/repeat.py --runs 5 --out set_a.json
    python3 benchmark/repeat.py --runs 5 --out set_b.json
    python3 benchmark/repeat.py --compare set_a.json set_b.json

A run set executes BENCHMARK.json's command once per workload and seed
(seeds --seed, --seed+1, ...), keeps the result line of each run, and
prints the median, quartiles and quartile spread (IQR / median) of every
metric per workload. --compare reads two saved sets and says, per metric
and workload, whether the second median is worse than the first by more
than the metric's bound in BENCHMARK.json. Standard library only.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"repeat.py: {workload} seed {seed} failed "
                         f"(exit {done.returncode})")
    result = json.loads(lines[-1])
    if not result.get("correct"):
        raise SystemExit(f"repeat.py: {workload} seed {seed} incorrect")
    return result


def summary(values: list) -> tuple:
    """(median, q1, q3, IQR / median); quartiles from quantiles(n=4)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def run_set(args, spec: dict) -> dict:
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    values = {}
    for workload in workloads:
        for k in range(args.runs):
            result = run_once(spec, workload, args.seed + k, args.trace)
            print(f"  {workload} seed {args.seed + k}: "
                  f"{result['attempted']} attempted, {result['failed']} failed",
                  file=sys.stderr)
            for name, m in result["metrics"].items():
                values.setdefault(workload, {}).setdefault(
                    name, {"unit": m["unit"], "values": []})
                values[workload][name]["values"].append(m["value"])
    return values


def print_set(values: dict, spec: dict) -> None:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"{'workload':16} {'metric':34} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>7} {'bound':>6}  unit")
    for workload, metrics in values.items():
        for name, m in metrics.items():
            med, q1, q3, spread = summary(m["values"])
            bound = bounds.get(name)
            print(f"{workload:16} {name:34} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:7.3f} {'' if bound is None else bound:>6}  "
                  f"{m['unit']}")


def compare(a: dict, b: dict, spec: dict) -> bool:
    ok = True
    print(f"{'workload':16} {'metric':14} {'median A':>12} {'median B':>12} "
          f"{'B vs A':>8} {'bound':>6}  verdict")
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        lower_better = metric["better"] == "lower"
        for workload in a:
            if name not in a[workload] or name not in b.get(workload, {}):
                continue
            ma = statistics.median(a[workload][name]["values"])
            mb = statistics.median(b[workload][name]["values"])
            change = (mb - ma) / ma if ma else 0.0
            worse = change if lower_better else -change
            verdict = "agree" if worse <= bound else "WORSE"
            ok = ok and verdict == "agree"
            print(f"{workload:16} {name:14} {ma:12.6g} {mb:12.6g} "
                  f"{change:+8.3f} {bound:6}  {verdict}")
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workloads", nargs="*")
    parser.add_argument("--out", help="save the run set as JSON")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two saved run sets")
    args = parser.parse_args()
    spec = load_spec()
    if args.compare:
        a, b = (json.loads(Path(p).read_text()) for p in args.compare)
        agree = compare(a, b, spec)
        print("sets agree within bounds" if agree else
              "sets DISAGREE beyond a bound")
        return 0 if agree else 1
    values = run_set(args, spec)
    print_set(values, spec)
    if args.out:
        Path(args.out).write_text(json.dumps(values, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())

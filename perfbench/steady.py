"""Repeat the benchmark over seeds and summarise each metric's spread.

    python3 perfbench/steady.py --workloads train verify --seeds 1-10 \
        --out perfbench/baseline.json
    python3 perfbench/steady.py --seeds 11-20 --against perfbench/baseline.json

Runs ``perfbench/run.py`` once per (workload, seed), one process at a time,
for BENCHMARK.json's ``run_seconds`` and with the trace setting given, and
records for every metric the values, their median, quartiles
(``statistics.quantiles(values, n=4)``) and spread, the quartile distance
as a share of the median. "metrics" holds those of the result object (the
ones BENCHMARK.json bounds, or the per-layer ones when traced); "printed"
those only printed by name. ``--against`` also prints each bounded metric's
median change against an earlier summary, as a share of that summary's
median, oriented so that positive is worse.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["provenance"] = json.loads(lines[-2])
    result["printed"] = {}
    for line in lines[:-2]:
        name, eq, value, *unit = line.split()
        if eq == "=" and name not in result["metrics"]:
            result["printed"][name] = {"value": float(value), "unit": " ".join(unit)}
    return result


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=None, help="write the summary JSON here")
    p.add_argument("--against", default=None,
                   help="an earlier summary to compare the bounded medians with")
    args = p.parse_args()

    seeds = parse_seeds(args.seeds)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    lower = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}
    before = json.loads(Path(args.against).read_text())["workloads"] if args.against else {}
    summary: dict = {"run_seconds": seconds, "seeds": seeds, "trace": args.trace,
                     "workloads": {}}
    for workload in args.workloads:
        runs = [run_once(workload, seed, seconds, args.trace) for seed in seeds]
        metrics, printed = {}, {}
        for key, table in (("metrics", metrics), ("printed", printed)):
            for name, first in runs[0][key].items():
                stats = summarise([r[key][name]["value"] for r in runs])
                stats["unit"] = first["unit"]
                table[name] = stats
                bound = bounds.get(name) if key == "metrics" else None
                flag = "" if bound is None else f"  bound {bound}  (bound/3 {bound / 3:.3f})"
                old = before.get(workload, {}).get(key, {}).get(name)
                if bound is not None and old:
                    change = stats["median"] / old["median"] - 1.0
                    flag += f"  median change {change if lower[name] else -change:+.4f}"
                print(f"{workload:18s} {name:40s} median {stats['median']:12.5g} "
                      f"spread {stats['spread']:.4f}{flag}")
        summary["workloads"][workload] = {
            "metrics": metrics,
            "printed": printed,
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "all_correct": all(r["correct"] for r in runs),
        }
        summary["machine"] = runs[0]["provenance"]["machine"]
        summary["git_commit"] = runs[0]["provenance"]["git_commit"]
        summary["source_sha256"] = runs[0]["provenance"]["source_sha256"]
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run every workload over ten seeds and record the results.

    python3 perfbench/record_baseline.py --label baseline [--first-seed F]

For each workload in BENCHMARK.json: SEEDS untraced runs (seeds F..F+9) and
TRACED traced runs on the first of those seeds, each as BENCHMARK.json's
command with its run_seconds.  Fails if the traced counters (``reports.cases``
and every ``.calls`` count) differ between seeds.  Writes
perfbench/BENCH_<label>.json: every run's result line, and per end-to-end
metric the median, quartiles and spread, the distance between the quartiles
as a share of the median.  Run it on an otherwise idle machine; each run
lasts run_seconds, or longer where its least number of repetitions does
not fit in that.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import tracing
from run import HERE, ROOT, provenance

SEEDS = 10
TRACED = 2


def bench(spec: dict, workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [*spec["command"], "--workload", workload, "--seed", str(seed),
         "--seconds", str(spec["run_seconds"]), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"{workload} seed={seed} trace={trace} correct={result['correct']} "
          + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                     if trace == 0), flush=True)
    return result


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "n": len(values)}


def counters_across_seeds(workload: str, seeds, traced: list) -> None:
    """The traced counters of a workload do not depend on its seed."""
    first = traced[0]["metrics"]
    for seed, result in zip(seeds[1:], traced[1:]):
        differ = [name for name, metric in first.items() if tracing.is_counter(name)
                  and result["metrics"][name]["value"] != metric["value"]]
        if differ:
            raise SystemExit(f"{workload}: traced counters at seed {seed} differ from "
                             f"seed {seeds[0]}: {', '.join(differ)}")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--label", required=True)
    parser.add_argument("--first-seed", type=int, default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    record = {"label": args.label, "provenance": provenance(),
              "run_seconds": spec["run_seconds"], "workloads": {}}
    seeds = range(args.first_seed, args.first_seed + SEEDS)
    for name in (w["name"] for w in spec["workloads"]):
        runs = [bench(spec, name, seed, 0) for seed in seeds]
        traced = [bench(spec, name, seed, 1) for seed in seeds[:TRACED]]
        counters_across_seeds(name, seeds, traced)
        record["workloads"][name] = {
            "end_to_end": {m["name"]: summary([r["metrics"][m["name"]]["value"] for r in runs])
                           for m in spec["end_to_end"]},
            "all_correct": all(r["correct"] for r in runs + traced),
            "runs": [dict(seed=s, **r) for s, r in zip(seeds, runs)],
            "traced": [dict(seed=s, **r) for s, r in zip(seeds, traced)],
        }
        for metric, stats in record["workloads"][name]["end_to_end"].items():
            print(f"  {name} {metric}: median {stats['median']:.4g} "
                  f"spread {stats['spread']:.3f}", flush=True)
    out = HERE / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Steadiness mode: run every workload repeatedly and print the spread of each metric.

    python3 perfbench/steadiness.py

Each workload of BENCHMARK.json runs ten times for its ``run_seconds``, with
seeds 1 to 10, each run a separate ``run.py`` process, one at a
time.  For every end-to-end metric the report gives the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and their
distance as a share of the median, next to the bound in BENCHMARK.json,
so bounds can be set from measurement.  It also prints the share of failed
operations of each run, which must be the same in every run.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    for workload in (w["name"] for w in config["workloads"]):
        results = []
        for seed in SEEDS:
            res = run_once(workload, seed, config["run_seconds"])
            results.append(res)
            values = " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items())
            print(f"{workload} seed {seed}: correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']} {values}", flush=True)
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"{workload}: failed shares {sorted(shares)}; all correct: "
              f"{all(r['correct'] for r in results)}")
        for name, bound in bounds.items():
            q1, med, q3, share = spread([r["metrics"][name]["value"] for r in results])
            print(f"{workload} {name}: median {med:.5g}  q1 {q1:.5g}  q3 {q3:.5g}  "
                  f"spread {share:.3f} (bound {bound}, target < {bound / 3:.3f})", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --seeds 10 [--workload W ...] [--baseline]

Runs ``run.py`` once per seed and workload, one run at a time, and prints
for each metric the median of the per-run values and the distance between
their first and third quartiles as a share of that median, next to the
metric's bound from ``BENCHMARK.json``.  A metric is steady when its spread
is below a third of its bound.  ``--baseline`` writes the medians, the
machine and the seeds to ``perfbench/baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload: str, seed: int, seconds: int) -> tuple[dict, dict, float]:
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True,
    )
    elapsed = time.monotonic() - start
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1]), elapsed


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", action="append", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--baseline", action="store_true")
    args = parser.parse_args()

    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seeds = list(range(1, args.seeds + 1))
    baseline = {"seeds": seeds, "run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in workloads:
        values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
        elapsed = []
        for seed in seeds:
            info, result, took = one_run(workload, seed, spec["run_seconds"])
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: incorrect output: {info['errors']}")
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            elapsed.append(took)
            baseline["machine"] = info["machine"]
        print(f"{workload}: {len(seeds)} runs, {min(elapsed):.1f}-{max(elapsed):.1f} s each")
        medians = {}
        for metric in spec["end_to_end"]:
            name, vals = metric["name"], values[metric["name"]]
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
            steady = "steady" if spread < metric["bound"] / 3 else "NOT steady"
            print(f"  {name:12s} median {median:12.6g} {metric['unit']:3s} spread {spread:.3f} "
                  f"bound {metric['bound']} {steady}  runs: {' '.join(f'{v:.4g}' for v in vals)}")
            medians[name] = {"median": median, "q1": q1, "q3": q3, "unit": metric["unit"]}
        baseline["workloads"][workload] = medians
    if args.baseline:
        (HERE / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

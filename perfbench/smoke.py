"""Smoke check of the benchmark at its smallest sizes (about a minute).

    python3 perfbench/smoke.py

For every workload it runs ``run.py --tiny`` untraced and traced and checks
that the last line is the result object with every metric of
``BENCHMARK.json`` under its unit, that outputs were correct, that every
metric is also printed for people, and that the traced run reports a self
time for every layer.  It then runs the benchmark in a directory holding
only ``BENCHMARK.json`` and this directory, where it must fail without
printing a result.  Exits 1 on the first problem.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(cwd: Path, *flags: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seconds", "1", *flags],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"smoke: {message}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
            what = f"{workload} --trace {trace}"
            proc = bench(ROOT, "--workload", workload, "--seed", "1", "--trace", trace, "--tiny")
            check(proc.returncode == 0, f"{what} exited {proc.returncode}: {proc.stderr}")
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            check(sorted(result) == ["attempted", "correct", "failed", "metrics"], f"{what}: keys {sorted(result)}")
            check(result["correct"] and result["failed"] == 0, f"{what}: incorrect outputs")
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            check(got == want, f"{what}: metrics {got} != {want}")
            text = "\n".join(lines[:-1])
            for name, unit in want.items():
                check(any(name in line and unit in line for line in lines[:-1]), f"{what}: {name} not printed")
            if trace == "1":
                selfs = [result["metrics"][f"{layer}.self_s"]["value"] for layer in LAYERS]
                check(sum(selfs) > 0, f"{what}: no self time recorded")
                check("trace.overhead_s" in text, f"{what}: no tracing overhead")
            print(f"smoke: {what} ok")

    bare = ROOT / ".bench_work" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = bench(bare, "--workload", spec["workloads"][0]["name"], "--seed", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass
    check(proc.returncode != 0, "run without sources exited 0")
    check(not proc.stdout.strip().endswith("}"), "run without sources printed a result")
    print("smoke: run without sources fails as it should")
    return 0


if __name__ == "__main__":
    sys.exit(main())

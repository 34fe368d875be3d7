"""Record the reference outputs that every benchmark run is checked against.

Run from the repository root, at the commit whose outputs are the reference:

    python3 perfbench/record.py

It writes ``perfbench/reference.json``:

* ``tables_cold``: the sha256 of every CLI payload of one pass;
* ``validate_mc``: a pool of oracle seeds and, per seed and case, the report
  that ``stochint validate`` gives.  A seed joins the pool only when every
  case has |z| < 3 and needs no grid doubling.  The z check is statistical:
  about one case in 370 reaches |z| >= 3 by chance.  A doubling reruns a
  case on twice the grid, so seeds that need one would make runs with
  different seeds do different amounts of work.  Rejected seeds are listed.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import worker  # noqa: E402
from stochint import cli  # noqa: E402

POOL_SIZE = 16


def record_tables(workdir: Path) -> dict:
    os.environ["STOCHINT_CACHE_DIR"] = str(workdir / "cache")
    digests = {}
    for label, kind, argv in worker.tables_requests("record"):
        if kind == "hit":
            continue
        path = workdir / label
        if cli.main(argv + ["--output", str(path)]) != 0:
            raise SystemExit(f"{label} failed")
        digests[label] = hashlib.sha256(path.read_bytes()).hexdigest()
    return {"digests": digests}


def record_validate(workdir: Path) -> dict:
    path = workdir / "report.json"
    pool, rejected, reports = [], [], {}
    seed = 0
    while len(pool) < POOL_SIZE:
        seed += 1
        cases = {}
        for case in worker.VALIDATE_CASES:
            code = cli.main(worker.validate_argv(case, seed) + ["--output", str(path)])
            report = json.loads(path.read_text())["reports"][0] if code == 0 else None
            if report is None or abs(report["z"]) >= 3.0 or report["N"] != worker.VALIDATE_STEPS:
                break
            cases[case] = {k: report[k] for k in ("empirical", "z", "N")}
        else:
            pool.append(seed)
            reports[str(seed)] = cases
            print(f"oracle seed {seed}: {cases}", file=sys.stderr)
            continue
        rejected.append(seed)
    return {
        "paths": worker.VALIDATE_PATHS,
        "steps": worker.VALIDATE_STEPS,
        "dt": worker.VALIDATE_DT,
        "pool": pool,
        "rejected": rejected,
        "reports": reports,
    }


def main() -> int:
    workdir = ROOT / ".bench_work" / "record"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        reference = {
            "tables_cold": record_tables(workdir),
            "validate_mc": record_validate(workdir),
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    worker.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

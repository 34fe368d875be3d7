"""One benchmark session of one workload, in a fresh interpreter.

``run.py`` starts this script once per session with a JSON config as its
only argument.  The session times the import of stochint, then runs units
of work (a pass of CLI requests or of validation requests) until its time
budget is spent, checks every output against ``reference.json``, and prints
one JSON line.

A fresh interpreter per session matters: the exact-arithmetic layers keep
process-wide caches, and the cold cost is what a CLI user pays.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import resource
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

clock = time.perf_counter


# ---------------------------------------------------------------------------
# tables_cold: CLI requests in a fixed order against a fresh cache directory
# ---------------------------------------------------------------------------

#: (k, weights innermost first, q) of the export grid.
EXPORT_KEYS = (
    (2, (0, 0), 30),
    (2, (1, 0), 16),
    (2, (0, 2), 12),
    (3, (0, 0, 0), 8),
    (3, (1, 0, 0), 5),
    (4, (0, 0, 0, 0), 4),
    (5, (0, 0, 0, 0, 0), 2),
)
EXPORT_FORMATS = ("json", "csv")
EXPORT_HITS = 600
ERROR_TABLE_NUMBERS = (1, 2, 3, 38, 41, 42)
# Table 39 at dt=0.001 and pair orders near 235 take minutes in the seed's
# linear scans and diagonal traces; no request here goes near them.
Q_TABLE_REQUESTS = (
    ("qtable-default", []),
    ("qtable-37-dt1e-6", ["--table", "37", "--dt", "1e-6"]),
    ("qtable-39-dt0.01", ["--table", "39", "--dt", "0.01"]),
)


def export_label(k: int, weights: tuple[int, ...], q: int, fmt: str) -> str:
    return f"export-k{k}-w{''.join(map(str, weights))}-q{q}-{fmt}"


def tables_requests(seed: str, tiny: bool = False) -> list[tuple[str, str, list[str]]]:
    """``(label, kind, argv)`` of one pass; ``seed`` orders the cache hits."""
    requests = []
    for n in (4, 20) if tiny else range(4, 37):
        requests.append((f"coeffs-{n}", "coeffs", ["coeffs", "--table", str(n)]))
    misses = []
    for k, weights, q in EXPORT_KEYS[4:5] if tiny else EXPORT_KEYS:
        for fmt in EXPORT_FORMATS:
            argv = ["export", "--k", str(k), "--weights", ",".join(map(str, weights)),
                    "--q", str(q), "--format", fmt]
            misses.append((export_label(k, weights, q, fmt), "miss", argv))
    requests += misses
    hits = [misses[i % len(misses)] for i in range(4 if tiny else EXPORT_HITS)]
    random.Random(seed).shuffle(hits)
    requests += [(label, "hit", argv) for label, _, argv in hits]
    for n in (1,) if tiny else ERROR_TABLE_NUMBERS:
        requests.append((f"error-{n}", "error", ["error-table", "--table", str(n)]))
    for label, flags in Q_TABLE_REQUESTS[:1] if tiny else Q_TABLE_REQUESTS:
        requests.append((label, "qtable", ["q-table", *flags]))
    return requests


def tables_pass(session: "Session", index: int) -> dict:
    from stochint import cli

    digests = session.reference["tables_cold"]["digests"]
    workdir = session.workdir / f"pass-{index}"
    out = workdir / "out"
    out.mkdir(parents=True)
    os.environ["STOCHINT_CACHE_DIR"] = str(workdir / "cache")
    tracer = session.tracer
    miss_bytes: dict[str, bytes] = {}
    groups: dict[str, float] = defaultdict(float)
    requests = tables_requests(f"{session.seed}:{session.child}:{index}", session.tiny)
    for label, kind, argv in requests:
        path = out / ("hit.out" if kind == "hit" else label)
        built = tracer.calls.get("coeffs.coeff_tensor", 0) if tracer else 0
        start = clock()
        code = cli.main(argv + ["--output", str(path)])
        groups[kind] += clock() - start
        if tracer and kind in ("miss", "hit"):
            missed = tracer.calls.get("coeffs.coeff_tensor", 0) > built
            tracer.counters["cli.export_cache_misses" if missed else "cli.export_cache_hits"] += 1
        session.attempted += 1
        if code != 0:
            session.fail(f"{label}: exit {code}")
            continue
        payload = path.read_bytes()
        if kind == "hit":
            if payload != miss_bytes.get(label):
                session.fail(f"{label}: cache hit differs from its miss")
        elif hashlib.sha256(payload).hexdigest() != digests.get(label):
            session.fail(f"{label}: payload digest differs from the reference")
        elif kind == "miss":
            miss_bytes[label] = payload
    return {"wall": sum(groups.values()), "groups": dict(groups),
            "hits": sum(1 for _, kind, _ in requests if kind == "hit")}


# ---------------------------------------------------------------------------
# validate_mc: coupled Monte Carlo validation of the four named cases
# ---------------------------------------------------------------------------

VALIDATE_CASES = ("pair_distinct", "pair_equal_weighted", "pair_weighted_distinct", "triple_distinct")
VALIDATE_STEPS = 2048
VALIDATE_DT = 0.5
VALIDATE_PATHS = 4096


def validate_argv(case: str, oracle_seed: int, paths: int = VALIDATE_PATHS) -> list[str]:
    return ["validate", "--case", case, "--steps", str(VALIDATE_STEPS), "--dt", str(VALIDATE_DT),
            "--seed", str(oracle_seed), "--paths", str(paths)]


def oracle_seed(session: "Session", index: int) -> int:
    pool = session.reference["validate_mc"]["pool"]
    return pool[(session.seed + 7 * session.child + index) % len(pool)]


def validate_pass(session: "Session", index: int) -> dict:
    from stochint import cli, oracle

    seed = oracle_seed(session, index)
    want = session.reference["validate_mc"]["reports"][str(seed)]
    path = session.workdir / "report.json"
    per_case = {}
    for case in VALIDATE_CASES[1:2] if session.tiny else VALIDATE_CASES:
        start = clock()
        code = cli.main(validate_argv(case, seed) + ["--output", str(path)])
        per_case[case] = clock() - start
        session.attempted += 1
        if code != 0:
            session.fail(f"{case} seed {seed}: exit {code}")
            continue
        report = json.loads(path.read_text())["reports"][0]
        expected = want[case]["empirical"]
        if abs(report["z"]) >= 3.0:
            session.fail(f"{case} seed {seed}: |z| = {abs(report['z']):.3f} >= 3")
        elif abs(report["empirical"] - expected) > 1e-12 * abs(expected):
            session.fail(f"{case} seed {seed}: empirical {report['empirical']!r} != {expected!r}")
        if session.tracer:
            components = oracle.VALIDATION_CASES[case].components
            chunks = math.ceil(VALIDATE_PATHS / oracle.PATH_CHUNK)
            grid, counters = VALIDATE_STEPS, session.tracer.counters
            counters["oracle.grid_steps"] += report["N"]
            while grid <= report["N"]:
                counters["oracle.normals_drawn"] += chunks * oracle.PATH_CHUNK * max(components) * grid
                counters["oracle.doublings"] += grid > VALIDATE_STEPS
                grid *= 2
    return {"wall": sum(per_case.values()), "cases": per_case}


def validate_probe(session: "Session") -> None:
    """Time the path simulation and the ζ projection alone, on the same configs."""
    from stochint import expansion, oracle

    cfg = oracle.SimConfig(steps=VALIDATE_STEPS, paths=VALIDATE_PATHS,
                           seed=oracle_seed(session, 0), dt=VALIDATE_DT)
    for name in VALIDATE_CASES[1:2] if session.tiny else VALIDATE_CASES:
        case = oracle.VALIDATION_CASES[name]
        oracle.simulate_iterated(case.spec, expansion.IndexPattern(case.components), cfg)
        oracle.coupled_zeta(cfg, max(case.components), case.jmax)


# ---------------------------------------------------------------------------
# session
# ---------------------------------------------------------------------------

#: The unit of work of each workload, and its probe (run only when traced).
WORKLOADS = {
    "tables_cold": (tables_pass, None),
    "validate_mc": (validate_pass, validate_probe),
}


class Session:
    def __init__(self, config: dict, reference: dict) -> None:
        self.seed = config["seed"]
        self.child = config["child"]
        self.tiny = config["tiny"]
        self.workdir = Path(config["workdir"])
        self.reference = reference
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(message)


def main() -> int:
    config = json.loads(sys.argv[1])
    reference = json.loads(REFERENCE.read_text())
    from tracer import Tracer, install, snapshot_diff, span_cost

    start = clock()
    import stochint  # noqa: F401  (the package imports every layer)

    import_s = clock() - start
    session = Session(config, reference)
    originals = {}
    if config["trace"]:
        session.tracer = Tracer()
        originals = install(session.tracer)
    unit, probe = WORKLOADS[config["workload"]]

    units = []
    deadline = clock() + config["budget"]
    while len(units) < config["min_units"] or clock() < deadline:
        units.append(unit(session, len(units)))
    phases = []
    if session.tracer:
        later = session.tracer.snapshot()
        phases.append({"name": "work", "units": len(units), "spans": later})
        if probe is not None and units:
            probe(session)
            phases.append({"name": "probe", "units": 1,
                           "spans": snapshot_diff(session.tracer.snapshot(), later)})

    result = {
        "stochint": stochint.__file__,
        "setup_s": import_s,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "units": units,
        "attempted": session.attempted,
        "failed": session.failed,
        "errors": session.errors,
        "phases": phases,
    }
    if session.tracer:
        result["span_cost_s"] = span_cost()
    if "basis.legendre_poly" in originals:
        result["legendre_poly_cached"] = originals["basis.legendre_poly"].cache_info().currsize
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

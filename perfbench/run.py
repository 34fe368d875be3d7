"""stochint benchmark: one workload per invocation, run from the repository root.

    python3 perfbench/run.py --workload tables_cold --seed 1 --seconds 40 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

``tables_cold``
    One pass is a fixed list of ``stochint.cli.main`` requests in a fresh
    interpreter with a fresh ``STOCHINT_CACHE_DIR``: coefficient grids
    4..36, export misses over a (k, weights, q) grid in json and csv, 600
    cache hits of those keys in an order the seed shuffles, six error
    tables and three order tables.
``validate_mc``
    ``stochint validate`` of each of the four named cases with 4096 paths
    and 2048 grid steps; the seed picks oracle seeds from a recorded pool.

Every session runs in a fresh interpreter (``worker.py``) because the exact
layers keep process-wide caches.  Each output is checked against
``reference.json``.  End-to-end metrics (``--trace 0``):

``setup_s``      median cold set-up: importing stochint
``wall_s``       median time of one pass of requests
``peak_rss_mb``  median peak resident memory of the measuring sessions

``--trace 1`` wraps every public stochint function in a span and prints
the per-layer metrics, each per pass; ``oracle.simulate_iterated_s`` and
``oracle.coupled_zeta_s`` come from a probe phase after the passes, per probe.
``trace.overhead_s`` is the time the spans add to a pass: their number times
the cost of one span, calibrated in each traced session.  Exit status is 2
when the checkout has no stochint sources and 1 when a session fails to run
or the run cannot end by its deadline, ``seconds + 130`` s after its start.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from tracer import LAYERS
from worker import VALIDATE_CASES, VALIDATE_PATHS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCES = ROOT / "src" / "stochint"

WORKLOADS = ("tables_cold", "validate_mc")
#: Extra sessions that only set up, so that setup_s is a median of several.
SETUP_ONLY = 4
#: validate_mc: measuring sessions that share the time budget, and the passes
#: each makes at least (tables_cold makes one pass per session).
VALIDATE_SESSIONS = 2
VALIDATE_MIN_PASSES = 3
#: Every session must end by ``seconds`` plus this many seconds after the
#: start (170 s at 40 seconds, inside the 180 s a run may take).
DEADLINE_MARGIN_S = 130.0


class SessionError(Exception):
    pass


def summary(values: list[float]) -> tuple[float, float, float]:
    """Median, first and third quartile."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


class Runner:
    def __init__(self, args: argparse.Namespace, workdir: Path) -> None:
        self.args = args
        self.workdir = workdir
        self.deadline = time.monotonic() + args.seconds + DEADLINE_MARGIN_S
        self.count = 0

    def left(self) -> float:
        return self.deadline - time.monotonic()

    def session(self, budget: float, min_units: int, trace: bool) -> dict:
        """Run one worker session and return its parsed result."""
        self.count += 1
        sdir = self.workdir / f"session-{self.count}"
        sdir.mkdir()
        config = {
            "workload": self.args.workload,
            "seed": self.args.seed,
            "child": self.count,
            "budget": budget,
            "min_units": min_units,
            "trace": trace,
            "tiny": self.args.tiny,
            "workdir": str(sdir),
        }
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(sdir))
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), json.dumps(config)],
                cwd=ROOT, env=env, capture_output=True, text=True, timeout=max(self.left(), 1.0),
            )
        except subprocess.TimeoutExpired:
            raise SessionError(f"session {self.count} did not finish in time") from None
        if proc.returncode != 0:
            raise SessionError(f"session {self.count} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not Path(result["stochint"]).resolve().is_relative_to(SOURCES):
            raise SessionError(f"imported stochint from {result['stochint']}, not {SOURCES}")
        return result

    def measure(self, seconds: float, trace: bool, setups: int = 0) -> tuple[list, list]:
        """Measuring sessions that together spend about ``seconds``.

        ``setups`` set-up-only sessions are interleaved with them, so the
        set-up samples come from the whole run.  ``--tiny`` runs a single
        measuring session (tables_cold: one pass).
        """
        tiny = self.args.tiny
        workload = self.args.workload
        measured: list[dict] = []
        setup_only: list[dict] = []

        def measuring(budget: float, min_units: int) -> None:
            if len(setup_only) < setups:
                setup_only.append(self.session(0.0, 0, False))
            measured.append(self.session(budget, min_units, trace))

        if workload == "tables_cold":
            # at least three passes for a median, and no pass that would
            # overrun the budget; a slow program reports the passes that fit
            # before the deadline rather than none
            passes, spent = (1 if tiny else 3), 0.0
            while not measured or (
                (len(measured) < passes or spent + spent / len(measured) <= seconds)
                and 1.5 * spent / len(measured) < self.left()
            ):
                measuring(0.0, 1)
                spent += measured[-1]["units"][0]["wall"]
        else:
            n = 1 if tiny else VALIDATE_SESSIONS
            for _ in range(n):
                measuring(seconds / n, 1 if tiny else VALIDATE_MIN_PASSES)
        while len(setup_only) < setups:
            setup_only.append(self.session(0.0, 0, False))
        return setup_only, measured


def end_to_end(setups: list[dict], sessions: list[dict]) -> dict[str, list[float]]:
    units = [u for s in sessions for u in s["units"]]
    return {
        "setup_s": [s["setup_s"] for s in setups + sessions],
        "wall_s": [u["wall"] for u in units],
        "peak_rss_mb": [s["rss_mb"] for s in sessions],
    }


def details(workload: str, sessions: list[dict]) -> dict[str, tuple[list[float], str]]:
    """The workload's own figures, printed for people; the gate uses end_to_end."""
    units = [u for s in sessions for u in s["units"]]
    if workload == "tables_cold":
        return {
            "coeff_requests_s": ([u["groups"]["coeffs"] + u["groups"]["miss"] for u in units], "s"),
            "qtable_requests_s": ([u["groups"]["qtable"] for u in units], "s"),
            "export_hits_per_s": ([u["hits"] / u["groups"]["hit"] for u in units], "1/s"),
        }
    return {"paths_per_s": ([VALIDATE_PATHS * len(u["cases"]) / u["wall"] for u in units], "1/s")}


def _total(*keys):
    return lambda a: sum(a["total"].get(k, 0.0) for k in keys)


def _counter(name):
    return lambda a: a["counters"].get(name, 0)


#: Per-layer metrics computed from the aggregated spans of one phase.
SPAN_METRICS = {
    **{f"{layer}.self_s": (lambda a, layer=layer: a["self"].get(layer, 0.0)) for layer in LAYERS},
    "coeffs.coeff_tensor_s": _total("coeffs.coeff_tensor"),
    "coeffs.tensor_entries": _counter("coeffs.tensor_entries"),
    "coeffs.serialize_s": _total("coeffs.tensor_to_json", "coeffs.tensor_to_csv"),
    "coeffs.payload_bytes": _counter("coeffs.payload_bytes"),
    "tables.compute_coeff_table_s": _total("tables.compute_coeff_table"),
    "tables.compute_q_table_s": _total("tables.compute_q_table"),
    "qselect.min_q_s": _total("qselect.min_q"),
    "qselect.triple_constant_s": _total("qselect.triple_legendre_error_constant"),
    "errors.series_error_s": _total("errors.series_error"),
    "errors.series_error_calls": lambda a: a["calls"].get("errors.series_error", 0),
    "expansion.pair_series_s": _total("expansion.legendre_double_series"),
    "expansion.calls": lambda a: sum(v for k, v in a["calls"].items() if k.startswith("expansion.")),
    **{f"oracle.{case}_s": _total(f"oracle.validate_expansion[{case}]") for case in VALIDATE_CASES},
    "oracle.grid_steps": _counter("oracle.grid_steps"),
    "oracle.doublings": _counter("oracle.doublings"),
    "oracle.normals_drawn": _counter("oracle.normals_drawn"),
    "oracle.simulate_iterated_s": _total("oracle.simulate_iterated"),
    "oracle.coupled_zeta_s": _total("oracle.coupled_zeta"),
    "cli.export_cache_hits": _counter("cli.export_cache_hits"),
    "cli.export_cache_misses": _counter("cli.export_cache_misses"),
}


#: Metrics of the probe phase; the probes call nothing the measured units call.
PROBE_METRICS = ("oracle.simulate_iterated_s", "oracle.coupled_zeta_s")


def per_layer(traced: list[dict]) -> dict[str, float]:
    """Span metrics per pass, or per probe, over all sessions."""
    phases: dict[str, list] = {}
    for session in traced:
        for phase in session["phases"]:
            phases.setdefault(phase["name"], []).append(phase)

    def per_unit(metric, name: str) -> float:
        group = phases.get(name, [])
        units = sum(p["units"] for p in group)
        return sum(metric(p["spans"]) for p in group) / units if units else 0.0

    out = {
        name: per_unit(metric, "probe" if name in PROBE_METRICS else "work")
        for name, metric in SPAN_METRICS.items()
    }
    out["basis.legendre_poly_cached"] = statistics.median(
        s["legendre_poly_cached"] for s in traced
    )
    spans = per_unit(lambda a: sum(a["calls"].values()), "work")
    out["trace.overhead_s"] = spans * statistics.median(s["span_cost_s"] for s in traced)
    return out


def machine() -> dict:
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SOURCES.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def run(args: argparse.Namespace, runner: Runner, units_of: dict[str, str]) -> tuple[dict, list[dict]]:
    """Print the human-readable figures; return the metrics and all sessions."""
    seconds = args.seconds
    if args.trace:
        traced = runner.measure(seconds, True)[1]
        values = per_layer(traced)
        for name, value in values.items():
            print(f"  {name:34s} {value:14.6g} {units_of[name]}")
        return values, traced
    setups, sessions = runner.measure(seconds, False, 0 if args.tiny else SETUP_ONLY)
    samples = end_to_end(setups, sessions)
    figures = {name: (values, units_of[name]) for name, values in samples.items()}
    figures.update(details(args.workload, sessions))
    for name, (values, unit) in figures.items():
        median, q1, q3 = summary(values)
        spread = (q3 - q1) / median if median else 0.0
        print(f"  {name:18s} median {median:12.6g} {unit:5s} q1 {q1:.6g} q3 {q3:.6g} "
              f"spread {spread:.3f} n={len(values)}")
    metrics = {name: summary(values)[0] for name, values in samples.items()}
    return metrics, setups + sessions


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest sizes, for the smoke check")
    args = parser.parse_args(argv)

    if not (SOURCES / "__init__.py").is_file():
        print(f"run.py: no stochint sources under {SOURCES}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    group = "per_layer" if args.trace else "end_to_end"
    units_of = {m["name"]: m["unit"] for m in spec[group]}
    compileall.compile_dir(SOURCES, quiet=1)

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    runner = Runner(args, workdir)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    try:
        metrics, sessions = run(args, runner, units_of)
    except SessionError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    attempted = sum(s["attempted"] for s in sessions)
    failed = sum(s["failed"] for s in sessions)
    errors = [e for s in sessions for e in s["errors"]][:10]
    print(json.dumps({
        "machine": machine(),
        "workload": args.workload,
        "seed": args.seed,
        "sessions": runner.count,
        "fail_frac": failed / attempted if attempted else 1.0,
        "errors": errors,
    }))
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units_of.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

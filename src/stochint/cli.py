"""Command-line surface: table reproduction, coefficient export, validation.

Subcommands
===========

``coeffs``
    Exact-fraction coefficient tensors, or one numbered reference grid
    via ``--table``.
``error-table``
    Normalized truncation-error rows of the numbered error tables, or a
    raw error series by kind.
``q-table``
    Minimal truncation orders of the numbered order tables.
``validate``
    Coupled Monte Carlo validation of named expansions; exits nonzero
    when any z-score reaches 3.
``export``
    Writes a coefficient tensor to a file together with a run manifest.

All output is deterministic for fixed flags and seed.  ``--format``
switches between JSON and CSV renderings of the same data.  When
``--output`` is given, a manifest with SHA-256 checksums is written next
to the file.  The only environment variable consulted is
``STOCHINT_CACHE_DIR``: when set, ``export`` payloads are cached there.

Exit codes: 0 success; 1 usage error; 2 validation failure; 3 resource
cap exceeded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import uuid
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from pathlib import Path

from . import __version__
from .coeffs import (
    KernelSpec,
    QuadratureError,
    TensorBudgetError,
    coeff_tensor,
    tensor_to_csv,
    tensor_to_json,
)
from .errors import SERIES_KINDS, series_error
from .oracle import (
    GridTooCoarseError,
    OracleBudgetError,
    SimConfig,
    VALIDATION_CASES,
    validate_expansion,
)
from .qselect import QSelectCapError
from .tables import (
    COEFF_TABLES,
    DEFAULT_ERROR_QS,
    ERROR_TABLES,
    Q_TABLES,
    compute_coeff_table,
    compute_error_table,
    compute_q_table,
)

__all__ = ["main", "RunManifest"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_RESOURCE = 3


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage failures exit with status 1."""

    def error(self, message: str) -> None:  # noqa: A003 - argparse API
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


@dataclass(frozen=True)
class RunManifest:
    """Reproducibility record for one command invocation.

    Two runs with identical manifests produce byte-identical outputs:
    every input that influences the output (command, parameters, seed,
    tool version) is recorded, along with checksums of what was written.
    """

    command: str
    parameters: dict
    seed: int | None
    version: str
    outputs: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "command": self.command,
            "parameters": self.parameters,
            "seed": self.seed,
            "version": self.version,
            "outputs": self.outputs,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunManifest":
        return cls(
            command=data["command"],
            parameters=data["parameters"],
            seed=data["seed"],
            version=data["version"],
            outputs=data["outputs"],
        )

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True) + "\n"


def _emit(payload: str, args: argparse.Namespace, parameters: dict) -> None:
    """Write payload to stdout or to ``--output`` plus a manifest."""
    output = getattr(args, "output", None)
    if output is None:
        sys.stdout.write(payload)
        return
    path = Path(output)
    data = payload.encode()
    path.write_bytes(data)
    manifest = RunManifest(
        command=args.command,
        parameters=parameters,
        seed=getattr(args, "seed", None),
        version=__version__,
        outputs={path.name: hashlib.sha256(data).hexdigest()},
    )
    Path(str(path) + ".manifest.json").write_text(manifest.to_json())


def _ints(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part != ""]


def _positive(text: str) -> float:
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive finite number")
    return value


def _floats(text: str) -> list[float]:
    return [_positive(part) for part in text.split(",") if part != ""]


def _frac_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


# ---------------------------------------------------------------------------
# coeffs / export
# ---------------------------------------------------------------------------


def _coeff_grid_payload(number: int, fmt: str) -> str:
    layout = COEFF_TABLES[number]
    grid = compute_coeff_table(number)
    if fmt == "json":
        doc = {
            "table": number,
            "multiplicity": layout.spec.k,
            "weights": list(layout.spec.weights),
            "row_label": layout.row_label,
            "col_label": layout.col_label,
            "cells": [
                [
                    {
                        "num": c.numerator,
                        "den": c.denominator,
                        "float": float(c),
                    }
                    for c in row
                ]
                for row in grid
            ],
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    lines = [",".join(["row"] + [str(c) for c in range(layout.cols)])]
    for r, row in enumerate(grid):
        lines.append(",".join([str(r)] + [_frac_str(c) for c in row]))
    return "\n".join(lines) + "\n"


def _tensor_payload(args: argparse.Namespace) -> str:
    weights = tuple(args.weights) if args.weights is not None else (0,) * args.k
    tensor = coeff_tensor(KernelSpec(args.k, weights), args.q, threads=args.threads)
    if args.format == "json":
        return tensor_to_json(tensor)
    return tensor_to_csv(tensor)


def _cmd_coeffs(args: argparse.Namespace) -> int:
    if args.table is not None:
        if args.table not in COEFF_TABLES:
            sys.stderr.write(
                f"stochint coeffs: no coefficient table {args.table} (available 4..36)\n"
            )
            return EXIT_USAGE
        payload = _coeff_grid_payload(args.table, args.format)
        _emit(payload, args, {"table": args.table, "format": args.format})
        return EXIT_OK
    if args.k is None:
        sys.stderr.write("stochint coeffs: provide --table or --k\n")
        return EXIT_USAGE
    payload = _tensor_payload(args)
    _emit(
        payload,
        args,
        {
            "k": args.k,
            "weights": list(args.weights) if args.weights is not None else None,
            "q": args.q,
            "format": args.format,
        },
    )
    return EXIT_OK


def _cache_path(key: str) -> Path | None:
    cache_dir = os.environ.get("STOCHINT_CACHE_DIR")
    if not cache_dir:
        return None
    root = Path(cache_dir)
    root.mkdir(parents=True, exist_ok=True)
    return root / (hashlib.sha256(key.encode()).hexdigest() + ".payload")


def _write_atomic(path: Path, text: str) -> None:
    """Write ``text`` beside ``path`` and rename it over ``path``; a failure leaves neither."""
    # A unique name opened like ``path`` would be, so the entry keeps the umask mode.
    tmp = path.with_name(f"{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _cmd_export(args: argparse.Namespace) -> int:
    weights = tuple(args.weights) if args.weights is not None else (0,) * args.k
    key = f"{__version__}:export:{args.k}:{weights}:{args.q}:{args.format}"
    cached = _cache_path(key)
    if cached is not None and cached.exists():
        payload = cached.read_text()
    else:
        payload = _tensor_payload(args)
        if cached is not None:
            _write_atomic(cached, payload)
    _emit(
        payload,
        args,
        {
            "k": args.k,
            "weights": list(weights),
            "q": args.q,
            "format": args.format,
        },
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# error-table / q-table
# ---------------------------------------------------------------------------


def _cmd_error_table(args: argparse.Namespace) -> int:
    qs = args.q if args.q is not None else list(DEFAULT_ERROR_QS)
    if args.table is not None:
        if args.table not in ERROR_TABLES:
            sys.stderr.write(
                f"stochint error-table: no error table {args.table} "
                f"(available {sorted(ERROR_TABLES)})\n"
            )
            return EXIT_USAGE
        spec = ERROR_TABLES[args.table]
        values = compute_error_table(args.table, qs)
        doc = {
            "table": args.table,
            "kind": spec.series,
            "normalization": {"factor": spec.factor, "power": spec.power},
            "q": qs,
            "values": values,
        }
        parameters = {"table": args.table, "q": qs, "format": args.format}
    elif args.kind is not None:
        if args.kind not in SERIES_KINDS:
            sys.stderr.write(
                f"stochint error-table: unknown kind {args.kind!r} "
                f"(available {', '.join(SERIES_KINDS)})\n"
            )
            return EXIT_USAGE
        values = [series_error(args.kind, q, args.dt) for q in qs]
        doc = {"kind": args.kind, "dt": args.dt, "q": qs, "values": values}
        parameters = {"kind": args.kind, "dt": args.dt, "q": qs, "format": args.format}
    else:
        sys.stderr.write("stochint error-table: provide --table or --kind\n")
        return EXIT_USAGE
    if args.format == "json":
        payload = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    else:
        lines = ["q,value"] + [f"{q},{v!r}" for q, v in zip(qs, values)]
        payload = "\n".join(lines) + "\n"
    _emit(payload, args, parameters)
    return EXIT_OK


def _q_table_doc(number: int, dts: list[float] | None, threads: int) -> dict:
    table = Q_TABLES[number]
    used = list(dts) if dts is not None else list(table.dts)
    columns = compute_q_table(number, used, threads=threads)
    return {"table": number, "dt": used, "columns": columns}


def _cmd_q_table(args: argparse.Namespace) -> int:
    numbers = [args.table] if args.table is not None else sorted(Q_TABLES)
    for n in numbers:
        if n not in Q_TABLES:
            sys.stderr.write(
                f"stochint q-table: no truncation-order table {n} "
                f"(available {sorted(Q_TABLES)})\n"
            )
            return EXIT_USAGE
    docs = [_q_table_doc(n, args.dt, args.threads) for n in numbers]
    parameters = {"table": args.table, "dt": args.dt, "format": args.format}
    if args.format == "json":
        body = docs[0] if args.table is not None else {"tables": {str(d["table"]): d for d in docs}}
        payload = json.dumps(body, indent=2, sort_keys=True) + "\n"
    else:
        sections = []
        for doc in docs:
            names = list(doc["columns"])
            lines = [",".join(["dt"] + names)]
            for i, dt in enumerate(doc["dt"]):
                lines.append(",".join([repr(dt)] + [str(doc["columns"][c][i]) for c in names]))
            sections.append("\n".join(lines))
        payload = "\n\n".join(sections) + "\n"
    _emit(payload, args, parameters)
    return EXIT_OK


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def _cmd_validate(args: argparse.Namespace) -> int:
    cases = args.case if args.case else sorted(VALIDATION_CASES)
    for case in cases:
        if case not in VALIDATION_CASES:
            sys.stderr.write(
                f"stochint validate: unknown case {case!r} "
                f"(available {', '.join(sorted(VALIDATION_CASES))})\n"
            )
            return EXIT_USAGE
    cfg = SimConfig(
        steps=args.steps, paths=args.paths, seed=args.seed, dt=args.dt, calculus="ito"
    )
    reports = []
    for case in cases:
        try:
            reports.append(validate_expansion(case, cfg, workers=args.threads).as_dict())
        except GridTooCoarseError as exc:
            sys.stderr.write(f"stochint validate: {case}: {exc}\n")
            return EXIT_VALIDATION
    passed = all(abs(r["z"]) < 3.0 for r in reports)
    doc = {"reports": reports, "passed": passed}
    if args.format == "json":
        payload = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    else:
        cols = ["case", "q", "dt", "N", "P", "empirical", "theoretical", "z", "stat_err", "bias"]
        lines = [",".join(cols)]
        for r in reports:
            lines.append(",".join(str(r[c]) for c in cols))
        payload = "\n".join(lines) + "\n"
    _emit(
        payload,
        args,
        {
            "case": cases,
            "paths": args.paths,
            "steps": args.steps,
            "dt": args.dt,
            "format": args.format,
        },
    )
    return EXIT_OK if passed else EXIT_VALIDATION


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="stochint", description=__doc__.split("\n", 1)[0])
    parser.add_argument("--version", action="version", version=f"stochint {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: _Parser, workers: bool = False) -> None:
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--output", help="write payload to this file (with manifest)")
        if workers:
            p.add_argument(
                "--threads", type=int,
                help="oracle worker processes (default: usable CPUs); outputs do not depend on it",
            )
        else:
            p.add_argument("--threads", type=int, default=1, help="accepted; has no effect")

    p = sub.add_parser("coeffs", help="exact coefficient tensors and reference grids")
    p.add_argument("--table", type=int, help="numbered coefficient grid (4..36)")
    p.add_argument("--k", type=int, help="multiplicity of the kernel")
    p.add_argument("--weights", type=_ints, help="comma-separated weight exponents")
    p.add_argument("--q", type=int, default=2, help="truncation order per index")
    common(p)
    p.set_defaults(func=_cmd_coeffs)

    p = sub.add_parser("error-table", help="normalized truncation-error tables")
    p.add_argument("--table", type=int, help="numbered error table (1,2,3,38,41,42)")
    p.add_argument("--kind", help="error series kind (raw values at --dt)")
    p.add_argument("--q", type=_ints, help="comma-separated truncation orders")
    p.add_argument("--dt", type=_positive, default=1.0, help="interval length for --kind mode")
    common(p)
    p.set_defaults(func=_cmd_error_table)

    p = sub.add_parser("q-table", help="minimal truncation-order tables")
    p.add_argument("--table", type=int, help="numbered order table (37, 39, 40)")
    p.add_argument("--dt", type=_floats, help="comma-separated interval lengths")
    common(p)
    p.set_defaults(func=_cmd_q_table)

    p = sub.add_parser("validate", help="coupled Monte Carlo validation")
    p.add_argument(
        "--case", action="append", help="named validation case (repeatable; default all)"
    )
    p.add_argument("--paths", type=int, default=20000)
    p.add_argument("--steps", type=int, default=1024)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--dt", type=_positive, default=0.5)
    common(p, workers=True)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("export", help="write a coefficient tensor with manifest")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--weights", type=_ints)
    p.add_argument("--q", type=int, required=True)
    common(p)
    p.set_defaults(func=_cmd_export)
    return parser


@cache
def _parser() -> _Parser:
    """The parser, built on the first :func:`main` call and reused for the process.

    ``parse_args`` returns a fresh namespace on every call, so no value
    carries from one call to the next.
    """
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if getattr(args, "paths", None) is not None and args.paths < 1:
        sys.stderr.write("stochint validate: --paths must be at least 1\n")
        return EXIT_USAGE
    if getattr(args, "steps", None) is not None and args.steps < 2:
        sys.stderr.write("stochint validate: --steps must be at least 2\n")
        return EXIT_USAGE
    if getattr(args, "threads", None) is not None and args.threads < 1:
        sys.stderr.write("stochint: --threads must be at least 1\n")
        return EXIT_USAGE
    if getattr(args, "q", None) is not None and isinstance(args.q, int) and args.q < 0:
        sys.stderr.write("stochint: --q must be nonnegative\n")
        return EXIT_USAGE
    if args.command == "export" and args.output is None:
        sys.stderr.write("stochint export: --output is required\n")
        return EXIT_USAGE
    try:
        return args.func(args)
    except (TensorBudgetError, QSelectCapError, QuadratureError, OracleBudgetError) as exc:
        sys.stderr.write(f"stochint: resource cap: {exc}\n")
        return EXIT_RESOURCE
    except ValueError as exc:
        sys.stderr.write(f"stochint: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())

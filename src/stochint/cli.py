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
    when any z-score reaches 3.  Its ``--threads`` sets the number of
    oracle worker processes; no other subcommand has that flag.
``export``
    Writes a coefficient tensor to a file together with a run manifest.

All output is deterministic for fixed flags and seed.  ``--format``
switches between JSON and CSV renderings of the same data.  When
``--output`` is given, a manifest with SHA-256 checksums is written next
to the file.  Both are written in place, over any old bytes, and a regular
file is then cut to the new length; the write is neither atomic nor synced
to disk, so a reader that races it, or a crash, can leave a torn file,
which the manifest's SHA-256 detects.  The only environment variable
consulted is ``STOCHINT_CACHE_DIR``: when set, ``export`` payloads are
cached there, each entry with its payload's SHA-256; an entry that fails it
is a miss.  Cache entries, which processes share, are written to a unique
name and renamed into place, so a reader sees a whole entry or none.

The parser checks every numeric and named flag by the library's own
integer, float and name rules (``basis._checked_int``, ``_checked_float``
and ``_checked_name``) before any work starts, so a flag has the range and
the message of the argument it becomes: ``--k`` is a multiplicity (1..5),
``--paths`` at least 1, ``--steps`` at least 2, ``--threads`` a worker count
of at least 1, a ``--dt`` an interval length, or for ``q-table`` a step size
in (0, 1).  The error quotes the flag's text; a token such as ``-1,0``,
``-inf`` or ``-nan`` is read as a value, not as a flag.  The library rejects
unknown table numbers.  Each subcommand answers a document, its CSV rows and
the manifest parameters, and one renderer writes the payload.

Exit codes: 0 success; 1 usage error, or a file that cannot be written (an
``OSError``, reported in one line); 2 validation failure; 3 resource cap
exceeded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import stat
import sys
from dataclasses import dataclass, field
from functools import cache
from pathlib import Path
from typing import Callable, Iterable, NamedTuple

from . import __version__
from .basis import _checked_float, _checked_int, _checked_name, _listing
from .coeffs import KernelSpec, TensorBudgetError, coeff_tensor, tensor_to_csv, tensor_to_json
from .errors import SERIES_KINDS, SeriesCapError, series_error
from .oracle import (
    GridTooCoarseError, OracleBudgetError, SimConfig, VALIDATION_CASES, validate_expansion,
)
from .qselect import QSelectCapError
from .tables import (
    COEFF_TABLES, DEFAULT_ERROR_QS, ERROR_TABLES, Q_TABLES,
    compute_coeff_table, compute_error_table, compute_q_table,
)

__all__ = ["main", "RunManifest"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_RESOURCE = 3


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage failures exit with status 1.

    A token that starts with ``-`` and a digit, such as ``-1,0``, or that is
    ``-inf``, ``-infinity`` or ``-nan`` in any case, is read as a value: no
    flag of this tool looks like that, and the range checks then name the
    flag and the value.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\.?\d|(inf|infinity|nan)\b)", re.I)

    def error(self, message: str) -> None:  # noqa: A003 - argparse API
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _json(obj: object) -> str:
    """The JSON rendering of payloads and manifests: indented, keys sorted."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


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
        """The fields by name; ``parameters`` and ``outputs`` are this manifest's own dicts."""
        return {
            "command": self.command, "parameters": self.parameters, "seed": self.seed,
            "version": self.version, "outputs": self.outputs,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunManifest":
        return cls(**data)

    def to_json(self) -> str:
        return _json(self.as_dict())


class _Reply(NamedTuple):
    """A subcommand's answer: the JSON document (or the payload text a library
    serializer or the export cache already rendered), its CSV rows, the
    manifest parameters, the exit code and, when the export cache already
    hashed the payload, its SHA-256."""

    doc: dict | str
    rows: list[list]
    parameters: dict
    code: int = EXIT_OK
    digest: str | None = None


def _payload(fmt: str, doc: dict | str, rows: Iterable[list]) -> str:
    """``doc`` as JSON, or ``rows`` as CSV lines (an empty row is an empty line)."""
    if isinstance(doc, str):
        return doc
    if fmt == "json":
        return _json(doc)
    return "".join(",".join(map(str, row)) + "\n" for row in rows)


def _write_over(path: str, data: bytes) -> None:
    """Write ``data`` over the file at ``path`` and cut a regular file to its length.

    The old bytes are overwritten in place rather than truncated first: on
    ext4 a file truncated to zero is flushed when it is closed.  The write
    is neither atomic nor synced to disk.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def _emit(
    payload: str, args: argparse.Namespace, parameters: dict, digest: str | None = None
) -> None:
    """Write payload to stdout or to ``--output`` plus a manifest.

    ``digest`` is the payload's SHA-256 when the caller already has it.
    """
    if args.output is None:
        sys.stdout.write(payload)
        return
    data = payload.encode()
    manifest = RunManifest(
        command=args.command,
        parameters=parameters,
        seed=getattr(args, "seed", None),
        version=__version__,
        outputs={os.path.basename(args.output): digest or hashlib.sha256(data).hexdigest()},
    )
    _write_over(args.output, data)
    _write_over(args.output + ".manifest.json", manifest.to_json().encode())


def _flag(rule: Callable, convert: Callable[[str], object], *args, each: bool = False):
    """Argument type: ``rule(convert(text), *args)`` with ``rule`` one of the library's
    boundary rules, or with ``each`` a list of that per comma-separated part (empty
    parts skipped).  A refused value is a usage error that quotes the flag's text."""

    def parse(text: str):
        try:
            if each:
                return [rule(convert(part), *args) for part in text.split(",") if part != ""]
            return rule(convert(text), *args)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"{text!r}: {exc}") from None

    return parse


# ---------------------------------------------------------------------------
# coeffs / export
# ---------------------------------------------------------------------------


def _spec(args: argparse.Namespace) -> KernelSpec:
    """The kernel of ``--k`` and ``--weights``, unweighted when no weights are given."""
    if args.weights is None:
        return KernelSpec.unweighted(args.k)
    return KernelSpec(args.k, tuple(args.weights))


def _tensor_text(args: argparse.Namespace, spec: KernelSpec) -> str:
    tensor = coeff_tensor(spec, args.q)
    return tensor_to_json(tensor) if args.format == "json" else tensor_to_csv(tensor)


def _cmd_coeffs(args: argparse.Namespace) -> _Reply:
    if args.table is not None:
        grid = compute_coeff_table(args.table)
        layout = COEFF_TABLES[args.table]
        doc = {
            "table": args.table,
            "multiplicity": layout.spec.k,
            "weights": list(layout.spec.weights),
            "row_label": layout.row_label,
            "col_label": layout.col_label,
            "cells": [
                [{"num": c.numerator, "den": c.denominator, "float": float(c)} for c in row]
                for row in grid
            ],
        }
        rows = [["row", *range(layout.cols)]] + [
            [r, *(f"{c.numerator}/{c.denominator}" for c in row)] for r, row in enumerate(grid)
        ]
        return _Reply(doc, rows, {"table": args.table, "format": args.format})
    if args.k is None:
        raise ValueError("provide --table or --k")
    parameters = {"k": args.k, "weights": args.weights, "q": args.q, "format": args.format}
    return _Reply(_tensor_text(args, _spec(args)), [], parameters)


def _cache_path(key: str) -> Path | None:
    cache_dir = os.environ.get("STOCHINT_CACHE_DIR")
    if not cache_dir:
        return None
    return Path(cache_dir) / (hashlib.sha256(key.encode()).hexdigest() + ".payload")


def _read_entry(path: Path) -> tuple[str, str] | None:
    """The payload of cache entry ``path`` and its SHA-256: None when there is
    no entry or it fails the SHA-256 on its first line, so a corrupt entry is a miss."""
    try:
        digest, _, data = path.read_bytes().partition(b"\n")
    except FileNotFoundError:
        return None
    if digest != hashlib.sha256(data).hexdigest().encode():
        return None
    return data.decode(), digest.decode()


def _write_atomic(path: Path, text: str) -> None:
    """Write ``text`` beside ``path`` and rename it over ``path``; a failure leaves neither."""
    # A unique name opened like ``path`` would be, so the entry keeps the umask mode.
    tmp = path.with_name(f"{path.name}.{os.urandom(16).hex()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _cmd_export(args: argparse.Namespace) -> _Reply:
    spec = _spec(args)
    key = f"{__version__}:export:{args.k}:{spec.weights}:{args.q}:{args.format}"
    cached = _cache_path(key)
    entry = _read_entry(cached) if cached is not None else None
    if entry is not None:
        payload, digest = entry
    else:
        payload = _tensor_text(args, spec)
        digest = hashlib.sha256(payload.encode()).hexdigest()
        if cached is not None:
            cached.parent.mkdir(parents=True, exist_ok=True)
            _write_atomic(cached, f"{digest}\n{payload}")
    parameters = {"k": args.k, "weights": list(spec.weights), "q": args.q, "format": args.format}
    return _Reply(payload, [], parameters, digest=digest)


# ---------------------------------------------------------------------------
# error-table / q-table
# ---------------------------------------------------------------------------


def _cmd_error_table(args: argparse.Namespace) -> _Reply:
    qs = args.q if args.q is not None else list(DEFAULT_ERROR_QS)
    if args.table is not None:
        values = compute_error_table(args.table, qs)
        spec = ERROR_TABLES[args.table]
        doc = {
            "table": args.table,
            "kind": spec.series,
            "normalization": {"factor": spec.factor, "power": spec.power},
            "q": qs,
            "values": values,
        }
        parameters = {"table": args.table, "q": qs, "format": args.format}
    elif args.kind is not None:
        values = [series_error(args.kind, q, args.dt) for q in qs]
        doc = {"kind": args.kind, "dt": args.dt, "q": qs, "values": values}
        parameters = {"kind": args.kind, "dt": args.dt, "q": qs, "format": args.format}
    else:
        raise ValueError("provide --table or --kind")
    return _Reply(doc, [["q", "value"], *zip(qs, values)], parameters)


def _cmd_q_table(args: argparse.Namespace) -> _Reply:
    numbers = [args.table] if args.table is not None else sorted(Q_TABLES)
    docs, rows = [], []
    for number in numbers:
        columns = compute_q_table(number, args.dt)
        dts = list(args.dt if args.dt is not None else Q_TABLES[number].dts)
        docs.append({"table": number, "dt": dts, "columns": columns})
        if rows:
            rows.append([])  # an empty line between tables
        rows.append(["dt", *columns])
        rows += ([dt, *(column[i] for column in columns.values())] for i, dt in enumerate(dts))
    doc = docs[0] if args.table is not None else {"tables": {str(d["table"]): d for d in docs}}
    return _Reply(doc, rows, {"table": args.table, "dt": args.dt, "format": args.format})


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def _cmd_validate(args: argparse.Namespace) -> _Reply:
    cases = args.case or sorted(VALIDATION_CASES)
    cfg = SimConfig(
        steps=args.steps, paths=args.paths, seed=args.seed, dt=args.dt, calculus="ito"
    )
    reports = []
    for case in cases:
        try:
            reports.append(validate_expansion(case, cfg, workers=args.threads).as_dict())
        except GridTooCoarseError as exc:
            raise GridTooCoarseError(f"{case}: {exc}", exc.bias, exc.stat_err, exc.steps)
    passed = all(abs(r["z"]) < 3.0 for r in reports)
    cols = ["case", "q", "dt", "N", "P", "empirical", "theoretical", "z", "stat_err", "bias"]
    return _Reply(
        {"reports": reports, "passed": passed},
        [cols] + [[r[c] for c in cols] for r in reports],
        {"case": cases, "paths": args.paths, "steps": args.steps, "dt": args.dt,
         "format": args.format},
        EXIT_OK if passed else EXIT_VALIDATION,
    )


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="stochint", description=__doc__.split("\n", 1)[0])
    parser.add_argument("--version", action="version", version=f"stochint {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    multiplicity = _flag(_checked_int, int, "multiplicity", 1, 5)
    weights = _flag(_checked_int, int, "weight exponent", each=True)
    order = _flag(_checked_int, int, "truncation order")
    interval = _flag(_checked_float, float, "interval length")

    def common(p: _Parser, output_required: bool = False) -> None:
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument(
            "--output", required=output_required,
            help="write payload to this file (with manifest)",
        )

    p = sub.add_parser("coeffs", help="exact coefficient tensors and reference grids")
    p.add_argument(
        "--table", type=int, help=f"numbered coefficient grid ({_listing(COEFF_TABLES)})"
    )
    p.add_argument("--k", type=multiplicity, help="multiplicity of the kernel (1..5)")
    p.add_argument("--weights", type=weights, help="comma-separated weight exponents")
    p.add_argument("--q", type=order, default=2, help="truncation order per index")
    common(p)
    p.set_defaults(func=_cmd_coeffs)

    p = sub.add_parser("error-table", help="normalized truncation-error tables")
    p.add_argument("--table", type=int, help=f"numbered error table ({_listing(ERROR_TABLES)})")
    p.add_argument(
        "--kind", type=_flag(_checked_name, str, SERIES_KINDS, "kind"),
        help="error series kind (raw values at --dt)",
    )
    p.add_argument(
        "--q", type=_flag(_checked_int, int, "truncation order", each=True),
        help="comma-separated truncation orders",
    )
    p.add_argument("--dt", type=interval, default=1.0, help="interval length for --kind mode")
    common(p)
    p.set_defaults(func=_cmd_error_table)

    p = sub.add_parser("q-table", help="minimal truncation-order tables")
    p.add_argument("--table", type=int, help=f"numbered order table ({_listing(Q_TABLES)})")
    p.add_argument(
        "--dt", type=_flag(_checked_float, float, "step size", 0.0, 1.0, each=True),
        help="comma-separated interval lengths",
    )
    common(p)
    p.set_defaults(func=_cmd_q_table)

    p = sub.add_parser("validate", help="coupled Monte Carlo validation")
    p.add_argument(
        "--case", action="append", type=_flag(_checked_name, str, VALIDATION_CASES, "case"),
        help="named validation case (repeatable; default all)",
    )
    p.add_argument("--paths", type=_flag(_checked_int, int, "paths", 1), default=20000)
    p.add_argument("--steps", type=_flag(_checked_int, int, "steps", 2), default=1024)
    p.add_argument("--seed", type=_flag(_checked_int, int, "seed"), default=42)
    p.add_argument("--dt", type=interval, default=0.5)
    p.add_argument(
        "--threads", type=_flag(_checked_int, int, "worker count", 1),
        help="oracle worker processes (default: usable CPUs); outputs do not depend on it",
    )
    common(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("export", help="write a coefficient tensor with manifest")
    p.add_argument("--k", type=multiplicity, required=True, help="multiplicity (1..5)")
    p.add_argument("--weights", type=weights)
    p.add_argument("--q", type=order, required=True)
    common(p, output_required=True)
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
    prog = f"stochint {args.command}"
    try:
        reply = args.func(args)
        _emit(_payload(args.format, reply.doc, reply.rows), args, reply.parameters, reply.digest)
    except (TensorBudgetError, QSelectCapError, OracleBudgetError, SeriesCapError) as exc:
        sys.stderr.write(f"{prog}: resource cap: {exc}\n")
        return EXIT_RESOURCE
    except GridTooCoarseError as exc:
        sys.stderr.write(f"{prog}: {exc}\n")
        return EXIT_VALIDATION
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"{prog}: {exc}\n")
        return EXIT_USAGE
    return reply.code


if __name__ == "__main__":
    raise SystemExit(main())

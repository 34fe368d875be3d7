"""The benchmark's workloads, replayed once against their reference outputs.

``perfbench/worker.py`` refuses a session whose payloads differ from
``perfbench/reference.json``, and a ``validate_mc`` session whose reports
move beyond its tolerance.  One ``tables_cold`` pass and the four
``validate_mc`` cases of one pool seed here make such a change fail in the
test suite first.  Only ``perfbench/worker.py`` and
``perfbench/reference.json`` are read, and nothing is written under
``perfbench/``.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from stochint import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def worker(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_worker", PERFBENCH / "worker.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tables_pass_matches_reference_digests(worker, tmp_path, monkeypatch):
    digests = json.loads((PERFBENCH / "reference.json").read_text())["tables_cold"]["digests"]
    monkeypatch.setenv("STOCHINT_CACHE_DIR", str(tmp_path / "cache"))
    requests = worker.tables_requests("replay")
    assert {kind for _, kind, _ in requests} == {"coeffs", "miss", "hit", "error", "qtable"}
    for label, kind, argv in requests:
        path = tmp_path / label
        assert cli.main(argv + ["--output", str(path)]) == 0, label
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digests[label], (label, kind)


def test_validate_cases_match_reference_reports(worker, tmp_path):
    reference = json.loads((PERFBENCH / "reference.json").read_text())["validate_mc"]
    seed = reference["pool"][0]
    path = tmp_path / "report.json"
    for case in worker.VALIDATE_CASES:
        assert cli.main(worker.validate_argv(case, seed) + ["--output", str(path)]) == 0, case
        report = json.loads(path.read_text())["reports"][0]
        expected = reference["reports"][str(seed)][case]["empirical"]
        # The worker's checks: |z| below 3, and empirical to rel 1e-12.
        assert abs(report["z"]) < 3.0, case
        assert abs(report["empirical"] - expected) <= 1e-12 * abs(expected), case

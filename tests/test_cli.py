"""Command-line interface: payloads, exit codes, manifests, caching."""

from __future__ import annotations

import json
import hashlib
import os
import stat
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from stochint.cli import (
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_USAGE,
    EXIT_VALIDATION,
    RunManifest,
    _parser,
    main,
)
from stochint.errors import series_error
from stochint.tables import compute_q_table

from conftest import printed_match


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCoeffs:
    def test_table_grid_json(self, capsys):
        code, out, _ = run_cli(capsys, "coeffs", "--table", "4")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["table"] == 4
        assert doc["multiplicity"] == 3
        cell = doc["cells"][0][0]
        assert (cell["num"], cell["den"]) == (4, 3)

    def test_weighted_table_cell(self, capsys):
        code, out, _ = run_cli(capsys, "coeffs", "--table", "20")
        assert code == EXIT_OK
        cell = json.loads(out)["cells"][0][0]
        assert (cell["num"], cell["den"]) == (-2, 1)

    def test_csv_json_parity(self, capsys):
        code, out_json, _ = run_cli(capsys, "coeffs", "--table", "11")
        assert code == EXIT_OK
        code, out_csv, _ = run_cli(capsys, "coeffs", "--table", "11",
                                   "--format", "csv")
        assert code == EXIT_OK
        doc = json.loads(out_json)
        lines = out_csv.strip().split("\n")
        assert lines[0] == "row,0,1,2"
        for r, line in enumerate(lines[1:]):
            parts = line.split(",")
            assert parts[0] == str(r)
            for c, text in enumerate(parts[1:]):
                cell = doc["cells"][r][c]
                assert Fraction(text) == Fraction(cell["num"], cell["den"])

    def test_single_integral_tensor(self, capsys):
        code, out, _ = run_cli(
            capsys, "coeffs", "--k", "1", "--weights", "0", "--q", "2"
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["k"] == 1 and doc["q"] == 2
        values = {tuple(e["j"]): Fraction(e["num"], e["den"]) for e in doc["entries"]}
        assert values == {(0,): Fraction(2), (1,): Fraction(0), (2,): Fraction(0)}

    def test_missing_selector(self, capsys):
        code, _, err = run_cli(capsys, "coeffs")
        assert code == EXIT_USAGE
        assert "--table or --k" in err

    def test_unknown_table(self, capsys):
        code, _, err = run_cli(capsys, "coeffs", "--table", "99")
        assert code == EXIT_USAGE
        assert "99" in err

    def test_budget_cap(self, capsys):
        code, _, err = run_cli(capsys, "coeffs", "--k", "5", "--q", "25")
        assert code == EXIT_RESOURCE
        assert "resource cap" in err

    def test_negative_q(self, capsys):
        code, _, _ = run_cli(capsys, "coeffs", "--k", "2", "--q", "-1")
        assert code == EXIT_USAGE


class TestErrorTable:
    def test_numbered_table_matches_reference(self, capsys, printed):
        code, out, _ = run_cli(capsys, "error-table", "--table", "2")
        assert code == EXIT_OK
        doc = json.loads(out)
        reference = printed["error_tables"]["2"]
        assert doc["q"] == reference["q"]
        for value, text in zip(doc["values"], reference["values"]):
            assert printed_match(value, text)

    def test_raw_kind(self, capsys):
        code, out, _ = run_cli(
            capsys, "error-table", "--kind", "pair_legendre",
            "--q", "1,10", "--dt", "0.5",
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["values"] == [
            series_error("pair_legendre", 1, 0.5),
            series_error("pair_legendre", 10, 0.5),
        ]

    def test_csv_round_trip(self, capsys):
        code, out, _ = run_cli(
            capsys, "error-table", "--kind", "pair_trig", "--q", "3",
            "--format", "csv",
        )
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        assert lines[0] == "q,value"
        q, value = lines[1].split(",")
        assert int(q) == 3
        assert float(value) == series_error("pair_trig", 3, 1.0)

    def test_unknown_kind(self, capsys):
        code, _, err = run_cli(capsys, "error-table", "--kind", "nope")
        assert code == EXIT_USAGE
        assert "unknown kind" in err

    def test_unknown_table(self, capsys):
        code, _, _ = run_cli(capsys, "error-table", "--table", "4")
        assert code == EXIT_USAGE

    def test_trig_order_above_cap_exits_resource_promptly(self, capsys):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "error-table", "--kind", "triple_trig", "--q", "100000000")
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_RESOURCE
        assert out == ""
        assert "resource cap" in err


class TestQTable:
    def test_numbered_table(self, capsys, printed):
        code, out, _ = run_cli(capsys, "q-table", "--table", "39")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["table"] == 39
        assert doc["columns"] == compute_q_table(39)

    def test_custom_dt(self, capsys):
        code, out, _ = run_cli(capsys, "q-table", "--table", "37", "--dt", "0.03125")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["dt"] == [0.03125]
        assert doc["columns"] == compute_q_table(37, dts=[0.03125])

    def test_unknown_table(self, capsys):
        code, _, _ = run_cli(capsys, "q-table", "--table", "38")
        assert code == EXIT_USAGE

    def test_unreachable_order_exits_resource_promptly(self, capsys):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "q-table", "--table", "37", "--dt", "1e-9")
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_RESOURCE
        assert out == ""
        assert "q=1000000" in err

    def test_triple_order_at_small_step(self, capsys):
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "q-table", "--table", "39", "--dt", "0.001")
        assert time.perf_counter() - start < 10.0
        assert code == EXIT_OK
        assert json.loads(out)["columns"]["q1"] == [125]

    @pytest.mark.parametrize(
        "dt, condition",
        [("1e-4", "pair_legendre_dt4"), ("4e-4", "triple_legendre_dt4")],
        ids=["pair-column-first", "triple-float-cap"],
    )
    def test_small_step_exits_resource_promptly(self, capsys, dt, condition):
        # At 1e-4 the pair column passes its cap first; at 4e-4 the pair
        # order (781251) fits and the triple one (313) passes TRIPLE_FLOAT_CAP.
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "q-table", "--table", "39", "--dt", dt)
        assert time.perf_counter() - start < 5.0
        assert code == EXIT_RESOURCE
        assert out == ""
        assert repr(condition) in err


class TestFloatInputs:
    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    @pytest.mark.parametrize(
        "argv",
        [
            ("error-table", "--kind", "pair_legendre", "--dt"),
            ("q-table", "--table", "39", "--dt"),
            ("validate", "--case", "pair_distinct", "--steps", "8", "--paths", "10", "--dt"),
        ],
        ids=["error-table", "q-table", "validate"],
    )
    def test_non_finite_or_negative_dt_is_usage_error(self, capsys, argv, value):
        code, out, err = run_cli(capsys, *argv, value)
        assert code == EXIT_USAGE
        assert "NaN" not in out and "Infinity" not in out
        assert "positive finite" in err

    def test_bad_entry_in_dt_list(self, capsys):
        code, out, _ = run_cli(capsys, "q-table", "--table", "39", "--dt", "0.01,nan")
        assert code == EXIT_USAGE
        assert out == ""


class TestBadFlags:
    @pytest.mark.parametrize(
        "argv, named",
        [
            (("validate", "--paths", "0"), "--paths"),
            (("validate", "--steps", "1"), "--steps"),
            (("validate", "--threads", "0"), "--threads"),
            (("validate", "--seed", "-1"), "--seed"),
            (("coeffs", "--table", "4", "--threads", "0"), "--threads"),
            (("coeffs", "--k", "2", "--q", "-1"), "--q"),
            (("export", "--k", "2", "--q", "-1", "--output", "out.json"), "--q"),
            (("coeffs", "--table", "99"), "99"),
            (("error-table", "--table", "99"), "99"),
            (("q-table", "--table", "99"), "99"),
            (("error-table", "--kind", "nope"), "nope"),
            (("validate", "--case", "pair_distinct", "--case", "nope", "--paths", "100000"), "nope"),
            (("coeffs", "--k", "2", "--weights", "-1,0"), "--weights -1,0"),
            (("coeffs", "--k", "2", "--weights=-1,0"), "--weights -1,0"),
            (("error-table", "--kind", "pair_trig", "--q", "-1,2"), "--q -1,2"),
            (("q-table", "--table", "37", "--dt", "-1,2"), "--dt -1"),
        ],
        ids=["paths", "steps", "threads", "seed", "threads-coeffs", "q-coeffs", "q-export",
             "table-coeffs", "table-error", "table-q", "kind", "case-after-good-case",
             "negative-weights", "negative-weights-joined", "negative-q-list", "negative-dt-list"],
    )
    def test_usage_error_before_any_work(self, capsys, tmp_path, monkeypatch, argv, named):
        # The last case would validate pair_distinct on 10^5 paths for
        # seconds if the unknown case were found only after it.
        monkeypatch.chdir(tmp_path)
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_USAGE
        assert out == ""
        assert all(word in err for word in named.split())
        assert list(tmp_path.iterdir()) == []


class TestValidate:
    def test_passing_run(self, capsys):
        code, out, _ = run_cli(
            capsys, "validate", "--case", "pair_distinct",
            "--steps", "256", "--paths", "4000", "--seed", "7",
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["passed"] is True
        (report,) = doc["reports"]
        assert report["case"] == "pair_distinct"
        assert report["N"] == 256 and report["P"] == 4000
        assert abs(report["z"]) < 3.0

    def test_determinism(self, capsys):
        argv = ("validate", "--case", "pair_distinct", "--steps", "128",
                "--paths", "1000", "--seed", "5")
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    def test_z_failure_exits_validation(self, capsys):
        # An unlucky seed at low path count lands outside 3 sigma.
        code, out, _ = run_cli(
            capsys, "validate", "--case", "pair_distinct",
            "--steps", "256", "--paths", "600", "--seed", "54",
        )
        assert code == EXIT_VALIDATION
        doc = json.loads(out)
        assert doc["passed"] is False
        assert abs(doc["reports"][0]["z"]) >= 3.0

    def test_grid_too_coarse_exits_validation(self, capsys):
        code, _, err = run_cli(
            capsys, "validate", "--case", "pair_equal_weighted",
            "--steps", "4", "--paths", "20000",
        )
        assert code == EXIT_VALIDATION
        assert "bias" in err

    def test_overflowing_dt_is_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys, "validate", "--case", "pair_distinct",
            "--steps", "8", "--paths", "10", "--dt", "1e300",
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert "not finite" in err

    @pytest.mark.parametrize(
        "dt, paths",
        [("1e100", "10"), ("1e300", "10"), ("1e100", "1200")],
        ids=["sum-of-fourths-overflows", "all-overflow", "in-workers"],
    )
    def test_overflow_is_a_clean_usage_error(self, dt, paths):
        # At 1e100 the sums of d**2 stay finite and only the sum of d**4
        # overflows.  A fresh interpreter shows every warning its workers
        # would print, which capsys cannot see.
        import stochint

        env = dict(os.environ, PYTHONPATH=str(Path(stochint.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "stochint.cli", "validate", "--case", "pair_distinct",
             "--steps", "8", "--paths", paths, "--dt", dt, "--threads", "2"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == EXIT_USAGE
        assert proc.stdout == ""
        assert "not finite" in proc.stderr
        assert "Warning" not in proc.stderr

    def test_threads_do_not_change_payload_or_manifest(self, tmp_path, capsys):
        argv = ["validate", "--case", "pair_distinct", "--case", "triple_distinct",
                "--steps", "64", "--paths", "1300", "--seed", "5"]
        files = {}
        for name, extra in (("one", ["--threads", "1"]), ("default", [])):
            out = tmp_path / name / "report.json"
            out.parent.mkdir()
            assert main(argv + extra + ["--output", str(out)]) in (EXIT_OK, EXIT_VALIDATION)
            files[name] = (out.read_bytes(), Path(str(out) + ".manifest.json").read_bytes())
        assert files["one"] == files["default"]
        assert "threads" not in json.loads(files["one"][1])["parameters"]

    def test_huge_request_exits_resource_before_drawing(self, capsys):
        start = time.perf_counter()
        code, out, err = run_cli(
            capsys, "validate", "--paths", "1000000000", "--steps", "1000000"
        )
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_RESOURCE
        assert out == ""
        assert "resource cap" in err and "normals" in err

    def test_bad_threads(self, capsys):
        code, _, err = run_cli(capsys, "validate", "--threads", "0")
        assert code == EXIT_USAGE
        assert "--threads" in err

    def test_unknown_case(self, capsys):
        code, _, err = run_cli(capsys, "validate", "--case", "nope")
        assert code == EXIT_USAGE
        assert "unknown case" in err

    def test_bad_paths(self, capsys):
        code, _, _ = run_cli(capsys, "validate", "--paths", "0")
        assert code == EXIT_USAGE

    def test_bad_steps(self, capsys):
        code, _, _ = run_cli(capsys, "validate", "--steps", "1")
        assert code == EXIT_USAGE

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "validate", "--case", "pair_distinct",
            "--steps", "128", "--paths", "1000", "--seed", "5",
            "--format", "csv",
        )
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        assert lines[0].startswith("case,q,dt,N,P,")
        assert lines[1].startswith("pair_distinct,2,0.5,128,1000,")


class TestExport:
    def test_requires_output(self, capsys):
        code, _, err = run_cli(capsys, "export", "--k", "2", "--q", "1")
        assert code == EXIT_USAGE
        assert "--output" in err

    def test_writes_payload_and_manifest(self, capsys, tmp_path):
        target = tmp_path / "pair.json"
        code, _, _ = run_cli(
            capsys, "export", "--k", "2", "--q", "2", "--output", str(target)
        )
        assert code == EXIT_OK
        data = target.read_bytes()
        doc = json.loads(data)
        assert doc["k"] == 2 and doc["q"] == 2
        manifest = json.loads((tmp_path / "pair.json.manifest.json").read_text())
        assert manifest["command"] == "export"
        assert manifest["parameters"]["k"] == 2
        assert manifest["outputs"]["pair.json"] == hashlib.sha256(data).hexdigest()

    def test_re_export_is_byte_identical(self, capsys, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for target in (a, b):
            code, _, _ = run_cli(
                capsys, "export", "--k", "3", "--q", "1",
                "--format", "csv", "--output", str(target),
            )
            assert code == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_cache_dir(self, capsys, tmp_path, monkeypatch):
        cache = tmp_path / "cache"
        monkeypatch.setenv("STOCHINT_CACHE_DIR", str(cache))
        out1 = tmp_path / "one.json"
        out2 = tmp_path / "two.json"
        run_cli(capsys, "export", "--k", "2", "--q", "3", "--output", str(out1))
        cached = list(cache.glob("*.payload"))
        assert len(cached) == 1
        run_cli(capsys, "export", "--k", "2", "--q", "3", "--output", str(out2))
        assert out1.read_bytes() == out2.read_bytes()
        assert list(cache.glob("*.payload")) == cached

    @pytest.mark.parametrize(
        "corrupt", [b"not json", b"\xff\xfe\x00 not utf-8"], ids=["text", "not-utf-8"]
    )
    def test_corrupt_entry_is_a_miss_and_rewritten(self, capsys, tmp_path, monkeypatch, corrupt):
        cache = tmp_path / "cache"
        monkeypatch.setenv("STOCHINT_CACHE_DIR", str(cache))
        argv = ["export", "--k", "2", "--q", "3", "--output"]
        assert main(argv + [str(tmp_path / "good.json")]) == EXIT_OK
        (entry,) = cache.iterdir()
        good_entry = entry.read_bytes()
        entry.write_bytes(corrupt)
        code, out, err = run_cli(capsys, *argv, str(tmp_path / "again.json"))
        assert (code, out, err) == (EXIT_OK, "", "")
        assert (tmp_path / "again.json").read_bytes() == (tmp_path / "good.json").read_bytes()
        assert (tmp_path / "again.json.manifest.json").read_bytes() == (
            tmp_path / "good.json.manifest.json"
        ).read_bytes().replace(b"good.json", b"again.json")
        assert list(cache.iterdir()) == [entry]
        assert entry.read_bytes() == good_entry

    def test_entry_holds_payload_checksum(self, tmp_path, monkeypatch):
        cache = tmp_path / "cache"
        monkeypatch.setenv("STOCHINT_CACHE_DIR", str(cache))
        out = tmp_path / "one.csv"
        assert main(["export", "--k", "3", "--q", "1", "--format", "csv", "--output", str(out)]) == 0
        (entry,) = cache.iterdir()
        digest, payload = entry.read_bytes().split(b"\n", 1)
        assert payload == out.read_bytes()
        assert digest.decode() == hashlib.sha256(payload).hexdigest()

    def test_failed_cache_write_leaves_no_entry(self, capsys, tmp_path, monkeypatch):
        # A write that raises half way must not leave a partial payload
        # that a later run would read back as a cache hit.
        cache = tmp_path / "cache"
        monkeypatch.setenv("STOCHINT_CACHE_DIR", str(cache))
        real_write = Path.write_text

        def broken_write(self, data, *args, **kwargs):
            real_write(self, data[: len(data) // 2], *args, **kwargs)
            raise OSError("disk full")

        monkeypatch.setattr(Path, "write_text", broken_write)
        with pytest.raises(OSError, match="disk full"):
            main(["export", "--k", "2", "--q", "3", "--output", str(tmp_path / "one.json")])
        assert list(cache.iterdir()) == []

    def test_cache_entry_follows_umask(self, capsys, tmp_path, monkeypatch):
        # Entries get the mode a plain write would give, so other users that
        # share the cache directory can read them.
        cache = tmp_path / "cache"
        monkeypatch.setenv("STOCHINT_CACHE_DIR", str(cache))
        old = os.umask(0o002)
        try:
            assert main(["export", "--k", "2", "--q", "1", "--output", str(tmp_path / "one.json")]) == 0
        finally:
            os.umask(old)
        (entry,) = cache.iterdir()
        assert entry.suffix == ".payload"
        assert stat.S_IMODE(entry.stat().st_mode) == 0o664

    def test_manifest_round_trip(self):
        manifest = RunManifest(
            command="export",
            parameters={"k": 2, "q": 1},
            seed=None,
            version="1.0",
            outputs={"x.json": "ab" * 32},
        )
        assert RunManifest.from_dict(manifest.as_dict()) == manifest


class TestTopLevel:
    def test_parser_reuse_carries_no_values(self, capsys, tmp_path):
        target = tmp_path / "q.csv"
        code, out, _ = run_cli(
            capsys, "q-table", "--table", "37", "--dt", "0.03125",
            "--format", "csv", "--output", str(target),
        )
        assert code == EXIT_OK and out == ""
        code, out, _ = run_cli(capsys, "error-table", "--table", "1")
        assert code == EXIT_OK
        doc = json.loads(out)  # neither --format csv nor --output carried over
        assert doc["table"] == 1 and doc["q"] == [1, 10, 100, 1000, 10000]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["q.csv", "q.csv.manifest.json"]
        first = _parser().parse_args(["validate", "--case", "pair_distinct"])
        second = _parser().parse_args(["validate", "--case", "triple_distinct"])
        assert (first.case, second.case) == (["pair_distinct"], ["triple_distinct"])
        assert _parser() is _parser()

    def test_version_flag(self, capsys):
        code, _, _ = run_cli(capsys, "--version")
        assert code == EXIT_OK

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == EXIT_USAGE

    def test_output_file_emission(self, capsys, tmp_path):
        target = tmp_path / "table.json"
        code, out, _ = run_cli(
            capsys, "coeffs", "--table", "4", "--output", str(target)
        )
        assert code == EXIT_OK
        assert out == ""
        assert json.loads(target.read_text())["table"] == 4
        manifest = json.loads((tmp_path / "table.json.manifest.json").read_text())
        assert manifest["parameters"] == {"table": 4, "format": "json"}

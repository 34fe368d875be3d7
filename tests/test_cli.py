"""Command-line interface: payloads, exit codes, manifests, caching."""

from __future__ import annotations

import io
import json
import hashlib
import math
import os
import re
import stat
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochint.basis import _checked_float, _checked_int, _checked_name
from stochint.cli import (
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_USAGE,
    EXIT_VALIDATION,
    RunManifest,
    _parser,
    _write_atomic,
    main,
)
from stochint.errors import SERIES_KINDS, TRIG_SERIES_CAP, series_error
from stochint.oracle import VALIDATION_CASES
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

    @pytest.mark.parametrize("command", ["coeffs", "export"])
    def test_large_tensor_exits_resource_promptly(self, capsys, tmp_path, command):
        start = time.perf_counter()
        code, _, err = run_cli(
            capsys, command, "--k", "3", "--q", "199", "--output", str(tmp_path / "t.json")
        )
        assert (code, time.perf_counter() - start < 1.0) == (EXIT_RESOURCE, True)
        assert "resource cap" in err
        assert list(tmp_path.iterdir()) == []

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

    def test_near_tie_above_exact_cap_exits_resource_promptly(self, capsys):
        # This step puts a tie at q = 200 (_triple_constant_float(200) / (1 +
        # TRIPLE_REL_TOL)); the exact check there took 47.7 s.
        start = time.perf_counter()
        code, out, err = run_cli(
            capsys, "q-table", "--table", "39", "--dt", "0.0006239769400897539"
        )
        assert time.perf_counter() - start < 2.0
        assert code == EXIT_RESOURCE
        assert out == ""
        assert "q=200 is a near-tie" in err and "Traceback" not in err


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
        name, high = ("step size", 1.0) if argv[0] == "q-table" else ("interval length", math.inf)
        with pytest.raises(ValueError) as refused:
            _checked_float(float(value), name, 0.0, high)
        assert str(refused.value) in err

    def test_bad_entry_in_dt_list(self, capsys):
        code, out, _ = run_cli(capsys, "q-table", "--table", "39", "--dt", "0.01,nan")
        assert code == EXIT_USAGE
        assert out == ""


#: Spellings of negative infinity and NaN that the parser must read as values.
NEGATIVE_SPECIALS = ("-inf", "-Infinity", "-NAN")


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
            (("coeffs", "--k", "0"), "--k"),
            (("coeffs", "--k", "6"), "--k"),
            (("coeffs", "--k", "1" + "0" * 20), "--k"),
            (("export", "--k", "1" + "0" * 20, "--q", "1", "--output", "out.json"), "--k"),
            *(
                (argv + ("--dt", value), f"--dt {value}")
                for argv in (("error-table", "--kind", "pair_trig", "--q", "1"), ("validate",))
                for value in NEGATIVE_SPECIALS
            ),
        ],
        ids=["paths", "steps", "threads", "seed", "threads-coeffs", "q-coeffs", "q-export",
             "table-coeffs", "table-error", "table-q", "kind", "case-after-good-case",
             "negative-weights", "negative-weights-joined", "negative-q-list", "negative-dt-list",
             "k-zero", "k-six", "k-huge-coeffs", "k-huge-export",
             *(f"{cmd}-dt{value}" for cmd in ("error", "validate") for value in NEGATIVE_SPECIALS)],
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
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []


#: Each numeric flag with a value just outside its range, and the library rule
#: that refuses that value: the flag is checked by that rule, not a copy of it.
FLAG_RULES = [
    (("coeffs", "--k"), "0", lambda: _checked_int(0, "multiplicity", 1, 5)),
    (("coeffs", "--k"), "6", lambda: _checked_int(6, "multiplicity", 1, 5)),
    (("coeffs", "--k", "2", "--weights"), "0,-1", lambda: _checked_int(-1, "weight exponent")),
    (("coeffs", "--k", "2", "--q"), "-1", lambda: _checked_int(-1, "truncation order")),
    (("export", "--k"), "6", lambda: _checked_int(6, "multiplicity", 1, 5)),
    (("export", "--k", "2", "--weights"), "-1", lambda: _checked_int(-1, "weight exponent")),
    (("export", "--k", "2", "--q"), "-1", lambda: _checked_int(-1, "truncation order")),
    (("error-table", "--q"), "1,-1", lambda: _checked_int(-1, "truncation order")),
    (("error-table", "--dt"), "0", lambda: _checked_float(0.0, "interval length")),
    (("q-table", "--dt"), "0.5,1", lambda: _checked_float(1.0, "step size", 0.0, 1.0)),
    (("q-table", "--dt"), "0", lambda: _checked_float(0.0, "step size", 0.0, 1.0)),
    (("validate", "--paths"), "0", lambda: _checked_int(0, "paths", 1)),
    (("validate", "--steps"), "1", lambda: _checked_int(1, "steps", 2)),
    (("validate", "--seed"), "-1", lambda: _checked_int(-1, "seed")),
    (("validate", "--dt"), "0", lambda: _checked_float(0.0, "interval length")),
    (("validate", "--threads"), "0", lambda: _checked_int(0, "worker count", 1)),
    (("error-table", "--kind"), "nope", lambda: _checked_name("nope", SERIES_KINDS, "kind")),
    (("validate", "--case"), "nope", lambda: _checked_name("nope", VALIDATION_CASES, "case")),
]


class TestFlagRules:
    @pytest.mark.parametrize(
        "argv, text, refusal", FLAG_RULES, ids=[f"{a[0]}{a[-1]}={t}" for a, t, _ in FLAG_RULES]
    )
    def test_refused_with_the_library_sentence(
        self, capsys, tmp_path, monkeypatch, argv, text, refusal
    ):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(ValueError) as refused:
            refusal()
        code, out, err = run_cli(capsys, *argv, text, "--output", "out")
        assert (code, out) == (EXIT_USAGE, "")
        assert f"error: argument {argv[-1]}: {text!r}: {refused.value}\n" in err
        assert list(tmp_path.iterdir()) == []


HUGE = "1" + "0" * 400


class TestHugeIntegers:
    """Integer flags with no float answer their documented exit, not a traceback."""

    @pytest.mark.parametrize(
        "argv, expected, named",
        [
            (("validate", "--case", "pair_distinct", "--paths", HUGE), EXIT_RESOURCE, "normals"),
            (("error-table", "--kind", "triple_trig", "--q", HUGE), EXIT_RESOURCE, "cap"),
            (("coeffs", "--k", "5", "--q", "1" + "0" * 900), EXIT_RESOURCE, "budget"),
            (("coeffs", "--k", HUGE), EXIT_USAGE, "--k"),
            (("coeffs", "--k", "1", "--weights", "1600", "--q", "0"), EXIT_RESOURCE, "1023"),
            (("coeffs", "--k", "1", "--weights", "4000", "--q", "0"), EXIT_RESOURCE, "1023"),
            (("coeffs", "--k", "1", "--weights", HUGE, "--q", "0"), EXIT_RESOURCE, "1023"),
            (("coeffs", "--k", "2", "--weights", "0,1000", "--q", "3"), EXIT_RESOURCE, "budget"),
            (("coeffs", "--k", "2", "--weights", "1000,0", "--q", "40"), EXIT_RESOURCE, "budget"),
            *(
                (("error-table", "--kind", kind, "--q", HUGE), EXIT_USAGE, f"q={HUGE}")
                for kind in ("pair_legendre", "pair_trig", "pair_legendre_weighted",
                             "single_trig_weighted")
            ),
        ],
        ids=["validate-paths", "triple_trig", "coeffs-k5", "coeffs-k-huge", "weights-1600",
             "weights-4000", "weights-huge", "weights-outer-1000", "weights-inner-1000",
             "pair_legendre", "pair_trig", "pair_legendre_weighted", "single_trig_weighted"],
    )
    def test_documented_exit(self, capsys, argv, expected, named):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 2.0
        assert code == expected
        assert out == ""
        assert named in err and "Traceback" not in err


def _strict_constant(name: str) -> float:
    raise ValueError(f"non-standard JSON constant {name}")


_ORDERS = st.one_of(
    st.integers(0, 12),
    st.integers(0, 10**400),
    st.sampled_from([TRIG_SERIES_CAP, TRIG_SERIES_CAP + 1, 10**8, 10**200, 2**1024, 10**400]),
)
_DT_TEXT = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "-1", "0", "1e300", "1e-300", "1", "0.5", "1e400", "x"]),
    st.floats().map(repr),
)


class TestErrorTableFuzz:
    """``error-table --kind`` over orders up to 10**400 and any ``--dt`` text.

    Every kind is O(1) or capped at ``TRIG_SERIES_CAP``, so no case starts
    unbounded work.
    """

    @settings(max_examples=200, deadline=5000)
    @given(kind=st.sampled_from(SERIES_KINDS), qs=st.lists(_ORDERS, max_size=4), dt=_DT_TEXT)
    def test_exit_code_and_strict_json(self, kind, qs, dt):
        argv = ["error-table", "--kind", kind, "--q", ",".join(map(str, qs)), "--dt", dt]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        assert code in (EXIT_OK, EXIT_USAGE, EXIT_RESOURCE)
        if code == EXIT_OK:
            doc = json.loads(out.getvalue(), parse_constant=_strict_constant)
            assert doc["q"] == qs and len(doc["values"]) == len(qs)
        else:
            assert out.getvalue() == ""


def _run_fuzzed(argv: list[str], fmt: str) -> tuple[int, str]:
    """``main(argv)``: its exit code is documented, its stderr has no traceback, and
    in json format its stdout, if any, is strict JSON."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, EXIT_RESOURCE)
    assert "Traceback" not in err.getvalue()
    if fmt == "json" and out.getvalue():
        json.loads(out.getvalue(), parse_constant=_strict_constant)
    return code, out.getvalue()


_SMALL = st.integers(0, 3)
# A negative entry, and entries whose total the tensor refuses (L + k over 1023).
_ODD = st.sampled_from([-1, 1600, 10**20, 10**400])


def _k_and_weights(k: int):
    """``(k, weights)``: no weights, ``k`` small ones (or one too many), or odd ones."""
    n = min(max(k, 0), 6)
    weights = st.one_of(
        st.none(),
        st.lists(_SMALL, min_size=n, max_size=n + 1),
        st.lists(st.one_of(_SMALL, _ODD), min_size=n, max_size=n),
    )
    return st.tuples(st.just(str(k)), weights.map(lambda ws: None if ws is None else ",".join(map(str, ws))))


_TENSOR_FLAGS = st.one_of(
    st.integers(1, 5), st.sampled_from([0, 6, -1, 10**20, 10**400])
).flatmap(_k_and_weights)
_TENSOR_Q = st.one_of(
    st.integers(0, 6).map(str), st.sampled_from(["-1", "2000", "10000000", HUGE, "1e3", "x"])
)


class TestTensorFuzz:
    """``coeffs --k`` and ``export`` over any ``--k``, ``--weights``, ``--q`` and ``--format``.

    Every admitted request is small, and the rest are refused before any work.
    """

    @settings(max_examples=150, deadline=5000)
    @given(
        command=st.sampled_from(["coeffs", "export"]), flags=_TENSOR_FLAGS, q=_TENSOR_Q,
        fmt=st.sampled_from(["json", "csv", "xml"]),
    )
    def test_exit_code_and_strict_json(self, command, flags, q, fmt):
        k, weights = flags
        argv = [command, "--k", k, "--q", q, "--format", fmt]
        if weights is not None:
            argv += ["--weights", weights]
        if command == "coeffs":
            code, out = _run_fuzzed(argv, fmt)
            assert (out != "") == (code == EXIT_OK)
            return
        with tempfile.TemporaryDirectory() as workdir:
            code, out = _run_fuzzed(argv + ["--output", os.path.join(workdir, "out")], fmt)
            assert out == ""
            written = sorted(os.listdir(workdir))
            assert written == (["out", "out.manifest.json"] if code == EXIT_OK else [])
            if fmt == "json" and code == EXIT_OK:
                json.loads(Path(workdir, "out").read_text(), parse_constant=_strict_constant)


# A validation either is tiny (one 512-path chunk, so no worker is forked, on a
# coarse grid) or could draw more normals than NORMALS_BUDGET at every case, and is
# refused before drawing.  A middling pair, such as 10**4 paths and steps, would
# run for minutes, so none is drawn.
_REFUSED_PATHS = ["10000000000", HUGE]
_REFUSED_STEPS = ["100000000000", HUGE]
_TINY_PATHS = st.integers(1, 512).map(str)
_TINY_STEPS = st.integers(1, 32).map(lambda half: str(2 * half))
_BAD_COUNT = st.sampled_from(["0", "-1", "1", "3", "nan", "1e3", "x"])


class TestValidateFuzz:
    """``validate`` over paths, steps, dt, seed, cases and up to two threads."""

    @settings(max_examples=100, deadline=5000)
    @given(
        run=st.one_of(
            st.tuples(_TINY_PATHS, _TINY_STEPS),
            st.one_of(
                st.tuples(st.sampled_from(_REFUSED_PATHS), _TINY_STEPS),
                st.tuples(_TINY_PATHS, st.sampled_from(_REFUSED_STEPS)),
            ),
            st.one_of(st.tuples(_BAD_COUNT, _TINY_STEPS), st.tuples(_TINY_PATHS, _BAD_COUNT)),
        ),
        dt=st.one_of(st.floats(1e-3, 2.0).map(repr), _DT_TEXT),
        seed=st.one_of(st.integers(-1, 2**64), st.just(10**400)).map(str),
        cases=st.lists(st.sampled_from(sorted(VALIDATION_CASES) + ["nope"]), max_size=2),
        threads=st.one_of(st.none(), st.sampled_from(["0", "1", "2"])),
        fmt=st.sampled_from(["json", "csv"]),
    )
    def test_exit_code_and_strict_json(self, run, dt, seed, cases, threads, fmt):
        paths, steps = run
        argv = ["validate", "--paths", paths, "--steps", steps, "--dt", dt, "--seed", seed,
                "--format", fmt]
        for case in cases:
            argv += ["--case", case]
        if threads is not None:
            argv += ["--threads", threads]
        code, out = _run_fuzzed(argv, fmt)
        assert out != "" or code != EXIT_OK
        if paths in _REFUSED_PATHS or steps in _REFUSED_STEPS:
            assert code in (EXIT_USAGE, EXIT_RESOURCE)


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

    def test_zero_standard_error_is_usage_error(self, capsys):
        # At 1e-300 every squared difference underflows to zero, so the
        # z-score has no finite value to print.
        code, out, err = run_cli(
            capsys, "validate", "--steps", "2", "--paths", "1", "--dt", "1e-300",
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert "standard error is zero" in err and "Traceback" not in err

    def test_overflowing_power_of_dt_is_usage_error(self, capsys):
        # The weighted pair series raises dt to the third power, which
        # overflows as a Python float before numpy sees it.
        code, out, err = run_cli(
            capsys, "validate", "--case", "pair_equal_weighted",
            "--steps", "2", "--paths", "1", "--dt", "1e300",
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert "not finite" in err and "Traceback" not in err

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

    @pytest.mark.parametrize("case", ["pair_distinct", "triple_distinct"])
    def test_too_small_interval_is_refused_before_any_draw(self, case):
        # sqrt((2j+1)/dt) is inf at a subnormal dt; the basis matrix would
        # multiply it by zero Legendre values and warn.
        import stochint

        env = dict(os.environ, PYTHONPATH=str(Path(stochint.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "stochint.cli", "validate", "--case", case,
             "--steps", "2", "--paths", "1", "--dt", "1e-320"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == EXIT_USAGE
        assert proc.stdout == ""
        assert "interval length dt=1e-320 is too small" in proc.stderr
        assert "Warning" not in proc.stderr and "overflow" not in proc.stderr

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
        code, _, err = run_cli(
            capsys, "export", "--k", "2", "--q", "3", "--output", str(tmp_path / "one.json")
        )
        assert (code, err) == (EXIT_USAGE, "stochint export: disk full\n")
        assert list(cache.iterdir()) == []

    def test_cache_writes_leave_only_the_entry(self, capsys, tmp_path, monkeypatch):
        # One write, a write that fails before its rename, and two writes of
        # one key in one process: the entry alone is left, never a *.tmp file.
        cache = tmp_path / "cache"
        monkeypatch.setenv("STOCHINT_CACHE_DIR", str(cache))
        argv = ["export", "--k", "2", "--q", "3", "--output", str(tmp_path / "one.json")]
        assert main(argv) == EXIT_OK
        (entry,) = cache.iterdir()
        assert entry.suffix == ".payload"
        good_entry = entry.read_bytes()

        entry.unlink()
        real_replace = os.replace
        temps = []

        def failing_replace(src, dst):
            temps.append(Path(src).name)
            assert Path(src).read_bytes() == good_entry
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", failing_replace)
        code, _, err = run_cli(capsys, *argv)
        assert (code, err) == (EXIT_USAGE, "stochint export: rename refused\n")
        assert list(cache.iterdir()) == []

        def recording_replace(src, dst):
            temps.append(Path(src).name)
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", recording_replace)
        for _ in range(2):
            _write_atomic(entry, good_entry.decode())
            assert list(cache.iterdir()) == [entry]
        assert entry.read_bytes() == good_entry
        # a fresh name per write: the entry's name, 32 hex digits, ".tmp"
        assert all(re.fullmatch(re.escape(entry.name) + r"\.[0-9a-f]{32}\.tmp", t) for t in temps)
        assert len(set(temps)) == 3

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

    def test_cache_hit_hashes_once_and_makes_no_directory(self, tmp_path, monkeypatch):
        # A hit verifies the entry's SHA-256 and reuses it for the manifest;
        # only a new entry creates the cache directory.
        cache = tmp_path / "cache"
        monkeypatch.setenv("STOCHINT_CACHE_DIR", str(cache))
        argv = ["export", "--k", "2", "--q", "3", "--output"]
        assert main(argv + [str(tmp_path / "miss.json")]) == EXIT_OK
        hashed = []
        real_sha256 = hashlib.sha256

        def counting_sha256(data=b""):
            hashed.append(len(data))
            return real_sha256(data)

        def no_mkdir(*args, **kwargs):
            raise AssertionError("mkdir on a cache hit")

        monkeypatch.setattr(hashlib, "sha256", counting_sha256)
        monkeypatch.setattr(Path, "mkdir", no_mkdir)
        assert main(argv + [str(tmp_path / "hit.json")]) == EXIT_OK
        payload = (tmp_path / "hit.json").read_bytes()
        assert hashed.count(len(payload)) == 1
        manifest = json.loads((tmp_path / "hit.json.manifest.json").read_text())
        assert manifest["outputs"]["hit.json"] == real_sha256(payload).hexdigest()

    def test_manifest_round_trip(self):
        manifest = RunManifest(
            command="export",
            parameters={"k": 2, "q": 1},
            seed=None,
            version="1.0",
            outputs={"x.json": "ab" * 32},
        )
        assert RunManifest.from_dict(manifest.as_dict()) == manifest


class TestOutputWrite:
    def test_shorter_payload_over_longer_output_leaves_new_bytes(self, tmp_path):
        argv = ["coeffs", "--k", "1", "--q", "0", "--output"]
        target, fresh = tmp_path / "out.json", tmp_path / "fresh.json"
        manifest = tmp_path / "out.json.manifest.json"
        target.write_bytes(b"x" * 100_000)
        manifest.write_bytes(b"y" * 100_000)
        assert main(argv + [str(target)]) == main(argv + [str(fresh)]) == EXIT_OK
        assert target.read_bytes() == fresh.read_bytes()
        assert len(target.read_bytes()) < 1000
        fresh_manifest = (tmp_path / "fresh.json.manifest.json").read_bytes()
        assert manifest.read_bytes() == fresh_manifest.replace(b"fresh.json", b"out.json")

    def test_new_output_follows_umask(self, tmp_path):
        old = os.umask(0o027)
        try:
            assert main(["coeffs", "--k", "1", "--q", "0", "--output", str(tmp_path / "o")]) == 0
        finally:
            os.umask(old)
        for name in ("o", "o.manifest.json"):
            assert stat.S_IMODE((tmp_path / name).stat().st_mode) == 0o640

    @pytest.mark.parametrize("where", ["missing-directory", "directory", "cache-under-file"])
    def test_unwritable_path_is_one_line(self, capsys, tmp_path, monkeypatch, where):
        # An OSError is a usage error, reported as one line, like a ValueError.
        target = tmp_path / "one.json"
        if where == "missing-directory":
            target = tmp_path / "missing" / "one.json"
        elif where == "directory":
            target.mkdir()
        else:
            (tmp_path / "file").write_text("")
            monkeypatch.setenv("STOCHINT_CACHE_DIR", str(tmp_path / "file" / "cache"))
        code, out, err = run_cli(capsys, "export", "--k", "2", "--q", "1", "--output", str(target))
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("stochint export: [Errno ") and err.count("\n") == 1

    def test_device_output(self, capsys, tmp_path):
        # A path to the null device (by a link, so the manifest lands in
        # tmp_path): a character device is written but never truncated.
        link = tmp_path / "null"
        link.symlink_to(os.devnull)
        code, out, _ = run_cli(capsys, "coeffs", "--k", "2", "--q", "2", "--output", str(link))
        assert (code, out) == (EXIT_OK, "")
        assert link.is_char_device()
        assert json.loads((tmp_path / "null.manifest.json").read_text())["command"] == "coeffs"


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

"""Monte Carlo oracle: path simulation, coupling, statistical validation."""

from __future__ import annotations

import itertools
import math
import multiprocessing
import os
import subprocess
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

import stochint
from stochint import oracle
from stochint.coeffs import KernelSpec
from stochint.errors import kernel_norm
from stochint.expansion import IndexPattern
from stochint.oracle import (
    VALIDATION_CASES,
    NORMALS_BUDGET,
    GridTooCoarseError,
    OracleBudgetError,
    SimConfig,
    ValidationReport,
    coupled_zeta,
    simulate_iterated,
    validate_expansion,
    worker_count,
)
from stochint.oracle import _chunk_count, _chunk_map, _chunk_sums, _nested_values, _wiener_blocks

import oracle_reference
from oracle_reference import chunk_sums, nested_values_stepwise, reference_report, wiener_chunk

DT = 0.5


# Task functions for the pool tests: module level, so that they pickle.
def _pair_square(i, j):
    return i, j * j


def _fail_on_two(idx):
    if idx == 2:
        raise ZeroDivisionError("chunk 2")
    return idx


def _child_validates(cfg, conn):
    """Run in a forked child: validate with two workers and report its own pool."""
    report = validate_expansion("pair_distinct", cfg, workers=2)
    conn.send((report, oracle._pool.pid, [p.pid for p in multiprocessing.active_children()]))
    conn.close()


def _gone(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(steps=1, paths=10, seed=0, dt=DT)
        with pytest.raises(ValueError):
            SimConfig(steps=8, paths=0, seed=0, dt=DT)
        with pytest.raises(ValueError):
            SimConfig(steps=8, paths=10, seed=0, dt=0.0)
        with pytest.raises(ValueError):
            SimConfig(steps=8, paths=10, seed=0, dt=DT, calculus="both")


class TestSimulation:
    def test_plain_single_is_terminal_wiener_value(self):
        # int dW telescopes exactly on any grid, and zeta_0 = W_T / sqrt(dt),
        # so the coupled projections reproduce it pathwise.
        cfg = SimConfig(steps=64, paths=300, seed=3, dt=DT)
        vals = simulate_iterated(KernelSpec.unweighted(1), IndexPattern((1,)), cfg)
        zeta = coupled_zeta(cfg, m=1, jmax=0)
        w_terminal = math.sqrt(DT) * zeta[0, :, 0]
        assert np.allclose(vals, w_terminal, rtol=1e-12, atol=1e-13)

    def test_single_second_moments(self):
        cfg = SimConfig(steps=512, paths=4000, seed=5, dt=DT)
        for weights in [(0,), (1,)]:
            spec = KernelSpec(1, weights)
            vals = simulate_iterated(spec, IndexPattern((1,)), cfg)
            sq = vals * vals
            target = kernel_norm(spec, DT)
            bias_allowance = 3.0 * target / cfg.steps
            assert abs(np.mean(sq) - target) < (
                3.0 * np.std(sq) / math.sqrt(sq.size) + bias_allowance
            )

    @pytest.mark.parametrize(
        "k,components", [(2, (1, 2)), (3, (1, 2, 3))]
    )
    def test_distinct_second_moments(self, k, components):
        cfg = SimConfig(steps=256, paths=6000, seed=9, dt=DT)
        spec = KernelSpec.unweighted(k)
        vals = simulate_iterated(spec, IndexPattern(components), cfg)
        sq = vals * vals
        target = kernel_norm(spec, DT)
        bias_allowance = 3.0 * target / cfg.steps
        assert abs(np.mean(sq) - target) < (
            3.0 * np.std(sq) / math.sqrt(sq.size) + bias_allowance
        )

    def test_equal_pair_pathwise_identities(self):
        # Trapezoid equal pair telescopes to W^2/2; the corrected Ito rule
        # differs from it by exactly dt/2 on every path.
        cfg_s = SimConfig(steps=32, paths=200, seed=11, dt=DT, calculus="strat")
        cfg_i = SimConfig(steps=32, paths=200, seed=11, dt=DT, calculus="ito")
        spec = KernelSpec.unweighted(2)
        pattern = IndexPattern((1, 1))
        strat = simulate_iterated(spec, pattern, cfg_s)
        ito = simulate_iterated(spec, pattern, cfg_i)
        zeta = coupled_zeta(cfg_s, m=1, jmax=0)
        w2_half = DT * zeta[0, :, 0] ** 2 / 2.0
        assert np.allclose(strat, w2_half, rtol=1e-11, atol=1e-13)
        assert np.allclose(strat - ito, DT / 2.0, rtol=1e-11, atol=1e-13)

    def test_mismatched_pattern_rejected(self):
        cfg = SimConfig(steps=8, paths=4, seed=0, dt=DT)
        with pytest.raises(ValueError):
            simulate_iterated(KernelSpec.unweighted(2), IndexPattern((1, 2, 3)), cfg)

    def test_path_count_invariance(self):
        # Chunked counter-based streams: path i never depends on the total.
        spec = KernelSpec.unweighted(2)
        pattern = IndexPattern((1, 2))
        small = simulate_iterated(
            spec, pattern, SimConfig(steps=16, paths=700, seed=21, dt=DT)
        )
        large = simulate_iterated(
            spec, pattern, SimConfig(steps=16, paths=1300, seed=21, dt=DT)
        )
        assert np.array_equal(small, large[:700])

    def test_determinism(self):
        cfg = SimConfig(steps=16, paths=100, seed=33, dt=DT)
        spec = KernelSpec(1, (1,))
        a = simulate_iterated(spec, IndexPattern((1,)), cfg)
        b = simulate_iterated(spec, IndexPattern((1,)), cfg)
        assert np.array_equal(a, b)


#: Component patterns of the kernel tests: all distinct, all equal, and a repeat.
KERNEL_COMPONENTS = {
    1: [(1,), (3,)],
    2: [(1, 2), (2, 2), (3, 1)],
    3: [(1, 2, 3), (2, 2, 2), (2, 1, 2), (3, 3, 1)],
}

#: One kernel case per route: outermost level without an integrand, with a
#: grid-only one and with a per-path one; the equal-pair diagonal; repeats.
KERNEL_SHAPES = [
    ((0,), (1,)), ((2,), (3,)), ((0, 0), (1, 2)), ((1, 0), (1, 1)), ((0, 2), (2, 2)),
    ((2, 1), (3, 1)), ((0, 0, 0), (1, 2, 3)), ((0, 1, 2), (1, 2, 3)),
    ((1, 0, 0), (2, 1, 2)), ((2, 2, 1), (3, 3, 3)),
]


class TestNestedKernel:
    """The kernel against the stepwise route it replaced, and its rows against any block."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("calculus", ["ito", "strat"])
    @pytest.mark.parametrize("paths", [1, 64, 100])
    def test_matches_stepwise_reference(self, k, calculus, paths):
        dw = np.random.default_rng(100 * k + paths).standard_normal((paths, 3, 256)) * 0.04
        for weights in itertools.product(range(3), repeat=k):
            spec = KernelSpec(k, weights)
            for components in KERNEL_COMPONENTS[k]:
                new = _nested_values(spec, components, dw, DT, calculus)
                old = nested_values_stepwise(spec, components, dw, DT, calculus)
                assert new.shape == old.shape == (paths,)
                assert np.all(np.abs(new - old) <= 1e-13 * np.max(np.abs(old)))

    @pytest.mark.parametrize("steps", [2, 33, 2048])
    @pytest.mark.parametrize("calculus", ["ito", "strat"])
    @pytest.mark.parametrize("weights, components", KERNEL_SHAPES, ids=str)
    def test_rows_do_not_depend_on_block(self, steps, calculus, weights, components):
        dw = np.random.default_rng(steps).standard_normal((512, 3, steps)) * 0.04
        spec = KernelSpec(len(weights), weights)
        whole = _nested_values(spec, components, dw, DT, calculus)
        for block in (1, 7, 64):
            rows = [
                _nested_values(spec, components, dw[start : start + block], DT, calculus)
                for start in range(0, 512, block)
            ]
            assert np.array_equal(np.concatenate(rows), whole)


class TestCoupledZeta:
    def test_shape(self):
        cfg = SimConfig(steps=128, paths=50, seed=2, dt=DT)
        zeta = coupled_zeta(cfg, m=2, jmax=3)
        assert zeta.shape == (2, 50, 4)

    def test_projection_covariance_is_identity(self):
        # The discretized basis projections are nearly iid standard normal.
        cfg = SimConfig(steps=1024, paths=4000, seed=17, dt=DT)
        zeta = coupled_zeta(cfg, m=1, jmax=3)[0]
        cov = zeta.T @ zeta / cfg.paths
        tol = 5.0 / math.sqrt(cfg.paths)
        assert np.allclose(cov, np.eye(4), atol=tol)

    @pytest.mark.parametrize("jmax", [40, 13, -1])
    def test_index_outside_the_range_is_refused_before_drawing(self, jmax, monkeypatch):
        def no_draws(*args):
            raise AssertionError("drew normals")

        monkeypatch.setattr(oracle, "_wiener_blocks", no_draws)
        cfg = SimConfig(steps=64, paths=8, seed=0, dt=DT)
        message = f"basis index {jmax} is outside the oracle's range 0..12"
        with pytest.raises(ValueError, match=message):
            coupled_zeta(cfg, 1, jmax)

    @pytest.mark.parametrize("m", [0, -1])
    def test_component_count_below_one_is_refused_before_drawing(self, m, monkeypatch):
        # m = 0 once returned an empty array, and m = -1 failed inside numpy.
        def no_work(*args):
            raise AssertionError("built the basis or drew normals")

        monkeypatch.setattr(oracle, "_wiener_blocks", no_work)
        monkeypatch.setattr(oracle, "_basis_matrix", no_work)
        cfg = SimConfig(steps=64, paths=8, seed=0, dt=DT)
        with pytest.raises(ValueError, match="component count must be >= 1"):
            coupled_zeta(cfg, m, 3)

    @pytest.mark.parametrize("steps", [4096, 65536])
    def test_rows_match_legval_up_to_the_cap(self, steps):
        assert oracle.BASIS_INDEX_CAP == 12
        phi = oracle._basis_matrix(12, DT, steps)
        x = 2.0 * np.linspace(0.0, DT, steps + 1)[:steps] / DT - 1.0
        for j in range(13):
            scale = math.sqrt((2 * j + 1) / DT)
            ref = scale * np.polynomial.legendre.legval(x, [0.0] * j + [1.0])
            assert np.max(np.abs(phi[j] - ref)) <= 1e-12 * scale

    @pytest.mark.parametrize("dt", [0.5, 0.37, 1e-3])
    @pytest.mark.parametrize("steps", [2, 1024, 2048, 4096, 65536])
    def test_rows_match_the_rational_route_bit_for_bit(self, steps, dt):
        # The integer sum gives the same floats as the rational coefficients it replaced.
        for jmax in range(oracle.BASIS_INDEX_CAP + 1):
            former = oracle_reference.basis_matrix_rational(jmax, dt, steps)
            assert oracle._basis_matrix(jmax, dt, steps).tobytes() == former.tobytes()


class TestValidateExpansion:
    def test_known_cases(self):
        assert set(VALIDATION_CASES) == {
            "pair_distinct",
            "pair_equal_weighted",
            "pair_weighted_distinct",
            "triple_distinct",
        }

    def test_unknown_case(self):
        cfg = SimConfig(steps=8, paths=10, seed=0, dt=DT)
        with pytest.raises(ValueError):
            validate_expansion("nope", cfg)

    def test_odd_steps_rejected(self):
        cfg = SimConfig(steps=9, paths=10, seed=0, dt=DT)
        with pytest.raises(ValueError):
            validate_expansion("pair_distinct", cfg)

    def test_stratonovich_rejected_before_drawing(self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("drew paths")

        monkeypatch.setattr(oracle, "_chunk_stream", no_draw)
        cfg = SimConfig(steps=8, paths=10, seed=0, dt=DT, calculus="strat")
        with pytest.raises(ValueError, match="Ito"):
            validate_expansion("pair_distinct", cfg, workers=1)

    @pytest.mark.parametrize("max_doublings", [-1, -5])
    def test_negative_doublings_rejected_before_drawing(self, monkeypatch, max_doublings):
        # -1 once ran no grid and then raised UnboundLocalError on the unset bias.
        def no_draw(*args):
            raise AssertionError("drew paths")

        monkeypatch.setattr(oracle, "_chunk_stream", no_draw)
        cfg = SimConfig(steps=8, paths=10, seed=0, dt=DT)
        with pytest.raises(ValueError, match="max_doublings must be nonnegative"):
            validate_expansion("pair_distinct", cfg, max_doublings=max_doublings, workers=1)

    def test_small_deterministic_run(self):
        cfg = SimConfig(steps=256, paths=4000, seed=7, dt=DT)
        report = validate_expansion("pair_distinct", cfg)
        assert isinstance(report, ValidationReport)
        assert report.case == "pair_distinct"
        assert report.q == 2
        assert report.dt == DT
        assert report.steps == 256
        assert report.paths == 4000
        assert report.empirical > 0
        assert report.theoretical > 0
        assert report.stat_err > 0
        assert report.bias <= report.stat_err / 3.0
        assert abs(report.z) < 3.0
        assert report.z == pytest.approx(-1.131, abs=5e-3)
        payload = report.as_dict()
        assert set(payload) == {
            "case", "q", "dt", "N", "P", "empirical", "theoretical",
            "z", "stat_err", "bias",
        }
        assert payload["N"] == 256 and payload["P"] == 4000

    def test_determinism(self):
        cfg = SimConfig(steps=128, paths=1500, seed=13, dt=DT)
        a = validate_expansion("pair_distinct", cfg)
        b = validate_expansion("pair_distinct", cfg)
        assert a == b

    def test_grid_too_coarse(self):
        # A 4-step grid cannot resolve the tiny weighted equal-pair error;
        # with one doubling allowed the bias check must fail loudly.
        cfg = SimConfig(steps=4, paths=100_000, seed=1, dt=DT)
        with pytest.raises(GridTooCoarseError) as exc_info:
            validate_expansion("pair_equal_weighted", cfg, max_doublings=1)
        err = exc_info.value
        assert err.bias > err.stat_err / 3.0
        assert err.steps == 8


class TestWorkers:
    @pytest.mark.parametrize(
        "case, seed, paths, steps",
        [
            ("pair_distinct", 3, 1300, 128),  # a partial last chunk
            ("pair_equal_weighted", 4, 100, 128),  # one chunk: no pool
            ("triple_distinct", 11, 1024, 256),  # doubles the grid to 1024
            ("pair_weighted_distinct", 5, 2048, 256),
        ],
    )
    def test_reports_do_not_depend_on_workers(self, case, seed, paths, steps):
        cfg = SimConfig(steps=steps, paths=paths, seed=seed, dt=DT)
        reports = [validate_expansion(case, cfg, workers=w) for w in (1, 2, 3)]
        fields = [(r.steps, r.empirical, r.stat_err, r.z, r.bias) for r in reports]
        assert fields[0] == fields[1] == fields[2] == reference_report(case, cfg)
        assert reports[0] == reports[1] == reports[2]
        if case == "triple_distinct":
            assert reports[0].steps == 1024

    def test_worker_count(self):
        assert worker_count(1, 196) == 1
        assert worker_count(3, 196) == 3
        assert worker_count(3, 2) == 2
        assert worker_count(10**6, 196) == 196
        assert worker_count(10**6, 1) == 1
        assert 1 <= worker_count(None, 196) <= 196
        assert worker_count(None, 1) == 1

    @pytest.mark.parametrize("requested", [0, -1])
    def test_worker_count_rejects_fewer_than_one(self, requested):
        with pytest.raises(ValueError):
            worker_count(requested, 4)
        with pytest.raises(ValueError):
            validate_expansion("pair_distinct", SimConfig(steps=8, paths=10, seed=0, dt=DT), workers=requested)

    def test_chunk_map_keeps_task_order(self):
        tasks = [(i, i + 1) for i in range(7)]
        assert _chunk_map(_pair_square, tasks, 2) == [(i, (i + 1) ** 2) for i in range(7)]
        assert (oracle._pool.pid, oracle._pool.workers) == (os.getpid(), 2)
        assert _chunk_map(_pair_square, tasks, 1) == _chunk_map(_pair_square, tasks, 2)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_worker_exception_reaches_caller(self, workers):
        cfg = SimConfig(steps=64, paths=1100, seed=2, dt=DT)
        before = validate_expansion("pair_distinct", cfg, workers=workers)
        with pytest.raises(ZeroDivisionError, match="chunk 2"):
            _chunk_map(_fail_on_two, [(i,) for i in range(4)], workers)
        assert validate_expansion("pair_distinct", cfg, workers=workers) == before

    def test_runs_inside_a_pool_worker(self):
        # Pool workers are daemonic and may not fork a pool of their own.
        cfg = SimConfig(steps=64, paths=1100, seed=2, dt=DT)
        with multiprocessing.get_context("fork").Pool(1) as pool:
            inside = pool.apply(validate_expansion, ("pair_distinct", cfg, 3, 2))
        assert inside == validate_expansion("pair_distinct", cfg, workers=2)

    def test_pool_usable_after_caller_raises(self):
        assert _chunk_map(_pair_square, [(0, 1), (1, 2)], 2) == [(0, 1), (1, 4)]
        executor = oracle._pool.executor
        # A task that cannot be pickled fails in the parent, mid-map.
        with pytest.raises(Exception):
            _chunk_map(_pair_square, [(0, 1), (lambda: 0, 2), (2, 3)], 2)
        with pytest.raises(KeyError):
            _chunk_map(_pair_square, [(0, 1)], 2)
            raise KeyError("caller")
        assert _chunk_map(_pair_square, [(0, 1), (1, 2)], 2) == [(0, 1), (1, 4)]
        assert oracle._pool.executor is executor

    def test_worker_count_change_replaces_the_pool(self):
        cfg = SimConfig(steps=64, paths=1600, seed=4, dt=DT)
        reports = []
        for workers in (3, 2):
            reports.append(validate_expansion("pair_distinct", cfg, workers=workers))
            assert len(multiprocessing.active_children()) == workers
        assert reports[0] == reports[1]

    def test_dead_worker_drops_the_pool(self):
        cfg = SimConfig(steps=64, paths=1100, seed=2, dt=DT)
        before = validate_expansion("pair_distinct", cfg, workers=2)
        with pytest.raises(BrokenProcessPool):
            _chunk_map(os._exit, [(1,), (1,)], 2)
        assert oracle._pool is None
        assert validate_expansion("pair_distinct", cfg, workers=2) == before
        assert len(multiprocessing.active_children()) == 2

    def test_forked_child_builds_its_own_pool(self):
        cfg = SimConfig(steps=64, paths=1100, seed=2, dt=DT)
        before = validate_expansion("pair_distinct", cfg, workers=2)
        executor = oracle._pool.executor
        ctx = multiprocessing.get_context("fork")
        receive, send = ctx.Pipe(duplex=False)
        child = ctx.Process(target=_child_validates, args=(cfg, send))
        child.start()
        send.close()
        assert receive.poll(60)
        report, pool_pid, grandchildren = receive.recv()
        child.join(timeout=30)
        assert child.exitcode == 0
        assert report == before
        assert pool_pid == child.pid
        assert len(grandchildren) == 2
        assert all(_gone(pid) for pid in grandchildren)
        assert validate_expansion("pair_distinct", cfg, workers=2) == before
        assert oracle._pool.executor is executor

    def test_interpreter_exit_reaps_workers(self):
        code = (
            "import multiprocessing\n"
            "from stochint.oracle import SimConfig, validate_expansion\n"
            "cfg = SimConfig(steps=64, paths=1100, seed=2, dt=0.5)\n"
            "validate_expansion('pair_distinct', cfg, workers=2)\n"
            "validate_expansion('triple_distinct', cfg, workers=2)\n"
            "print(*[p.pid for p in multiprocessing.active_children()])\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(stochint.__file__).parents[1]))
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-c", code],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert time.perf_counter() - start < 10.0
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        pids = [int(pid) for pid in proc.stdout.split()]
        assert len(pids) == 2
        assert all(_gone(pid) for pid in pids)

    def test_import_starts_no_process(self):
        code = (
            "import multiprocessing, sys, threading, stochint, stochint.cli\n"
            "print(len(multiprocessing.active_children()), threading.active_count(),\n"
            "      'concurrent.futures' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(stochint.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
        )
        assert proc.stdout.split() == ["0", "1", "False"]

    def test_import_loads_no_pool_modules(self):
        # Only a validation with two or more workers loads the pool's modules;
        # this interpreter imports none of them before stochint does.
        code = (
            "import sys, stochint, stochint.cli\n"
            "from stochint.oracle import SimConfig, validate_expansion\n"
            "pool_modules = ('multiprocessing', 'concurrent.futures', 'uuid')\n"
            "print(*[m in sys.modules for m in pool_modules])\n"
            "cfg = SimConfig(steps=64, paths=1100, seed=2, dt=0.5)\n"
            "serial = validate_expansion('pair_distinct', cfg, workers=1)\n"
            "print(*[m in sys.modules for m in pool_modules])\n"
            "pooled = validate_expansion('pair_distinct', cfg, workers=2)\n"
            "import multiprocessing\n"
            "print(len(multiprocessing.active_children()), pooled == serial)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(stochint.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["False False False", "False False False", "2 True"]


class TestWholeChunkReference:
    """Sub-blocked chunks equal the whole-chunk route of ``oracle_reference``."""

    @pytest.mark.parametrize("case", sorted(VALIDATION_CASES))
    @pytest.mark.parametrize("steps", [128, 256, 2048])
    @pytest.mark.parametrize(
        "paths",
        [100, 513, 1300, 4096],
        # 100 = 64 + 36 and 1300 = 2·512 + 4·64 + 20 leave sub-block remainders;
        # 513 leaves a one-path last chunk.
        ids=["one-partial-chunk", "one-path-last-chunk", "sub-block-remainder", "full-chunks"],
    )
    def test_chunk_sums_equal(self, case, steps, paths):
        cfg = SimConfig(steps=steps, paths=paths, seed=paths + steps, dt=DT)
        for idx in range(_chunk_count(paths)):
            assert _chunk_sums(case, cfg, idx) == chunk_sums(case, cfg, idx)

    @pytest.mark.parametrize("paths", [1, 100, 513, 1300])
    def test_partial_chunk_is_prefix_of_full_draw(self, paths):
        cfg = SimConfig(steps=16, paths=paths, seed=8, dt=DT)
        for idx in range(_chunk_count(paths)):
            blocks = [(rows, dw.copy()) for rows, dw in _wiener_blocks(cfg, 3, range(idx, idx + 1))]
            step = oracle.PATH_BLOCK
            assert [rows.start for rows, _ in blocks] == list(range(0, len(blocks) * step, step))
            whole = np.concatenate([dw for _, dw in blocks])
            assert np.array_equal(whole, wiener_chunk(cfg, 3, idx))

    @pytest.mark.parametrize("paths", [100, 513, 1300])
    @pytest.mark.parametrize(
        "weights, components, calculus",
        [((0,), (1,), "ito"), ((1, 0), (1, 1), "ito"), ((0, 2), (1, 2), "strat"),
         ((0, 1, 2), (1, 2, 3), "ito"), ((1, 0, 0), (2, 1, 2), "strat")],
        ids=["single", "equal-pair-weighted", "pair-strat", "triple", "triple-repeat-strat"],
    )
    def test_simulate_iterated_equal(self, paths, weights, components, calculus):
        cfg = SimConfig(steps=32, paths=paths, seed=paths, dt=DT, calculus=calculus)
        args = (KernelSpec(len(weights), weights), IndexPattern(components), cfg)
        assert np.array_equal(simulate_iterated(*args), oracle_reference.simulate_iterated(*args))

    @pytest.mark.parametrize("paths", [100, 513, 1300])
    @pytest.mark.parametrize("m, jmax", [(1, 0), (3, 6)])
    def test_coupled_zeta_equal(self, paths, m, jmax):
        cfg = SimConfig(steps=64, paths=paths, seed=paths + 1, dt=DT)
        expected = oracle_reference.coupled_zeta(cfg, m, jmax)
        assert np.array_equal(coupled_zeta(cfg, m, jmax), expected)


class TestBudget:
    def test_huge_request_raises_before_drawing(self):
        cfg = SimConfig(steps=1_000_000, paths=1_000_000_000, seed=0, dt=DT)
        start = time.perf_counter()
        with pytest.raises(OracleBudgetError, match="normals"):
            validate_expansion("pair_distinct", cfg, workers=2)
        assert time.perf_counter() - start < 1.0

    def test_budget_counts_every_doubling(self):
        # Two components: 2**35 normals on the first grid, three times that with one doubling.
        cfg = SimConfig(steps=2**20, paths=2**14, seed=0, dt=DT)
        with pytest.raises(OracleBudgetError):
            validate_expansion("pair_distinct", cfg, max_doublings=1)

    @pytest.mark.parametrize(
        "paths, steps, components",
        [(100_000, 4096, 3), (4096, 2048, 3)],
        ids=["criterion-6", "validate_mc"],
    )
    def test_budget_admits_the_suite_and_benchmark(self, paths, steps, components):
        assert paths * components * steps * (2**4 - 1) <= NORMALS_BUDGET

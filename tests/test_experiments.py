import logging
import re

import numpy as np
import pytest

from lrhankel import SolverConfig, SvdConvergenceError, experiments
from lrhankel.experiments import (
    SUCCESS_THRESHOLD,
    ExperimentGrid,
    PhaseCell,
    run_bench,
    run_compare,
    run_phase,
    run_trial,
    trial_seed,
)


def small_grid(**overrides):
    base = dict(
        n=16,
        rank_values=(1, 2),
        sample_values=(8, 31),
        trials=5,
        master_seed=123,
        solver=SolverConfig(rank=1, max_iter=400),
    )
    base.update(overrides)
    return ExperimentGrid(**base)


class TestSeeds:
    def test_deterministic(self):
        assert trial_seed(1, 2, 3, 4) == trial_seed(1, 2, 3, 4)

    def test_distinct_across_coordinates(self):
        seeds = {
            trial_seed(m, r, s, t)
            for m in range(2)
            for r in range(3)
            for s in range(3)
            for t in range(4)
        }
        assert len(seeds) == 2 * 3 * 3 * 4


class TestGrid:
    def test_validation(self):
        with pytest.raises(ValueError, match="trials"):
            small_grid(trials=0)
        with pytest.raises(ValueError, match="n must be at least 2"):
            small_grid(n=1, rank_values=(1,), sample_values=(1,))
        with pytest.raises(ValueError, match="sample counts"):
            small_grid(sample_values=(40,))
        with pytest.raises(ValueError, match="nonempty"):
            small_grid(rank_values=())
        for ranks, bad in (((0,), 0), ((1, 17), 17)):
            with pytest.raises(ValueError, match=rf"rank values must lie in \[1, 16\], got {bad}$"):
                small_grid(rank_values=ranks)
        for samples, bad in (((0,), 0), ((8, 40), 40)):
            with pytest.raises(ValueError, match=rf"sample counts must lie in \[1, 31\], got {bad}$"):
                small_grid(sample_values=samples)
        # non-integers and negative seeds are rejected here, not truncated or failed on later
        for field_name, bad, message in (
            ("rank_values", (1.7,), "rank values must be an integer, got 1.7"),
            ("sample_values", (8, 15.9), "sample counts must be an integer, got 15.9"),
            ("trials", 1.5, "trials must be an integer, got 1.5"),
            ("n", 16.0, "n must be an integer, got 16.0"),
            ("master_seed", -1, "master_seed must be at least 0, got -1"),
            ("master_seed", 1.5, "master_seed must be an integer, got 1.5"),
        ):
            with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
                small_grid(**{field_name: bad})
        grid = small_grid(n=np.int64(16), rank_values=np.array([1, 2]), sample_values=(np.int32(8),),
                          trials=np.int64(5), master_seed=np.uint64(123))
        assert (grid.n, grid.rank_values, grid.sample_values, grid.trials, grid.master_seed) == (
            16, (1, 2), (8,), 5, 123)
        assert all(type(v) is int for v in (grid.n, *grid.rank_values, *grid.sample_values))

    def test_phase_cell_rate(self):
        assert PhaseCell(1, 10, 20, 13).success_rate == 0.65


class TestPhase:
    def test_threshold_matches_protocol(self):
        assert SUCCESS_THRESHOLD == 5e-3

    def test_easy_trial_succeeds_and_impossible_fails(self):
        cfg = SolverConfig(rank=1, max_iter=400)
        assert run_trial(16, 1, 31, seed=7, cfg=cfg)
        # fewer samples than degrees of freedom cannot identify the signal
        assert not run_trial(16, 4, 3, seed=7, cfg=SolverConfig(rank=4, max_iter=200))

    def test_only_numerical_failures_count_as_failed_trials(self, monkeypatch, caplog):
        def raising(error):
            def solve(obs, cfg):
                raise error
            return solve

        monkeypatch.setattr(experiments, "solve", raising(TypeError("a bug")))
        with pytest.raises(TypeError, match="a bug"):
            run_trial(16, 1, 31, seed=7, cfg=SolverConfig(rank=1))
        for error in (SvdConvergenceError("no convergence"), np.linalg.LinAlgError("SVD did not converge")):
            monkeypatch.setattr(experiments, "solve", raising(error))
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="lrhankel.experiments"):
                assert run_trial(16, 1, 31, seed=7, cfg=SolverConfig(rank=1)) is False
            (record,) = caplog.records
            assert record.levelno == logging.WARNING and record.exc_info[1] is error

    def test_full_observation_column_is_perfect(self):
        cells = run_phase(small_grid())
        by_key = {(c.rank, c.samples): c for c in cells}
        assert by_key[(1, 31)].success_rate == 1.0
        assert by_key[(2, 31)].success_rate == 1.0

    def test_cells_in_grid_order(self):
        cells = run_phase(small_grid())
        assert [(c.rank, c.samples) for c in cells] == [(1, 8), (1, 31), (2, 8), (2, 31)]
        assert all(c.trials == 5 for c in cells)

    def test_parallel_matches_sequential(self):
        grid = small_grid()
        sequential = run_phase(grid, workers=1)
        parallel = run_phase(grid, workers=4)
        assert sequential == parallel

    def test_pool_never_outnumbers_the_trials(self, monkeypatch):
        # a forked pool starts every worker it is given at the first submit;
        # the fake records its size and maps in-process, starting none
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", RecordingPool)
        grid = small_grid(rank_values=(1,), sample_values=(31,), trials=3)
        serial = run_phase(grid, workers=1)
        assert sizes == []
        for cpus, workers, size in ((64, 64, 3), (2, 64, 2), (2, None, 2), (3, None, 3)):
            monkeypatch.setattr(experiments.os, "cpu_count", lambda: cpus)
            sizes.clear()
            assert run_phase(grid, workers=workers) == serial
            assert sizes == [size], (cpus, workers)
        for cpus, workers, trials in ((64, 64, 1), (None, None, 3), (None, 64, 3)):
            # a single trial, or an unknown CPU count, runs in-process, with no pool
            monkeypatch.setattr(experiments.os, "cpu_count", lambda: cpus)
            sizes.clear()
            run_phase(small_grid(rank_values=(1,), sample_values=(31,), trials=trials), workers=workers)
            assert sizes == [], (cpus, workers, trials)

    def test_rejects_bad_worker_counts(self, monkeypatch):
        # the fake records every pool asked for and starts none
        sizes = []
        monkeypatch.setattr(experiments, "ProcessPoolExecutor", lambda max_workers: sizes.append(max_workers))
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 64)
        grid = small_grid(rank_values=(1,), sample_values=(31,), trials=3)
        for workers, message in ((0, "be at least 1, got 0"), (-3, "be at least 1, got -3"),
                                 (2.5, "be an integer, got 2.5")):
            with pytest.raises(ValueError, match=f"^workers must {re.escape(message)}$"):
                run_phase(grid, workers=workers)
        assert sizes == []

    def test_monotone_in_samples_for_each_rank(self):
        # statistical form: with >= 20 trials the largest-sample column never
        # trails the smallest-sample column
        cells = run_phase(small_grid(trials=20), workers=4)
        by_key = {(c.rank, c.samples): c for c in cells}
        for rank in (1, 2):
            assert by_key[(rank, 31)].success_rate >= by_key[(rank, 8)].success_rate

    def test_undersampled_cell_never_recovers(self):
        # fewer samples than the 2*rank degrees of freedom
        grid = ExperimentGrid(
            n=16,
            rank_values=(4,),
            sample_values=(3,),
            trials=20,
            master_seed=8,
            solver=SolverConfig(rank=1, max_iter=200),
        )
        cell = run_phase(grid, workers=4)[0]
        assert cell.success_rate <= 0.1


class TestBench:
    def test_rows_and_determinism(self):
        cfg = SolverConfig(rank=1, max_iter=300)
        rows1 = run_bench([(16, 1, 10), (32, 2, 20)], cfg, master_seed=5, repeats=1)
        rows2 = run_bench([(16, 1, 10), (32, 2, 20)], cfg, master_seed=5, repeats=1)
        assert [(r.n, r.rank, r.samples) for r in rows1] == [(16, 1, 10), (32, 2, 20)]
        assert all(r.elapsed_seconds > 0 for r in rows1)
        assert [r.iterations for r in rows1] == [r.iterations for r in rows2]
        assert rows1[0].factor_bytes == 2 * 16 * 1 * 16 + 8

    def test_empty_case_list(self):
        assert run_bench([], SolverConfig(rank=1), master_seed=0) == []

    def test_rejects_bad_repeats(self):
        with pytest.raises(ValueError, match="repeats"):
            run_bench([(16, 1, 10)], SolverConfig(rank=1), master_seed=0, repeats=0)

    def test_large_dimension_sweep_stays_matrix_free(self):
        # every benchmark shape up to n=5001 completes with the dense guard
        # armed at its default threshold; iteration-capped to bound runtime
        cases = [
            (51, 1, 10),
            (51, 3, 20),
            (101, 5, 40),
            (501, 5, 100),
            (2501, 13, 500),
            (2501, 25, 1000),
            (5001, 20, 1000),
            (5001, 31, 2000),
        ]
        cfg = SolverConfig(rank=1, max_iter=5, tol=1e-30)
        rows = run_bench(cases, cfg, master_seed=2, repeats=1)
        assert [(r.n, r.rank, r.samples) for r in rows] == cases
        assert all(r.iterations == 5 for r in rows)
        assert all(np.isfinite(r.elapsed_seconds) for r in rows)


class TestCompare:
    def test_shared_instance_and_initial_objective(self):
        result = run_compare(24, 2, 20, seed=3, cfg=SolverConfig(rank=2, max_iter=500))
        assert result.plain.objective_history[0] == result.accelerated.objective_history[0]
        assert result.plain.converged and result.accelerated.converged

    def test_accelerated_not_slower(self):
        result = run_compare(48, 3, 36, seed=9, cfg=SolverConfig(rank=3, max_iter=1500))
        assert result.accelerated.iterations <= result.plain.iterations

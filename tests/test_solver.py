import dataclasses
import math
import re

import numpy as np
import pytest

from lrhankel import (
    HankelVector,
    ObservationSet,
    SolverConfig,
    SpectralModel,
    antidiag_sums_lowrank,
    hankel_dense,
    hankel_operator,
    init_state,
    make_instance,
    objective,
    relative_error,
    solve,
    step,
    synthesize,
)
from lrhankel.lowrank import LowRankFactors, project_rank
from lrhankel.solver import GEMV_MAX_N, blend_operator

from dense_reference import (
    dense_hankel,
    dense_init,
    dense_objective,
    dense_pgd_step,
    dense_solve,
)


def densify(f: LowRankFactors) -> np.ndarray:
    return (f.X * f.sigma) @ f.X.T


def random_factors(n, r, rng):
    """Rank-r factors with a random orthonormal X and sigma in [0.5, 3)."""
    X, _ = np.linalg.qr(rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r)))
    return LowRankFactors(n, X, np.sort(rng.uniform(0.5, 3.0, size=r))[::-1])


def full_observation(x):
    x = np.asarray(x, dtype=np.complex128)
    return ObservationSet((len(x) + 1) // 2, np.arange(len(x)), x)


class TestConfig:
    def test_rejects_boundary_step_sizes(self):
        for bad in (0.0, 1.0, 1.2, -0.1):
            with pytest.raises(ValueError, match="delta1"):
                SolverConfig(rank=1, delta1=bad)
            with pytest.raises(ValueError, match="delta2"):
                SolverConfig(rank=1, delta2=bad)

    def test_permits_near_boundary(self):
        cfg = SolverConfig(rank=1, delta1=0.9999, delta2=0.9999)
        assert cfg.delta1 == 0.9999

    def test_other_validation(self):
        with pytest.raises(ValueError, match="rank"):
            SolverConfig(rank=0)
        for bad in (0.0, float("inf"), float("nan")):
            with pytest.raises(ValueError, match="^tol must be positive and finite"):
                SolverConfig(rank=1, tol=bad)
        with pytest.raises(ValueError, match="max_iter"):
            SolverConfig(rank=1, max_iter=0)
        with pytest.raises(ValueError, match="bound"):
            SolverConfig(rank=1, bound=-1.0)
        # non-integers and negative seeds fail here, not inside solve or only on the Lanczos path
        for field_name, bad, message in (
            ("rank", 2.5, "rank must be an integer, got 2.5"),
            ("max_iter", 3.5, "max_iter must be an integer, got 3.5"),
            ("svd_seed", -1, "svd_seed must be at least 0, got -1"),
            ("svd_seed", 1.5, "svd_seed must be an integer, got 1.5"),
            ("max_iter", True, "max_iter must be an integer, got True"),
            ("rank", np.True_, "rank must be an integer, got True"),
            ("accelerated", "false", "accelerated must be True or False, got 'false'"),
            ("accelerated", 1, "accelerated must be True or False, got 1"),
            ("delta1", "0.5", "delta1 must lie strictly in (0, 1), got '0.5'"),
            ("delta2", True, "delta2 must lie strictly in (0, 1), got True"),
            ("tol", True, "tol must be positive and finite, got True"),
            ("tol", "1e-4", "tol must be positive and finite, got '1e-4'"),
            ("bound", True, "bound must be positive when set, got True"),
            ("bound", "2", "bound must be positive when set, got '2'"),
            ("bound", float("nan"), "bound must be positive when set, got nan"),
        ):
            with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
                SolverConfig(**{"rank": 1, field_name: bad})
        cfg = SolverConfig(rank=np.int64(2), max_iter=np.int32(7), svd_seed=np.uint64(2**64 - 1))
        assert (cfg.rank, cfg.max_iter, cfg.svd_seed) == (2, 7, 2**64 - 1)


class TestInit:
    def test_empty_observation(self):
        state = init_state(ObservationSet(4, [], []), SolverConfig(rank=2))
        assert not state.z.values.any()
        assert state.factors.rank == 0

    def test_single_observation_example(self):
        state = init_state(ObservationSet(2, [0], [5.0]), SolverConfig(rank=1))
        assert np.allclose(state.z.values, [5, 0, 0])

    def test_full_observation_of_low_rank_signal_starts_at_solution(self):
        x = synthesize(SpectralModel([0.2, 0.6], [1.0, 1.0 + 1.0j]), 15)
        state = init_state(full_observation(x), SolverConfig(rank=2))
        scale = np.linalg.norm(x) ** 2
        assert state.objective <= 1e-12 * scale

    def test_momentum_starts_at_one(self):
        state = init_state(ObservationSet(3, [1], [1.0]), SolverConfig(rank=1))
        assert state.momentum == 1.0 and state.t == 0


class TestObjective:
    def test_coincident_arguments(self):
        rng = np.random.default_rng(0)
        z = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        h = HankelVector(5, z)
        f = project_rank(hankel_operator(h), 5)
        assert objective(f, h, antidiag_sums_lowrank(f)) <= 1e-10

    def test_zero_factor_example(self):
        f = LowRankFactors(2, np.zeros((2, 0)), [])
        assert objective(f, HankelVector(2, [1, 1, 1]), antidiag_sums_lowrank(f)) == 2.0

    @pytest.mark.parametrize("n", [2, 5, 9, 16])
    def test_matches_dense_formula(self, n):
        rng = np.random.default_rng(n)
        z = rng.standard_normal(2 * n - 1) + 1j * rng.standard_normal(2 * n - 1)
        h = HankelVector(n, z)
        f = random_factors(n, min(3, n), rng)
        expected = 0.5 * np.linalg.norm(densify(f) - hankel_dense(h)) ** 2
        assert abs(objective(f, h, antidiag_sums_lowrank(f)) - expected) <= 1e-10 * max(expected, 1.0)


class TestSteps:
    def test_pgd_fixed_point_at_consensus(self):
        x = synthesize(SpectralModel([0.31], [2.0 - 1.0j]), 13)
        obs = full_observation(x)
        cfg = SolverConfig(rank=1)
        state = init_state(obs, cfg)
        after = step(state, obs, cfg)
        assert np.allclose(after.z.values, state.z.values, atol=1e-8)
        assert np.linalg.norm(densify(after.factors) - densify(state.factors)) <= 1e-8

    def test_pgd_one_step_full_observation_reaches_consensus(self):
        x = synthesize(SpectralModel([0.11], [1.0]), 7)
        obs = full_observation(x)
        cfg = SolverConfig(rank=1)
        state = step(init_state(obs, cfg), obs, cfg)
        assert state.objective <= 1e-16

    @pytest.mark.parametrize("seed", range(6))
    def test_pgd_half_step_descent(self, seed):
        rng = np.random.default_rng(seed)
        inst = make_instance(10, 2, 8, seed)
        cfg = SolverConfig(
            rank=2,
            delta1=float(rng.uniform(0.1, 0.99)),
            delta2=float(rng.uniform(0.1, 0.99)),
            svd_seed=seed,
        )
        state = init_state(inst.obs, cfg)
        for _ in range(5):
            before = state.objective
            after = step(state, inst.obs, cfg)
            sums = antidiag_sums_lowrank(after.factors)
            mid = objective(after.factors, state.z, sums)
            final = objective(after.factors, after.z, sums)
            assert after.objective == final
            slack = 1e-12 * max(before, 1.0)
            assert mid <= before + slack
            assert final <= mid + slack
            state = after

    def test_feasibility_bit_exact_along_iterations(self):
        inst = make_instance(12, 2, 10, seed=3)
        cfg = SolverConfig(rank=2, accelerated=True, svd_seed=3)
        state = init_state(inst.obs, cfg)
        for _ in range(10):
            state = step(state, inst.obs, cfg)
            assert np.array_equal(state.z.values[inst.obs.indices], inst.obs.values)
            assert np.array_equal(state.z_tilde.values[inst.obs.indices], inst.obs.values)
            assert state.factors.rank <= 2

    @pytest.mark.parametrize("bound", [None, 1.5])
    # the ids keep the names the plain and accelerated steps had before `step`
    @pytest.mark.parametrize("accelerated", [False, True], ids=["pgd_step", "fista_step"])
    def test_feasibility_bit_exact_on_the_lanczos_path(self, accelerated, bound, lanczos_only):
        inst = make_instance(40, 3, 30, seed=5)
        cfg = SolverConfig(rank=3, accelerated=accelerated, bound=bound, svd_seed=5)
        state = init_state(inst.obs, cfg)
        for _ in range(10):
            state = step(state, inst.obs, cfg)
            assert np.array_equal(state.z.values[inst.obs.indices], inst.obs.values)
            assert np.array_equal(state.z_tilde.values[inst.obs.indices], inst.obs.values)
            assert state.factors.rank <= 3
        if bound is not None:
            assert np.abs(np.delete(state.z.values, inst.obs.indices)).max() <= bound * (1 + 1e-15)

    def test_momentum_recurrence_values(self):
        inst = make_instance(8, 1, 6, seed=1)
        cfg = SolverConfig(rank=1, accelerated=True)
        state = init_state(inst.obs, cfg)
        golden = (math.sqrt(5.0) + 1.0) / 2.0
        state = step(state, inst.obs, cfg)
        assert abs(state.momentum - golden) <= 1e-15
        state = step(state, inst.obs, cfg)
        k2 = (math.sqrt(1.0 + 4.0 * golden**2) + 1.0) / 2.0
        assert abs(state.momentum - k2) <= 1e-15
        # frozen from a 50-digit Decimal evaluation of the recurrence
        assert abs(k2 - 2.1935270853310539) <= 1e-12

    def test_first_accelerated_step_equals_plain_step(self):
        inst = make_instance(9, 2, 8, seed=2)
        cfg = SolverConfig(rank=2, svd_seed=2)
        state = init_state(inst.obs, cfg)
        plain = step(state, inst.obs, cfg)
        accel = step(state, inst.obs, dataclasses.replace(cfg, accelerated=True))
        assert np.array_equal(plain.z.values, accel.z.values)
        assert np.array_equal(accel.z_tilde.values, accel.z.values)

    def test_momentum_frozen_at_one_matches_pgd_exactly(self):
        inst = make_instance(9, 2, 8, seed=4)
        cfg = SolverConfig(rank=2, svd_seed=4)
        state_p = init_state(inst.obs, cfg)
        state_f = init_state(inst.obs, cfg)
        accel = dataclasses.replace(cfg, accelerated=True)
        for _ in range(6):
            state_p = step(state_p, inst.obs, cfg)
            state_f = step(state_f, inst.obs, accel)
            state_f = dataclasses.replace(state_f, momentum=1.0)
            assert np.array_equal(state_p.z.values, state_f.z.values)

    def test_accelerated_step_restarts_when_the_objective_rises(self):
        inst = make_instance(12, 2, 10, seed=3)
        cfg = SolverConfig(rank=2, accelerated=True, svd_seed=3)
        state = init_state(inst.obs, cfg)
        for _ in range(3):
            state = step(state, inst.obs, cfg)
        # from the true objective the step extrapolates; from a lower one,
        # which any positive objective exceeds, it restarts
        moved = step(dataclasses.replace(state, momentum=3.0), inst.obs, cfg)
        assert moved.objective > 0.0 and moved.momentum > 1.0
        assert not np.array_equal(moved.z_tilde.values, moved.z.values)
        restarted = step(dataclasses.replace(state, objective=0.0, momentum=3.0), inst.obs, cfg)
        assert restarted.momentum == 1.0
        assert np.array_equal(restarted.z_tilde.values, restarted.z.values)
        assert np.array_equal(restarted.z.values, moved.z.values)

    @pytest.mark.parametrize("bound", [None, 1.5])
    def test_plain_step_never_extrapolates(self, bound):
        inst = make_instance(12, 2, 10, seed=3)
        cfg = SolverConfig(rank=2, bound=bound, svd_seed=3)
        state = init_state(inst.obs, cfg)
        for _ in range(6):
            state = step(dataclasses.replace(state, momentum=3.0), inst.obs, cfg)
            assert state.momentum == 1.0
            assert np.array_equal(state.z_tilde.values, state.z.values)

    def test_fista_fixed_point_at_consensus(self):
        x = synthesize(SpectralModel([0.4], [1.0]), 9)
        obs = full_observation(x)
        cfg = SolverConfig(rank=1, accelerated=True)
        state = init_state(obs, cfg)
        for _ in range(3):
            state = step(state, obs, cfg)
        assert np.allclose(state.z.values, x, atol=1e-8)

    @pytest.mark.parametrize("n, rank, samples, seed", [
        *(pytest.param(300, 8, 150, seed, id=str(seed)) for seed in range(4)),
        # below the dense threshold, where the small ranks take Lanczos
        *(pytest.param(64, rank, 30, seed, id=f"n64-r{rank}-{seed}") for rank in (1, 2, 3) for seed in range(4)),
    ])
    def test_lanczos_projection_matches_dense_svd_mid_solve(self, n, rank, samples, seed):
        # a Ritz check may stop Lanczos early; it must not stop before a
        # leading triplet of a real iterate has converged
        inst = make_instance(n, rank, samples, seed)
        cfg = SolverConfig(rank=rank)
        state = init_state(inst.obs, cfg)
        for _ in range(5):
            state = step(state, inst.obs, cfg)
        op = blend_operator(state.factors, state.z, cfg.delta1)

        def refuse():
            raise AssertionError("the projection took the dense path")

        f = project_rank(dataclasses.replace(op, materialize=refuse), rank, seed=cfg.svd_seed)
        blend = (1 - cfg.delta1) * densify(state.factors) + cfg.delta1 * dense_hankel(state.z.values)
        U, s, Vh = np.linalg.svd(blend)
        assert f.rank == rank
        assert np.all(np.abs(f.sigma - s[:rank]) <= 1e-9 * s[:rank])
        # X spans the left singular vectors, and conj(X) the right ones
        for got, want in ((f.X, U[:, :rank]), (f.X.conj(), Vh[:rank].conj().T)):
            projector = want @ want.conj().T
            assert np.linalg.norm(got @ got.conj().T - projector) <= 1e-9 * np.linalg.norm(projector)


def random_blend(n, rank, rng, delta1=0.3):
    """blend_operator on a random Hankel vector and random rank-`rank` factors; returns (op, f, h)."""
    h = HankelVector(n, rng.standard_normal(2 * n - 1) + 1j * rng.standard_normal(2 * n - 1))
    f = random_factors(n, rank, rng)
    return blend_operator(f, h, delta1), f, h


class TestBlendOperator:
    # gemv on the dense blend at n <= GEMV_MAX_N, the FFT blend above it
    @pytest.mark.parametrize("n, rank", [
        (2, 0), (2, 1), (7, 0), (7, 3), (64, 0), (64, 5),
        (GEMV_MAX_N, 0), (GEMV_MAX_N, 5), (GEMV_MAX_N + 1, 0), (GEMV_MAX_N + 1, 5),
    ])
    def test_matches_dense_blend(self, n, rank):
        rng = np.random.default_rng(n + rank)
        delta1 = 0.3
        op, f, h = random_blend(n, rank, rng, delta1)
        # built from the oracle's Hankel matrix and X diag(sigma) X^T, not from
        # the package's dense helpers that `materialize` calls
        dense = (1 - delta1) * densify(f) + delta1 * dense_hankel(h.values)
        assert np.allclose(op.materialize(), dense, rtol=0, atol=1e-13 * np.abs(dense).max())
        for _ in range(3):
            v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            scale = 1e-13 * np.linalg.norm(dense) * np.linalg.norm(v)
            assert np.linalg.norm(op.apply(v) - dense @ v) <= scale

    def test_rejects_mismatched_dimensions(self):
        with pytest.raises(ValueError, match="^dimension mismatch: factors n=3, h n=4$"):
            blend_operator(LowRankFactors(3, np.zeros((3, 0)), []), HankelVector(4, np.zeros(7)), 0.3)

    def test_applies_leave_input_and_earlier_results_alone(self):
        # the FFT blend accumulates in the Hankel product's array and the gemv
        # writes a fresh one, never v; both sides of the bound
        rng = np.random.default_rng(4)
        for n in (40, GEMV_MAX_N, GEMV_MAX_N + 1):
            op = random_blend(n, 3, rng)[0]
            v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            before = v.copy()
            first = op.apply(v)
            kept = first.copy()
            later = [op.apply(v), op.apply(first)]
            assert np.array_equal(v, before)
            assert np.array_equal(first, kept)
            for result in later:
                assert not np.shares_memory(first, result)
            assert not np.shares_memory(later[0], later[1])

    @pytest.mark.parametrize("n", [GEMV_MAX_N, GEMV_MAX_N + 1])
    def test_rejects_a_vector_of_the_wrong_shape(self, n):
        op = random_blend(n, 2, np.random.default_rng(5))[0]
        with pytest.raises(ValueError, match=rf"^vector has shape \({n + 1},\), expected \({n},\)$"):
            op.apply(np.ones(n + 1))

    def test_materialized_blend_is_built_once_and_read_only(self):
        op = random_blend(GEMV_MAX_N, 2, np.random.default_rng(6))[0]
        M = op.materialize()
        assert op.materialize() is M
        with pytest.raises(ValueError, match="read-only"):
            M[0, 0] = 0.0


class TestBound:
    def test_clamp_limits_unobserved_magnitudes(self):
        inst = make_instance(10, 2, 6, seed=5)
        bound = 0.4
        cfg = SolverConfig(rank=2, bound=bound, accelerated=True, svd_seed=5)
        state = init_state(inst.obs, cfg)
        unobserved = np.setdiff1d(np.arange(19), inst.obs.indices)
        for _ in range(8):
            state = step(state, inst.obs, cfg)
            assert np.all(np.abs(state.z.values[unobserved]) <= bound + 1e-12)
            assert np.all(np.abs(state.z_tilde.values[unobserved]) <= bound + 1e-12)
            assert np.array_equal(state.z.values[inst.obs.indices], inst.obs.values)

    def test_solve_with_generous_bound_matches_unbounded(self):
        inst = make_instance(12, 1, 10, seed=6)
        free = solve(inst.obs, SolverConfig(rank=1, svd_seed=6))
        capped = solve(inst.obs, SolverConfig(rank=1, bound=1e6, svd_seed=6))
        assert np.array_equal(free.z_hat, capped.z_hat)

    def test_accelerated_solve_with_generous_bound_keeps_every_bit(self):
        # a clamp that scales nothing rewrites the observed values already there
        inst = make_instance(16, 2, 14, seed=3)
        free = solve(inst.obs, SolverConfig(rank=2, accelerated=True, svd_seed=3))
        capped = solve(inst.obs, SolverConfig(rank=2, accelerated=True, bound=1e6, svd_seed=3))
        assert free.iterations == capped.iterations
        assert free.z_hat.tobytes() == capped.z_hat.tobytes()
        assert free.objective_history.tobytes() == capped.objective_history.tobytes()


class TestSolve:
    def test_full_observation_rank1(self):
        x = synthesize(SpectralModel([0.27], [1.0 + 0.3j]), 7)
        result = solve(full_observation(x), SolverConfig(rank=1))
        assert result.converged
        assert result.iterations <= 3
        assert relative_error(result.z_hat, x) <= 1e-8

    def test_max_iter_one(self):
        inst = make_instance(10, 2, 6, seed=7)
        result = solve(inst.obs, SolverConfig(rank=2, max_iter=1, svd_seed=7))
        assert result.iterations == 1
        assert not result.converged
        assert len(result.objective_history) == 2
        assert len(result.relchange_history) == 1

    def test_zero_data_converges_to_zero(self):
        obs = ObservationSet(5, [2, 4], [0.0, 0.0])
        result = solve(obs, SolverConfig(rank=1))
        assert result.converged
        assert not result.z_hat.any()

    def test_seeded_midsize_instance_recovers(self):
        inst = make_instance(32, 2, 24, seed=11)
        result = solve(inst.obs, SolverConfig(rank=2, max_iter=2000, svd_seed=11))
        assert result.converged
        assert relative_error(result.z_hat, inst.x_true) <= 5e-3
        # the dense reference agrees on this instance
        z_ref, _, ref_conv, _ = dense_solve(inst.obs, SolverConfig(rank=2, max_iter=2000))
        assert ref_conv
        assert relative_error(z_ref, inst.x_true) <= 5e-3

    @pytest.mark.parametrize("accelerated", [False, True])
    def test_deterministic(self, accelerated):
        inst = make_instance(16, 2, 14, seed=8)
        cfg = SolverConfig(rank=2, accelerated=accelerated, max_iter=50, svd_seed=8)
        a = solve(inst.obs, cfg)
        b = solve(inst.obs, cfg)
        assert np.array_equal(a.z_hat, b.z_hat)
        assert np.array_equal(a.objective_history, b.objective_history)
        assert np.array_equal(a.relchange_history, b.relchange_history)
        assert a.iterations == b.iterations and a.converged == b.converged

    def test_converged_run_ends_below_tol(self):
        inst = make_instance(16, 1, 12, seed=9)
        cfg = SolverConfig(rank=1, svd_seed=9)
        result = solve(inst.obs, cfg)
        assert result.converged
        assert result.relchange_history[-1] <= cfg.tol

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_pgd_objective_monotone(self, rank):
        for seed in range(4):
            inst = make_instance(16, rank, 4 * rank + 6, seed=seed)
            cfg = SolverConfig(rank=rank, max_iter=60, svd_seed=seed)
            result = solve(inst.obs, cfg)
            h = result.objective_history
            slack = 1e-12 * max(h[0], 1.0)
            assert np.all(np.diff(h) <= slack)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_dense_reference_iterate_by_iterate(self, seed, lanczos_only):
        inst = make_instance(9, 2, 10, seed=seed)
        cfg = SolverConfig(rank=2, svd_seed=seed)
        ref = dense_init(inst.obs, cfg)
        state = init_state(inst.obs, cfg)
        scale = np.linalg.norm(inst.x_true)
        for _ in range(20):
            ref = dense_pgd_step(ref, inst.obs, cfg)
            state = step(state, inst.obs, cfg)
            assert np.linalg.norm(state.z.values - ref.z) <= 1e-8 * scale
            assert np.linalg.norm(densify(state.factors) - ref.L) <= 1e-8 * scale
            assert abs(state.objective - dense_objective(ref)) <= 1e-8 * scale**2

    def test_accelerated_not_slower_to_converge(self):
        inst = make_instance(48, 3, 36, seed=10)
        plain = solve(inst.obs, SolverConfig(rank=3, max_iter=3000, svd_seed=10))
        accel = solve(inst.obs, SolverConfig(rank=3, max_iter=3000, accelerated=True, svd_seed=10))
        assert plain.converged and accel.converged
        assert accel.iterations <= plain.iterations

    @pytest.mark.parametrize("seed", range(4))
    def test_accelerated_solve_matches_dense_reference(self, seed, lanczos_only):
        inst = make_instance(10, 2, 12, seed=seed)
        cfg = SolverConfig(rank=2, accelerated=True, tol=1e-6, max_iter=200, svd_seed=seed)
        z_ref, iters_ref, conv_ref, objs_ref = dense_solve(inst.obs, cfg)
        result = solve(inst.obs, cfg)
        assert result.iterations == iters_ref
        assert result.converged == conv_ref
        scale = np.linalg.norm(inst.x_true)
        assert np.linalg.norm(result.z_hat - z_ref) <= 1e-8 * scale
        assert np.allclose(result.objective_history, objs_ref, rtol=1e-8, atol=1e-10 * scale**2)

    def test_concurrent_solves_match_sequential(self):
        # solves share no mutable state, so racing them changes nothing; at
        # n=16 every projection is a dense SVD, at n=64 and rank 2 every one
        # runs Lanczos in the row buffers its solve holds
        from concurrent.futures import ThreadPoolExecutor

        instances = [make_instance(16, 2, 14, seed=s) for s in range(4)]
        instances += [make_instance(64, 2, 40, seed=s) for s in range(4)]
        cfgs = [SolverConfig(rank=2, max_iter=100, svd_seed=s, accelerated=s % 2 == 1) for s in range(8)]
        sequential = [solve(i.obs, c).z_hat for i, c in zip(instances, cfgs)]
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(lambda ic: solve(ic[0].obs, ic[1]).z_hat,
                                     zip(instances, cfgs)))
        for a, b in zip(sequential, threaded):
            assert np.array_equal(a, b)

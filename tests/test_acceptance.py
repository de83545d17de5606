"""Acceptance gate: every release criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion. Heavier scenarios live here rather than in the unit modules;
each test also enforces its wall-clock budget.
"""

import time
from contextlib import contextmanager

import numpy as np

from lrhankel import (
    LinearOperator,
    ObservationSet,
    SolverConfig,
    SpectralModel,
    extract_frequencies,
    init_state,
    make_instance,
    project_rank,
    solve,
    step,
    synthesize,
)
from lrhankel.cli import main
from lrhankel.experiments import ExperimentGrid, run_bench, run_compare, run_phase

from dense_reference import (
    constrained_hankel_lstsq,
    dense_hankel,
    dense_init,
    dense_pgd_step,
    dense_project_hankel,
    match_frequencies,
)


@contextmanager
def criterion(name, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, (
        f"{name} exceeded its runtime budget: {elapsed:.1f}s >= {budget_seconds}s"
    )
    print(f"\nACCEPTANCE {name}: PASS ({elapsed:.1f}s)")


def matrix_free(A):
    """A as an operator without `materialize`, so it takes the Lanczos path."""
    A = np.asarray(A, dtype=np.complex128)
    return LinearOperator(n=A.shape[0], apply=lambda v: A @ v)


def separated_spectrum_matrix(n, rng):
    """Complex symmetric Y diag(s) Y^T, the operators project_rank takes."""
    Y, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    s = 10.0 * 0.75 ** np.arange(n)
    return (Y * s) @ Y.T


def test_data_projection_matches_constrained_least_squares():
    with criterion("data-projection-vs-constrained-lstsq", budget_seconds=5):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            m = int(rng.integers(0, 2 * n))
            idx = np.sort(rng.choice(2 * n - 1, size=m, replace=False))
            obs = ObservationSet(n, idx, rng.standard_normal(m) + 1j * rng.standard_normal(m))
            closed = dense_hankel(dense_project_hankel(X, obs))
            oracle = dense_hankel(constrained_hankel_lstsq(X, obs))
            scale = max(np.linalg.norm(oracle), 1.0)
            assert np.linalg.norm(closed - oracle) <= 1e-10 * scale


def test_rank_projection_matches_dense_svd_truncation():
    with criterion("rank-projection-vs-dense-svd", budget_seconds=30):
        rng = np.random.default_rng(77)
        for case in range(100):
            n = int(rng.integers(4, 33))
            r = int(rng.integers(1, 5))
            if case % 2 == 0:
                A = separated_spectrum_matrix(n, rng)
            else:
                G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                A = G + G.T
            U, s, Vh = np.linalg.svd(A)
            oracle = (U[:, :r] * s[:r]) @ Vh[:r]
            f = project_rank(matrix_free(A), r, tol=1e-12, seed=case)
            approx = (f.X * f.sigma) @ f.X.T
            assert np.linalg.norm(approx - oracle) <= 1e-8 * max(np.linalg.norm(oracle), 1.0)


def test_factored_iterates_match_dense_reference(lanczos_only):
    with criterion("factored-vs-dense-reference-iterates", budget_seconds=30):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(6, 17))
            rank = int(rng.integers(1, 4))
            samples = int(rng.integers(2 * rank + 2, 2 * n - 1))
            inst = make_instance(n, rank, samples, seed)
            cfg = SolverConfig(rank=rank, svd_seed=seed)
            ref = dense_init(inst.obs, cfg)
            state = init_state(inst.obs, cfg)
            scale = max(np.linalg.norm(inst.x_true), 1.0)
            for _ in range(20):
                ref = dense_pgd_step(ref, inst.obs, cfg)
                state = step(state, inst.obs, cfg)
                assert np.linalg.norm(state.z.values - ref.z) <= 1e-8 * scale
                factored = (state.factors.X * state.factors.sigma) @ state.factors.X.T
                assert np.linalg.norm(factored - ref.L) <= 1e-8 * scale


def test_objective_monotone_on_plain_path():
    with criterion("plain-path-objective-monotonicity", budget_seconds=60):
        rng = np.random.default_rng(5150)
        for instance in range(20):
            rank = instance % 3 + 1
            samples = int(rng.integers(2 * rank + 2, 50))
            inst = make_instance(32, rank, samples, seed=instance)
            cfg = SolverConfig(rank=rank, tol=1e-30, max_iter=100, svd_seed=instance)
            result = solve(inst.obs, cfg)
            history = result.objective_history
            slack = 1e-12 * max(history[0], 1.0)
            assert np.all(np.diff(history) <= slack), f"instance {instance} not monotone"


def test_desk_scale_recovery_rates():
    with criterion("desk-scale-recovery-rates", budget_seconds=300):
        solver = SolverConfig(rank=1, delta1=0.9999, delta2=0.9999, tol=1e-4, max_iter=1000)
        easy = run_phase(
            ExperimentGrid(
                n=64, rank_values=(2,), sample_values=(30,), trials=20,
                master_seed=2024, solver=solver,
            ),
            workers=4,
        )[0]
        assert easy.success_rate >= 0.9, f"easy cell rate {easy.success_rate}"
        hard = run_phase(
            ExperimentGrid(
                n=64, rank_values=(6,), sample_values=(10,), trials=20,
                master_seed=2024, solver=solver,
            ),
            workers=4,
        )[0]
        assert hard.success_rate <= 0.1, f"hard cell rate {hard.success_rate}"


def test_accelerated_iteration_ratio():
    with criterion("accelerated-vs-plain-iteration-ratio", budget_seconds=120):
        cfg = SolverConfig(rank=8, tol=1e-4, max_iter=3000)
        result = run_compare(501, 8, 200, seed=7, cfg=cfg)
        assert result.plain.converged and result.accelerated.converged
        ratio = result.accelerated.iterations / result.plain.iterations
        assert ratio <= 0.8, f"iteration ratio {ratio:.3f}"


def test_large_scale_memory_and_subquadratic_scaling():
    with criterion("memory-and-per-iteration-scaling", budget_seconds=240):
        # completes with the dense guard armed at its default threshold
        inst = make_instance(2501, 13, 500, seed=1)
        result = solve(inst.obs, SolverConfig(rank=13, max_iter=25, tol=1e-4, svd_seed=1))
        assert np.all(np.isfinite(result.z_hat))
        assert result.iterations >= 1

        # per-iteration time grows subquadratically when n doubles
        cfg = SolverConfig(rank=8, tol=1e-30, max_iter=30)
        rows = run_bench([(501, 8, 200), (1001, 8, 200)], cfg, master_seed=3, repeats=3)
        per_iter = [row.elapsed_seconds / row.iterations for row in rows]
        assert rows[0].iterations == rows[1].iterations == 30
        ratio = per_iter[1] / per_iter[0]
        assert ratio < 4.0, f"per-iteration time ratio {ratio:.2f}"


def test_frequency_round_trip():
    with criterion("frequency-round-trip", budget_seconds=60):
        n = 64
        rng = np.random.default_rng(99)
        for _ in range(50):
            while True:
                freqs = np.sort(rng.uniform(0.0, 1.0, size=3))
                gaps = np.diff(np.concatenate([freqs, [freqs[0] + 1.0]]))
                if gaps.min() >= 2.0 / n:
                    break
            amps = np.exp(2j * np.pi * rng.uniform(0.0, 1.0, size=3))
            x = synthesize(SpectralModel(freqs, amps), 2 * n - 1)
            recovered = extract_frequencies(x, 3)
            assert match_frequencies(recovered, freqs) <= 1e-8


def test_phase_csv_byte_identical_across_workers(tmp_path):
    with criterion("phase-csv-byte-identical", budget_seconds=240):
        def run_phase_cli(out, threads):
            code = main([
                "phase", "--n", "32", "--rank-values", "1,2", "--samples-values", "16,40",
                "--trials", "5", "--seed", "31415", "--threads", str(threads),
                "--out", str(out),
            ])
            assert code == 0
            return (out / "phase.csv").read_bytes()

        single_a = run_phase_cli(tmp_path / "s1", threads=1)
        single_b = run_phase_cli(tmp_path / "s2", threads=1)
        pooled = run_phase_cli(tmp_path / "p4", threads=4)
        assert single_a == single_b
        assert single_a == pooled

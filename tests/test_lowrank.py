import re

import numpy as np
import pytest

from lrhankel import (
    DenseMaterializationError,
    LinearOperator,
    LowRankFactors,
    SvdConvergenceError,
    project_rank,
)
from lrhankel import lowrank
from lrhankel.hankel import HankelVector, hankel_operator
from lrhankel.lowrank import DENSE_THRESHOLD, LanczosRows, lowrank_dense
from lrhankel.signal import make_instance
from lrhankel.solver import GEMV_MAX_N, SolverConfig, init_state, step


def dense_operator(A, materialize=True):
    """A as an operator; without `materialize` it takes the Lanczos path."""
    A = np.asarray(A, dtype=np.complex128)
    return LinearOperator(n=A.shape[0], apply=lambda v: A @ v, materialize=(lambda: A) if materialize else None)


def orthonormality_defect(f):
    """Max deviation of X*X from the identity."""
    if f.rank == 0:
        return 0.0
    return float(np.abs(f.X.conj().T @ f.X - np.eye(f.rank)).max())


def random_unitary(n, rng):
    Y, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return Y


def random_spectrum_matrix(n, rng, decay=0.75):
    """Random complex symmetric matrix Y diag(s) Y^T with well-separated singular values."""
    Y = random_unitary(n, rng)
    return (Y * (decay ** np.arange(n) * 10.0)) @ Y.T


def nonsymmetric_matrix(n, rng):
    """Random U diag(s) V* with the singular values of random_spectrum_matrix; A^T != A."""
    U, V = random_unitary(n, rng), random_unitary(n, rng)
    return (U * (0.75 ** np.arange(n) * 10.0)) @ V.conj().T


def small_gap_operator(n, r, applies):
    """Diagonal operator with sigma_r / sigma_(r+1) = 1.001 and its tail crowding
    just below sigma_(r+1); every apply appends to `applies`. Returns (op, sigma)."""
    tail = 3.0 / 1.001 * (1.0 - 0.9 * np.linspace(0.0, 1.0, n - r) ** 3)
    s = np.concatenate([np.linspace(10.0, 3.0, r), tail])
    d = s * np.exp(2j * np.pi * np.random.default_rng(5).uniform(size=n))
    return LinearOperator(n, apply=lambda v: applies.append(1) or d * v), s


class TestFactors:
    def test_zero_factors(self):
        f = LowRankFactors.zero(4)
        assert f.rank == 0
        assert not lowrank_dense(f).any()

    def test_validation(self):
        with pytest.raises(ValueError, match="shapes"):
            LowRankFactors(3, np.zeros((3, 2)), np.zeros(1))
        with pytest.raises(ValueError, match="nonincreasing"):
            LowRankFactors(3, np.zeros((3, 2)), [1.0, 2.0])
        with pytest.raises(ValueError, match="nonincreasing"):
            LowRankFactors(3, np.zeros((3, 1)), [-1.0])

    def test_storage_is_linear_in_n(self):
        n, r = 5001, 31
        f = LowRankFactors(n, np.zeros((n, r)), np.zeros(r))
        nbytes = f.X.nbytes + f.sigma.nbytes
        assert nbytes == n * r * 16 + r * 8
        assert nbytes < 0.02 * n * n * 16

    def test_elementary_outer_product(self):
        # X diag(sigma) X^T, a transpose and not a conjugate transpose
        x = np.array([[1.0], [1j], [0.0]]) / np.sqrt(2)
        f = LowRankFactors(3, x, [2.0])
        assert np.allclose(lowrank_dense(f), [[1, 1j, 0], [1j, -1, 0], [0, 0, 0]])

    def test_zero_factors_give_positive_zero_bits(self):
        # the rank-0 product takes the general path: an empty sum is +0.0 everywhere
        for n in (1, 2, 7, 64):
            assert lowrank_dense(LowRankFactors.zero(n)).tobytes() == np.zeros((n, n), complex).tobytes()

    def test_dense_guard(self):
        f = LowRankFactors.zero(DENSE_THRESHOLD + 1)
        with pytest.raises(DenseMaterializationError):
            lowrank_dense(f)

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_x_is_a_read_only_column_major_copy(self, layout):
        # X^T is r contiguous rows whatever layout X comes in; r >= 2, since
        # an n-by-1 array is both C- and F-contiguous
        rng = np.random.default_rng(3)
        wide = rng.standard_normal((7, 6)) + 1j * rng.standard_normal((7, 6))
        X = {"C": wide[:, :3].copy(), "F": np.asfortranarray(wide[:, :3]), "strided": wide[:, ::2]}[layout]
        assert X.flags.c_contiguous == (layout == "C") and X.flags.f_contiguous == (layout == "F")
        given = X.copy()
        f = LowRankFactors(7, X, [3.0, 2.0, 1.0])
        assert f.X.T.flags.c_contiguous
        assert np.array_equal(f.X, given)
        X[:] = 0.0
        assert np.array_equal(f.X, given)
        assert not f.X.flags.writeable

    def test_step_above_the_gemv_bound_stores_x_column_major(self):
        cfg = SolverConfig(rank=2, accelerated=True)
        obs = make_instance(GEMV_MAX_N + 21, 2, 120, 4).obs
        f = step(init_state(obs, cfg), obs, cfg).factors
        assert f.rank == 2 and f.X.T.flags.c_contiguous


class TestTruncatedSvd:
    def test_diagonal_example(self):
        op = dense_operator(np.diag([3.0, 2.0, 1.0]))
        f = project_rank(op, 2)
        assert np.allclose(f.sigma, [3, 2])
        # singular vectors are coordinate axes up to unit phase
        approx = lowrank_dense(f)
        assert np.allclose(approx, np.diag([3.0, 2.0, 0.0]), atol=1e-12)

    def test_zero_operator(self):
        assert project_rank(dense_operator(np.zeros((5, 5))), 3).rank == 0
        assert project_rank(dense_operator(np.zeros((5, 5)), materialize=False), 3).rank == 0

    def test_rejects_bad_rank(self):
        op = dense_operator(np.eye(3))
        with pytest.raises(ValueError):
            project_rank(op, 0)
        with pytest.raises(ValueError):
            project_rank(op, 4)

    @pytest.mark.parametrize("seed, message", [
        (-1, "seed must be at least 0, got -1"), (1.5, "seed must be an integer, got 1.5"),
    ])
    def test_rejects_bad_seed(self, seed, message):
        # the seed keys the start vector a LanczosRows holds, so it is an integer
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            project_rank(dense_operator(np.eye(3), materialize=False), 1, seed=seed)

    @pytest.mark.parametrize("tol", [0.0, -1.0, 0.1, 0.5, 10.0, np.nan, np.inf, "1e-10", None])
    def test_rejects_tol_outside_its_range(self, tol):
        # from 0.1 up the residual bound 10 tol sigma_1 no longer constrains
        # the triplets: on this operator 0.5 and 10 give sigma_3 30% low
        op = dense_operator(random_spectrum_matrix(60, np.random.default_rng(60)), materialize=False)
        with pytest.raises(ValueError, match=rf"^tol must be a number in \(0, 0\.1\), got {re.escape(str(tol))}$"):
            project_rank(op, 3, tol=tol)

    def test_unreachable_tol_is_named_in_the_verification_error(self):
        # the adjoint is exact, but no residual reaches 10 * 1e-300 * sigma_1
        op = dense_operator(random_spectrum_matrix(60, np.random.default_rng(60)), materialize=False)
        with pytest.raises(SvdConvergenceError, match="tol=1e-300 is below the accuracy its residuals can reach"):
            project_rank(op, 3, tol=1e-300)
        assert project_rank(op, 3, tol=0.099).rank == 3

    @pytest.mark.parametrize("case, rank, path", [
        *(pytest.param(seed, None, "lanczos", id=str(seed)) for seed in range(8)),
        # ranks that cut a cluster of equal singular values: the SVD's vectors
        # there are any basis of the cluster, and X takes the cluster whole;
        # "near" puts sigma_5 1.5e-6 below sigma_4, a gap across which the
        # SVD's vectors at tol = 1e-12 are too coarse for a Takagi cut
        *(pytest.param(case, rank, path, id=f"{case}-{rank}-{path}")
          for case, rank in (("blocks", 4), ("blocks", 16), ("blocks", 18), ("diagonal", 4), ("near", 4))
          for path in ("dense", "lanczos")),
    ])
    def test_matches_dense_svd_oracle(self, case, rank, path, request):
        if path == "lanczos":
            request.getfixturevalue("lanczos_only")
        seed, r = 0, rank
        if case == "blocks":
            Y = random_unitary(64, np.random.default_rng(64))
            A = (Y * np.repeat([3.0, 2.0, 1.0, 0.5], 16)) @ Y.T
        elif case == "diagonal":
            A = np.diag(np.repeat([3.0, 2.0, 1.0], 20))
        elif case == "near":
            s = 10.0 * 0.8 ** np.arange(64)
            s[4] = s[3] * (1 - 1.5e-6)
            Y = random_unitary(64, np.random.default_rng(65))
            A = (Y * s) @ Y.T
        else:
            seed = case
            rng = np.random.default_rng(seed)
            n = int(rng.integers(6, 33))
            r = int(rng.integers(1, 5))
            A = random_spectrum_matrix(n, rng)
        U, s, Vh = np.linalg.svd(A)
        f = project_rank(dense_operator(A), r, tol=1e-12, seed=seed)
        L = lowrank_dense(f)
        assert np.allclose(f.sigma, s[:r], rtol=1e-8)
        assert np.all(np.abs(f.sigma - s[:r]) <= 1e-12)
        assert orthonormality_defect(f) <= 1e-12
        assert f.X.T.flags.c_contiguous
        # Eckart-Young: the error is the tail, whichever basis of a cut cluster X takes
        assert abs(np.linalg.norm(A - L) - np.linalg.norm(s[r:])) <= 1e-12 * s[0]
        assert np.abs(L - L.T).max() <= 1e-14 * s[0]
        if s[r - 1] > s[r] * (1 + 1e-6):
            oracle = (U[:, :r] * s[:r]) @ Vh[:r]
            assert np.linalg.norm(L - oracle) <= 1e-8 * np.linalg.norm(oracle)

    @pytest.mark.parametrize("seed", range(4))
    def test_residual_contract(self, seed):
        rng = np.random.default_rng(100 + seed)
        A = random_spectrum_matrix(24, rng)
        op = dense_operator(A, materialize=False)
        tol = 1e-10
        f = project_rank(op, 3, tol=tol, seed=seed)
        for i in range(f.rank):
            residual = np.linalg.norm(A @ f.X[:, i].conj() - f.sigma[i] * f.X[:, i])
            assert residual <= 10 * tol * f.sigma[0]

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(9)
        A = random_spectrum_matrix(20, rng)
        f1 = project_rank(dense_operator(A, materialize=False), 3, seed=5)
        f2 = project_rank(dense_operator(A, materialize=False), 3, seed=5)
        assert np.array_equal(f1.X, f2.X)
        assert np.array_equal(f1.sigma, f2.sigma)

    def test_orthonormal_output(self):
        rng = np.random.default_rng(10)
        A = random_spectrum_matrix(30, rng)
        f = project_rank(dense_operator(A, materialize=False), 4, seed=2)
        assert orthonormality_defect(f) <= 1e-10

    @pytest.mark.parametrize("n, rank, dense", [
        (64, 1, False), (64, 2, False), (64, 3, False),
        (64, 4, True), (48, 2, True), (32, 1, True), (256, 64, True),
        (257, 1, False),
    ])
    def test_path_is_chosen_by_cost(self, n, rank, dense):
        # the dense SVD only where it is the cheaper path and the memory guard allows it
        A = random_spectrum_matrix(n, np.random.default_rng(n + rank), decay=0.5)
        calls = []

        def materialize():
            calls.append(n)
            return A

        op = LinearOperator(n, lambda v: A @ v, materialize=materialize)
        f = project_rank(op, rank, seed=0)
        assert len(calls) == int(dense)
        s = np.linalg.svd(A, compute_uv=False)[: f.rank]
        assert np.all(np.abs(f.sigma - s) <= 1e-9 * s[0])

    def test_nonconvergence_is_reported(self):
        # an operator that is not complex symmetric breaks the recurrence's
        # invariants, so residuals cannot reach the tolerance at any Krylov
        # dimension
        rng = np.random.default_rng(12)
        for n, rank, tol in ((12, 2, 1e-14), (200, 8, 1e-10)):
            A = nonsymmetric_matrix(n, rng)
            broken = LinearOperator(n, lambda v: A @ v)
            with pytest.raises(SvdConvergenceError, match="not complex symmetric"):
                project_rank(broken, rank, tol=tol, seed=0)

    def test_inconsistent_adjoint_fails_fast(self):
        # A instead of a complex symmetric operator: the first verification
        # fails, and the projection raises then instead of stepping on to k = n
        n, rank = 300, 8
        A = nonsymmetric_matrix(n, np.random.default_rng(16))
        applies = []
        broken = LinearOperator(n, apply=lambda v: applies.append(1) or A @ v)
        with pytest.raises(SvdConvergenceError, match="not complex symmetric"):
            project_rank(broken, rank, seed=0)
        assert len(applies) <= 200

    @pytest.mark.parametrize("eps, consistent", [(0.0, True), (1e-13, True), (1e-8, False)])
    def test_dense_path_checks_symmetry(self, eps, consistent):
        # the dense path checks M - M^T on the matrix it materializes, before
        # its SVD and with no apply
        n = 40
        rng = np.random.default_rng(40)
        A = random_spectrum_matrix(n, rng)
        A = A + eps * np.linalg.norm(A) * np.outer(random_unitary(n, rng)[:, 0], random_unitary(n, rng)[:, 0])
        op = LinearOperator(n, lambda v: pytest.fail("the dense path applied the operator"), materialize=lambda: A)
        if not consistent:
            with pytest.raises(SvdConvergenceError, match="not complex symmetric"):
                project_rank(op, 4)
            return
        assert np.allclose(project_rank(op, 4).sigma, np.linalg.svd(A, compute_uv=False)[:4], rtol=1e-10)

    @pytest.mark.parametrize("kind", ["gaussian", "triangular", "separated", "skew part"])
    @pytest.mark.parametrize("n", [50, 300])
    def test_nonsymmetric_operator_raises(self, kind, n):
        # project_rank takes complex symmetric operators only; any other
        # must end in SvdConvergenceError, never in triplets that are wrong
        rng = np.random.default_rng(n)
        G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        A = {
            "gaussian": G,
            "triangular": np.triu(G),
            "separated": nonsymmetric_matrix(n, rng),
            "skew part": G + G.T + 1e-3 * (G - G.T),
        }[kind]
        with pytest.raises(SvdConvergenceError, match="not complex symmetric"):
            project_rank(dense_operator(A, materialize=False), 4, seed=0)

    @pytest.mark.parametrize("eps, consistent", [
        (0.0, True), (1e-12, True), (1e-8, False), (1e-6, False), (1e-3, False),
    ])
    def test_verification_from_stored_products_keeps_its_strength(self, eps, consistent):
        # the operator is complex symmetric plus a rank-one nonsymmetric error
        # of relative size eps: small errors must still yield pairs whose
        # explicitly recomputed residuals pass, for A and for its true
        # adjoint, and large ones must be caught. The symmetry of Q^T A Q
        # catches 1e-8, which the residual alone did not
        n, rank, tol = 300, 8, 1e-10
        rng = np.random.default_rng(3)
        G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        S = G + G.T
        a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        scale = eps * np.linalg.norm(S, 2) / (np.linalg.norm(a) * np.linalg.norm(b))
        A = S + scale * np.outer(a, b.conj())
        applies = []
        op = LinearOperator(n, lambda v: applies.append(1) or A @ v)
        if not consistent:
            with pytest.raises(SvdConvergenceError, match="not complex symmetric"):
                project_rank(op, rank, tol=tol, seed=0)
            return
        f = project_rank(op, rank, tol=tol, seed=0)
        # one apply per Lanczos step and none to verify
        assert len(applies) == 113
        assert f.rank == rank
        for i in range(rank):
            # the pair (u, v) = (x, conj(x)): A v = sigma u and A* u = sigma v
            x = f.X[:, i]
            assert np.linalg.norm(A @ x.conj() - f.sigma[i] * x) <= 10 * tol * f.sigma[0]
            assert np.linalg.norm(A.conj().T @ x - f.sigma[i] * x.conj()) <= 10 * tol * f.sigma[0]

    @pytest.mark.parametrize("rank", [4, 6])
    def test_breakdown_does_not_end_the_projection(self, rank):
        # a Krylov space of diag(d) holds two directions per distinct value, so
        # it closes at Ritz values [3, 3, 2, 2, 1, 1]. Their estimates read
        # zero, yet 18 more singular values 3 lie outside it: the projection
        # goes on from a fresh direction until the open space has converged
        d = np.repeat([3.0, 2.0, 1.0], 20)
        f = project_rank(LinearOperator(60, apply=lambda v: d * v), rank)
        assert f.rank == rank
        assert np.all(np.abs(f.sigma - 3.0) <= 1e-10 * 3.0)
        assert np.linalg.norm(f.X[20:]) <= 1e-9

    @pytest.mark.parametrize("rank", [1, 2, 4, 8])
    def test_flat_spectrum_stops_at_the_first_closed_blocks(self, rank):
        # the Hankel matrix of an impulse is the exchange matrix, and Y Y^T is
        # a random complex symmetric unitary: every singular value is 1, and
        # each Krylov block closes after two steps. A closed block's Ritz
        # values are exact, and a block from a random direction holds the
        # largest value outside the blocks before it, so once rank values 1
        # are found nothing larger can remain. n = 1001 is above the step cap
        # up to rank 4
        n = 1001
        z = np.zeros(2 * n - 1)
        z[n - 1] = 1.0
        H = hankel_operator(HankelVector(n, z))
        Y = random_unitary(600, np.random.default_rng(19))
        for op in (H, dense_operator(Y @ Y.T, materialize=False)):
            applies = []
            counted = LinearOperator(op.n, apply=lambda v: applies.append(1) or op.apply(v))
            f = project_rank(counted, rank, seed=0)
            assert f.rank == rank
            assert np.all(np.abs(f.sigma - 1.0) <= 1e-10)
            assert len(applies) <= rank + 2

    def test_rank_deficient_operator_stops_at_its_range(self):
        # a fresh direction that the operator maps to zero shows that nothing
        # is left outside the closed Krylov space, so a rank-2 operator stops
        # after a few steps instead of running on to k = n
        n = 2000
        rng = np.random.default_rng(18)
        Y = np.linalg.qr(rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2)))[0]
        applies = []
        op = LinearOperator(n, apply=lambda v: applies.append(1) or (Y * [5.0, 2.0]) @ (Y.T @ v))
        f = project_rank(op, 8, seed=0)
        assert np.all(np.abs(f.sigma - [5.0, 2.0]) <= 1e-10 * 5.0)
        assert len(applies) <= 10

    def test_small_gap_at_the_cut_runs_past_short_step_caps(self):
        # sigma_8 / sigma_9 = 1.001 with the tail crowding just below sigma_9:
        # the leading triplets need more than 10 * rank + 50 Lanczos steps
        n, r = 400, 8
        applies = []
        op, s = small_gap_operator(n, r, applies)
        f = project_rank(op, r, seed=0)
        assert len(applies) > 2 * (10 * r + 50)
        assert np.all(np.abs(f.sigma - s[:r]) <= 1e-9 * s[:r])
        # the leading singular vectors span the first r coordinates, up to
        # the verified residual over the gap at the cut
        bound = 10 * 1e-10 * s[0] / (s[r - 1] - s[r])
        assert np.linalg.norm(f.X[r:]) <= bound

    def test_shared_rows_give_the_bits_of_fresh_buffers(self, monkeypatch):
        # one LanczosRows serves projections of different n and rank, as it
        # would the projections of a solve; the small-gap operator grows it
        # past its first 4 * max(r, 8) rows, and the later, smaller
        # projections run in rows a larger one has filled. The rank-3
        # operator 2 Y Y^T has three equal singular values, so its Krylov
        # spaces close within a few steps: its later triplets come from the
        # fresh directions a breakdown draws. It runs twice after a
        # projection at the same n and seed, so a held start vector that
        # moved, or a breakdown draw that an earlier projection set, would
        # show in its bits
        rng = np.random.default_rng(17)
        applies = []
        Y = random_unitary(60, rng)
        deficient = dense_operator(2.0 * Y[:, :3] @ Y[:, :3].T, materialize=False)
        cases = [
            (dense_operator(random_spectrum_matrix(60, rng), materialize=False), 3),
            (deficient, 3),
            (deficient, 3),
            (small_gap_operator(400, 8, applies)[0], 8),
            (dense_operator(random_spectrum_matrix(400, rng), materialize=False), 5),
            (dense_operator(random_spectrum_matrix(90, rng), materialize=False), 2),
            (dense_operator(random_spectrum_matrix(60, rng), materialize=False), 3),
        ]
        draws = []
        fresh_direction = lowrank._fresh_direction
        monkeypatch.setattr(lowrank, "_fresh_direction", lambda *args: draws.append(args[2]) or fresh_direction(*args))
        rows = LanczosRows()
        shared = [project_rank(op, rank, seed=1, rows=rows) for op, rank in cases]
        assert len(applies) > 2 * 4 * 8
        # draws past the start vector (k = 0) are breakdowns
        assert sum(k > 0 for k in draws) >= 2 * 2
        for f, (op, rank) in zip(shared, cases):
            fresh = project_rank(op, rank, seed=1)
            assert f.rank == fresh.rank
            for a, b in ((f.X, fresh.X), (f.sigma, fresh.sigma)):
                assert a.tobytes() == b.tobytes()


class TestProjectRank:
    def test_fixed_point_on_low_rank_input(self):
        rng = np.random.default_rng(13)
        A = random_spectrum_matrix(10, rng)
        U, s, Vh = np.linalg.svd(A)
        low = (U[:, :2] * s[:2]) @ Vh[:2]
        f = project_rank(dense_operator(low), 2)
        assert np.linalg.norm(lowrank_dense(f) - low) <= 1e-8 * np.linalg.norm(low)

    def test_eckart_young_on_diagonal(self):
        f = project_rank(dense_operator(np.diag([2.0, 1.0])), 1)
        assert np.allclose(lowrank_dense(f), np.diag([2.0, 0.0]), atol=1e-12)

    def test_drops_negligible_trailing_values(self):
        A = np.diag([1.0, 1e-15, 1e-16])
        f = project_rank(dense_operator(A), 3)
        assert f.rank == 1

    def test_optimal_among_random_rank2_competitors(self):
        rng = np.random.default_rng(14)
        A = random_spectrum_matrix(8, rng)
        f = project_rank(dense_operator(A), 2)
        best = np.linalg.norm(A - lowrank_dense(f))
        for _ in range(100):
            B = (rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2))) @ (
                rng.standard_normal((2, 8)) + 1j * rng.standard_normal((2, 8))
            )
            assert best <= np.linalg.norm(A - B) + 1e-12

    def test_idempotent(self):
        rng = np.random.default_rng(15)
        A = random_spectrum_matrix(12, rng)
        f1 = project_rank(dense_operator(A), 3)
        once = lowrank_dense(f1)
        f2 = project_rank(dense_operator(once), 3)
        assert np.linalg.norm(lowrank_dense(f2) - once) <= 1e-8 * np.linalg.norm(once)

    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_approximation_error_matches_tail(self, n):
        rng = np.random.default_rng(n)
        A = random_spectrum_matrix(n, rng)
        s = np.linalg.svd(A, compute_uv=False)
        r = 3
        f = project_rank(dense_operator(A), r)
        err = np.linalg.norm(A - lowrank_dense(f))
        expected = np.sqrt(np.sum(s[r:] ** 2))
        assert abs(err - expected) <= 1e-8 * expected

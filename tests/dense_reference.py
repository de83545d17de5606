"""Dense O(n^2) reference implementation used as the test oracle.

Mirrors the library's iteration semantics exactly, but every object is a
dense matrix and every projection runs through numpy primitives. Kept
independent of the package internals on purpose: only public dataclasses
are consumed, never the factored code paths under test. Also holds the
frequency matching that scores recovered frequencies against the truth.
"""

import itertools
import math

import numpy as np

from lrhankel import ObservationSet, SolverConfig


def dense_hankel(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z)
    n = (z.shape[0] + 1) // 2
    k = np.arange(n)
    return z[k[:, None] + k[None, :]]


def dense_antidiag_sums(X: np.ndarray) -> np.ndarray:
    n = X.shape[0]
    flipped = np.flipud(X)
    return np.array(
        [flipped.diagonal(j - n + 1).sum() for j in range(2 * n - 1)], dtype=np.complex128
    )


def dense_weights(n: int) -> np.ndarray:
    j = np.arange(2 * n - 1)
    return np.minimum(np.minimum(j, 2 * n - 2 - j) + 1, n)


def dense_project_hankel(X: np.ndarray, obs: ObservationSet | None) -> np.ndarray:
    """Parameter vector of the closest (data-consistent) Hankel matrix."""
    n = X.shape[0]
    z = dense_antidiag_sums(X) / dense_weights(n)
    if obs is not None:
        z[obs.indices] = obs.values
    return z


def dense_rank_truncate(X: np.ndarray, rank: int) -> np.ndarray:
    """Eckart-Young truncation with the same trailing-value drop rule."""
    U, s, Vh = np.linalg.svd(X)
    s = s[:rank]
    if s.size and s[0] > 0:
        s = np.where(s >= 1e-12 * s[0], s, 0.0)
    return (U[:, : len(s)] * s) @ Vh[: len(s)]


def constrained_hankel_lstsq(X: np.ndarray, obs: ObservationSet | None) -> np.ndarray:
    """Solve min_z ||H(z) - X||_F s.t. z[observed] = y by explicit least squares.

    Builds the full n^2-by-(2n-1) selection matrix of the Hankel operator
    and solves for the free coordinates, independently of the closed form.
    """
    n = X.shape[0]
    length = 2 * n - 1
    rows = np.arange(n * n)
    diag = rows // n + rows % n
    A = np.zeros((n * n, length))
    A[rows, diag] = 1.0
    target = X.reshape(-1).astype(np.complex128)
    z = np.zeros(length, dtype=np.complex128)
    if obs is not None and obs.indices.size:
        fixed = np.zeros(length, dtype=bool)
        fixed[obs.indices] = True
        z[obs.indices] = obs.values
        target = target - A[:, fixed] @ obs.values
        free = ~fixed
    else:
        free = np.ones(length, dtype=bool)
    if free.any():
        sol, *_ = np.linalg.lstsq(A[:, free], target, rcond=None)
        z[free] = sol
    return z


class DenseState:
    def __init__(self, z, L, z_tilde, momentum):
        self.z = z
        self.L = L
        self.z_tilde = z_tilde
        self.momentum = momentum


def dense_init(obs: ObservationSet, cfg: SolverConfig) -> DenseState:
    z = np.zeros(2 * obs.n - 1, dtype=np.complex128)
    z[obs.indices] = obs.values
    L = dense_rank_truncate(dense_hankel(z), cfg.rank)
    return DenseState(z, L, z.copy(), 1.0)


def dense_objective(state: DenseState) -> float:
    return 0.5 * np.linalg.norm(state.L - dense_hankel(state.z)) ** 2


def dense_pgd_step(state: DenseState, obs: ObservationSet, cfg: SolverConfig) -> DenseState:
    blend = (1 - cfg.delta1) * state.L + cfg.delta1 * dense_hankel(state.z)
    L = dense_rank_truncate(blend, cfg.rank)
    z = dense_project_hankel((1 - cfg.delta2) * dense_hankel(state.z) + cfg.delta2 * L, obs)
    return DenseState(z, L, z.copy(), 1.0)


def dense_fista_step(state: DenseState, obs: ObservationSet, cfg: SolverConfig) -> DenseState:
    blend = (1 - cfg.delta1) * state.L + cfg.delta1 * dense_hankel(state.z_tilde)
    L = dense_rank_truncate(blend, cfg.rank)
    z = dense_project_hankel((1 - cfg.delta2) * dense_hankel(state.z_tilde) + cfg.delta2 * L, obs)
    k_next = (math.sqrt(1.0 + 4.0 * state.momentum**2) + 1.0) / 2.0
    z_tilde = z + ((state.momentum - 1.0) / k_next) * (z - state.z)
    return DenseState(z, L, z_tilde, k_next)


def dense_solve(obs: ObservationSet, cfg: SolverConfig):
    """Reference solve; returns (z, iterations, converged, objective_history)."""
    state = dense_init(obs, cfg)
    objs = [dense_objective(state)]
    step = dense_fista_step if cfg.accelerated else dense_pgd_step
    converged = False
    iterations = 0
    for t in range(1, cfg.max_iter + 1):
        prev = state.z
        state = step(state, obs, cfg)
        current = dense_objective(state)
        if cfg.accelerated and current > objs[-1]:
            state.momentum = 1.0
            state.z_tilde = state.z.copy()
        objs.append(current)
        iterations = t
        num = np.linalg.norm(dense_hankel(state.z) - dense_hankel(prev))
        den = np.linalg.norm(dense_hankel(prev))
        rel = num / den if den > 0 else (0.0 if num == 0.0 else math.inf)
        if rel <= cfg.tol:
            converged = True
            break
    return state.z, iterations, converged, np.array(objs)


def circular_distance(a, b) -> np.ndarray:
    """Distance on the frequency circle [0, 1)."""
    d = np.abs(np.asarray(a) - np.asarray(b)) % 1.0
    return np.minimum(d, 1.0 - d)


def match_frequencies(estimated, reference) -> float:
    """Largest circular error under the best one-to-one pairing (brute force, small orders)."""
    est = np.asarray(estimated, dtype=np.float64).reshape(-1)
    ref = np.asarray(reference, dtype=np.float64).reshape(-1)
    assert est.shape == ref.shape and est.size <= 9, (est.size, ref.size)
    return min(
        float(np.max(circular_distance(est[list(perm)], ref)))
        for perm in itertools.permutations(range(est.size))
    )

"""Alternating projected descent on the rank-R / data-consistent Hankel split.

The recovery problem is min 0.5*||L - H||_F^2 over rank-<=R matrices L and
data-consistent Hankel matrices H. One iteration relaxes each block toward
the other and projects back:

    L_{t+1} = P_rank( (1-delta1) L_t + delta1 H_t )
    H_{t+1} = P_data( (1-delta2) H_t + delta2 L_{t+1} )

L lives as factors and H as its parameter vector. Both projections run
matrix-free above n = GEMV_MAX_N; at or below it, the blend that the rank
projection takes is built once per step as a dense matrix. Both variants
run the same `step`, which takes the half-steps from a Hankel iterate
z_tilde. The accelerated variant extrapolates z_tilde with the classic
momentum schedule k_{t+1} = (sqrt(1 + 4 k_t^2) + 1) / 2, and `step`
itself resets the momentum whenever the objective rises (adaptive
restart). The plain iteration is the same step without extrapolation:
z_tilde is always the current iterate. Every iterate stays feasible,
because the data-consistent set is affine and extrapolation along it
cannot leave it.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import hankel
from .hankel import (
    HankelVector,
    ObservationSet,
    hankel_dense,
    hankel_frobenius_sq,
    hankel_operator,
    project_hankel_blend,
)
from .lowrank import (
    LanczosRows,
    LinearOperator,
    LowRankFactors,
    checked_int,
    checked_vector,
    is_real,
    lowrank_dense,
    project_rank,
)


@dataclass(frozen=True)
class SolverConfig:
    """Parameters of a recovery run.

    Step sizes must lie strictly inside (0, 1); values of 0.9999 work well
    and are the defaults. `tol` bounds the relative Frobenius change of the
    Hankel iterate used as the stopping rule. `bound`, when set, clamps the
    magnitude of every unobserved coordinate after each projection.
    """

    rank: int
    delta1: float = 0.9999
    delta2: float = 0.9999
    tol: float = 1e-4
    max_iter: int = 1000
    accelerated: bool = False
    bound: float | None = None
    svd_seed: int = 0

    def __post_init__(self):
        for name, low in (("rank", 1), ("max_iter", 1), ("svd_seed", 0)):
            object.__setattr__(self, name, checked_int(name, getattr(self, name), low))
        if not isinstance(self.accelerated, bool):
            raise ValueError(f"accelerated must be True or False, got {self.accelerated!r}")
        for name in ("delta1", "delta2"):  # NaN fails every range
            value = getattr(self, name)
            if not (is_real(value) and 0.0 < value < 1.0):
                raise ValueError(f"{name} must lie strictly in (0, 1), got {value!r}")
        if not (is_real(self.tol) and 0 < self.tol < math.inf):
            raise ValueError(f"tol must be positive and finite, got {self.tol!r}")
        if self.bound is not None and not (is_real(self.bound) and self.bound > 0):
            raise ValueError(f"bound must be positive when set, got {self.bound!r}")


@dataclass(frozen=True)
class IterateState:
    """State after t iterations; all fields are feasible by construction."""

    factors: LowRankFactors
    z: HankelVector
    z_tilde: HankelVector  # where the next step starts; z itself unless extrapolated
    momentum: float
    objective: float  # at (factors, z); the next step restarts the momentum if it rises
    t: int


@dataclass(frozen=True)
class RecoveryResult:
    """Outcome of a solve.

    `objective_history[k]` is the objective after k iterations (entry 0 is
    the initial state), `relchange_history[k]` the stopping statistic of
    iteration k+1, so the lists have lengths iterations+1 and iterations.
    """

    z_hat: np.ndarray
    iterations: int
    converged: bool
    objective_history: np.ndarray = field(repr=False)
    relchange_history: np.ndarray = field(repr=False)


# at n <= GEMV_MAX_N the blend is applied by gemv on its dense matrix: Lanczos
# on it took 0.74-0.91x the time of Lanczos on the FFT blend in every cell at
# n = 64..128, r = 1..64, but 1.07-1.15x at n = 192, r <= 2 and up to 1.45x at
# n = 256 (paired timings on mid-solve operators, BENCH_26.json)
GEMV_MAX_N = 128


def blend_operator(f: LowRankFactors, h: HankelVector, delta1: float) -> LinearOperator:
    """(1-delta1)*L + delta1*H(z) as a complex symmetric matvec contract, L = X diag(sigma) X^T.

    At n <= GEMV_MAX_N the dense blend M is built once, in O(n^2) memory;
    `apply` is M v, and `materialize` returns M itself, read-only. Above it
    an apply costs O(n r + n log n), through the Hankel FFT and X diag(c
    sigma) X^T from one contiguous X^T, and `materialize` builds M on request.
    """
    if f.n != h.n:
        raise ValueError(f"dimension mismatch: factors n={f.n}, h n={h.n}")
    n, c = h.n, 1.0 - delta1

    def dense():
        return c * lowrank_dense(f) + delta1 * hankel_dense(h)

    if n <= GEMV_MAX_N:
        M = dense()
        M.setflags(write=False)
        return LinearOperator(n=n, apply=lambda v: M @ checked_vector(v, n), materialize=lambda: M)
    hop = hankel_operator(h)
    Xt = f.X.T
    csigma = c * f.sigma

    def apply(v):
        # the Hankel product is a fresh array: the sum accumulates in it
        hv = hop.apply(v)
        hv *= delta1
        hv += Xt.T @ (csigma * (Xt @ v))
        return hv

    return LinearOperator(n=n, apply=apply, materialize=dense)


def objective(f: LowRankFactors, h: HankelVector, sums: np.ndarray) -> float:
    """0.5 * ||L - H(z)||_F^2 from L's factors and anti-diagonal sums, clamped at 0 for roundoff."""
    value = 0.5 * (
        f.frobenius_sq()
        - 2.0 * np.sum(sums * np.conj(h.values)).real
        + hankel_frobenius_sq(h)
    )
    return max(value, 0.0)


def _clamped(h: HankelVector, bound: float, obs: ObservationSet) -> HankelVector:
    """Scale unobserved coordinates down to magnitude <= bound; observed ones take the data's values."""
    values = np.array(h.values)
    mags = np.abs(values)
    over = mags > bound
    values[over] *= bound / mags[over]
    values[obs.indices] = obs.values
    return HankelVector(h.n, values)


def init_state(obs: ObservationSet, cfg: SolverConfig, rows: LanczosRows | None = None) -> IterateState:
    """Feasible start: zero-fill the unobserved coordinates, then rank-project.

    `rows`, here and in `step`, lends the rank projection its Lanczos
    basis rows; solve passes one LanczosRows to every projection it makes.
    """
    z0 = np.zeros(2 * obs.n - 1, dtype=np.complex128)
    z0[obs.indices] = obs.values
    h0 = HankelVector(obs.n, z0)
    f0 = project_rank(hankel_operator(h0), cfg.rank, seed=cfg.svd_seed, rows=rows)
    value = objective(f0, h0, hankel.antidiag_sums_lowrank(f0))
    return IterateState(factors=f0, z=h0, z_tilde=h0, momentum=1.0, objective=value, t=0)


def step(
    state: IterateState, obs: ObservationSet, cfg: SolverConfig, rows: LanczosRows | None = None
) -> IterateState:
    """One iteration, plain or accelerated.

    Both half-steps start from z_tilde: the rank projection pulls toward
    H(z_tilde), and the data projection starts at z_tilde as well.
    Centering the data step at z instead (keeping z_tilde only in its
    gradient) injects the momentum term with a negative sign and
    empirically diverges once the momentum coefficient grows, so that
    variant is not used. On the plain path, and on a restart when the
    objective rose (without which the momentum recursion oscillates and can
    diverge on this nonconvex problem), z_tilde is the new z and the
    momentum is 1. Extrapolation keeps observed coordinates exact; when a
    magnitude bound is active it is applied after the extrapolation too.
    """
    f1 = project_rank(blend_operator(state.factors, state.z_tilde, cfg.delta1), cfg.rank, seed=cfg.svd_seed, rows=rows)
    sums = hankel.antidiag_sums_lowrank(f1)
    z1 = project_hankel_blend(state.z_tilde, sums, cfg.delta2, obs)
    if cfg.bound is not None:
        z1 = _clamped(z1, cfg.bound, obs)
    current = objective(f1, z1, sums)
    if not cfg.accelerated or current > state.objective:
        return IterateState(factors=f1, z=z1, z_tilde=z1, momentum=1.0, objective=current, t=state.t + 1)
    k_next = (math.sqrt(1.0 + 4.0 * state.momentum**2) + 1.0) / 2.0
    coeff = (state.momentum - 1.0) / k_next
    z_tilde = HankelVector(obs.n, z1.values + coeff * (z1.values - state.z.values))
    if cfg.bound is not None:
        z_tilde = _clamped(z_tilde, cfg.bound, obs)
    return IterateState(factors=f1, z=z1, z_tilde=z_tilde, momentum=k_next, objective=current, t=state.t + 1)


def solve(obs: ObservationSet, cfg: SolverConfig) -> RecoveryResult:
    """Run `step` until the stopping rule or max_iter.

    Stops when the weighted relative change of the Hankel iterate, which
    equals ||H_{t+1} - H_t||_F / ||H_t||_F of the dense matrices, drops to
    `tol`. A zero-norm iterate counts as converged only when the update is
    exactly zero too. The solve holds one Lanczos basis buffer for all its
    projections.
    """
    rows = LanczosRows()
    state = init_state(obs, cfg, rows)
    objective_history = [state.objective]
    relchange_history = []
    converged = False

    for _ in range(cfg.max_iter):
        previous = state.z
        state = step(state, obs, cfg, rows)
        objective_history.append(state.objective)
        num = math.sqrt(hankel_frobenius_sq(HankelVector(obs.n, state.z.values - previous.values)))
        den = math.sqrt(hankel_frobenius_sq(previous))
        if den > 0.0:
            rel = num / den
        else:
            rel = 0.0 if num == 0.0 else math.inf
        relchange_history.append(rel)
        if rel <= cfg.tol:
            converged = True
            break

    return RecoveryResult(
        z_hat=np.array(state.z.values),
        iterations=state.t,
        converged=converged,
        objective_history=np.asarray(objective_history),
        relchange_history=np.asarray(relchange_history),
    )

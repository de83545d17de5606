"""Rank-R projection over a matrix-free linear-operator contract.

Iterates of the solver are square complex matrices that are never formed
densely. They are handled either as rank factorizations (U, sigma, V) or
through matvec callbacks, and the best rank-R approximation is computed by
Golub-Kahan-Lanczos bidiagonalization with full reorthogonalization. The
Ritz estimates are checked after every step up to 4 max(R, 8) steps, then
every max(R, 8) steps; once they pass, the triplets are confirmed by
their residuals, and a failed confirmation raises at once. The recurrence
keeps every product A v_k and A* u_k it makes, so the residuals of the
Ritz vectors V = [v_k] Q and U = [u_k] P come from those rows times Q and
P, without applying the operator again. The check compares squared
column sums, taken on the float view of the residuals, with the square of
its threshold. Lanczos costs a fixed overhead plus about R + 2 to 2R
steps, while a dense SVD costs the same at every rank, so where
n <= DENSE_CROSSOVER (R + 6) an operator that can materialize itself takes
a plain dense SVD instead. Either way one cut applies: singular values
that are zero or below 1e-12 of the largest are dropped.

The four row buffers of the recurrence (the bases u_k and v_k and the
products A v_k and A* u_k) live in a LanczosRows that the caller may hold
across projections: solve keeps one for the length of the solve, so each
projection writes into rows already paged in and only grows them when a
projection needs more. Without one, a projection allocates its own. A
LanczosRows belongs to one solve at a time; it is never module state,
because threads share the module.

Everything in this package runs in O(n R) memory. Dense n-by-n matrices
are allowed up to DENSE_THRESHOLD, for the dense SVD and as test oracles,
and refused above it with DenseMaterializationError. That limit is a
memory guard, not a cost crossover.
"""

import math
import operator
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

DENSE_THRESHOLD = 256
# above n = DENSE_CROSSOVER * (rank + 6), Lanczos beat the dense SVD in every
# cell measured at n = 16..256 on mid-solve blend operators (CHANGES.md)
DENSE_CROSSOVER = 7


def checked_int(name: str, value, low: int, high: int | None = None) -> int:
    """`value` as an int if it is an integer (numpy's too) in [low, high], else a ValueError naming `name`."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value}") from None
    if value < low or (high is not None and value > high):
        bound = f"be at least {low}" if high is None else f"lie in [{low}, {high}]"
        raise ValueError(f"{name} must {bound}, got {value}")
    return value


class DenseMaterializationError(RuntimeError):
    """Raised when a code path asks for an n-by-n buffer with n above the threshold."""


def dense_threshold() -> int:
    """The largest n for which dense n-by-n buffers may be allocated."""
    return DENSE_THRESHOLD


def ensure_dense_allowed(n: int, context: str) -> None:
    """Raise DenseMaterializationError if an n-by-n allocation is out of policy."""
    if n > DENSE_THRESHOLD:
        raise DenseMaterializationError(
            f"refusing to materialize a dense {n}x{n} matrix in {context}: "
            f"n exceeds the dense threshold {DENSE_THRESHOLD}"
        )


class SvdConvergenceError(RuntimeError):
    """The rank projection failed to converge or to verify its triplets."""


@dataclass(frozen=True)
class LowRankFactors:
    """A rank-r matrix U @ diag(sigma) @ V* stored in O(n r) memory.

    U and V are n-by-r with orthonormal columns; sigma is nonnegative and
    nonincreasing. r == 0 encodes the zero matrix.
    """

    n: int
    U: np.ndarray
    sigma: np.ndarray
    V: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "n", checked_int("factor dimension n", self.n, 1))
        U = np.array(self.U, dtype=np.complex128, copy=True)
        V = np.array(self.V, dtype=np.complex128, copy=True)
        sigma = np.array(self.sigma, dtype=np.float64, copy=True)
        r = sigma.shape[0] if sigma.ndim == 1 else -1
        if U.shape != (self.n, r) or V.shape != (self.n, r):
            raise ValueError(
                f"inconsistent factor shapes: U {U.shape}, sigma {sigma.shape}, "
                f"V {V.shape} for n={self.n}"
            )
        if r and (np.any(sigma < 0) or np.any(np.diff(sigma) > 0)):
            raise ValueError("singular values must be nonnegative and nonincreasing")
        for a in (U, sigma, V):
            a.setflags(write=False)
        object.__setattr__(self, "U", U)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "V", V)

    @property
    def rank(self) -> int:
        return self.sigma.shape[0]

    @classmethod
    def zero(cls, n: int) -> "LowRankFactors":
        empty = np.zeros((n, 0), dtype=np.complex128)
        return cls(n, empty, np.zeros(0), empty.copy())

    def frobenius_sq(self) -> float:
        return float(np.sum(self.sigma**2))


@dataclass(frozen=True)
class LinearOperator:
    """Square operator given by matvec callbacks.

    `materialize`, when provided, returns the dense matrix; project_rank
    uses it where a dense SVD is the cheaper path and the dense threshold
    allows it, and otherwise runs Lanczos on the callbacks alone, so
    correctness never depends on it.
    """

    n: int
    apply: Callable[[np.ndarray], np.ndarray]
    apply_adjoint: Callable[[np.ndarray], np.ndarray]
    materialize: Optional[Callable[[], np.ndarray]] = None


def lowrank_dense(f: LowRankFactors) -> np.ndarray:
    """Dense n-by-n matrix of the factorization, for the dense SVD path and oracles."""
    ensure_dense_allowed(f.n, "lowrank_dense")
    if f.rank == 0:
        return np.zeros((f.n, f.n), dtype=np.complex128)
    return (f.U * f.sigma) @ f.V.conj().T


class LanczosRows:
    """Row buffers of _lanczos_bidiag, reused by the projections of one caller.

    Rows past the current Lanczos step hold stale values and are never read.
    """

    def __init__(self):
        self._buffers: tuple[np.ndarray, ...] = ()

    def take(self, rows: int, n: int, keep: int = 0) -> tuple[np.ndarray, ...]:
        """Four (rows, n) buffers; when they must grow, the first `keep` rows carry over."""
        held = self._buffers
        if not held or held[0].shape[0] < rows or held[0].shape[1] != n:
            grown = tuple(np.empty((rows, n), dtype=np.complex128) for _ in range(4))
            if keep:
                for new, old in zip(grown, held):
                    new[:keep] = old[:keep]
            self._buffers = held = grown
        return tuple(b[:rows] for b in held)


def _fresh_direction(rng: np.random.Generator, basis: np.ndarray, k: int, n: int):
    """Random unit vector orthogonal to the first k rows of `basis`, or zero."""
    for _ in range(5):
        w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        w = _reorthogonalize(w, basis[:k])
        nrm = np.linalg.norm(w)
        if nrm > 1e-8 * np.sqrt(n):
            return w / nrm
    return np.zeros(n, dtype=np.complex128)


def _reorthogonalize(x: np.ndarray, basis: np.ndarray) -> np.ndarray:
    # classical Gram-Schmidt, two passes ("twice is enough"), in place
    if basis.shape[0]:
        for _ in range(2):
            x -= np.conj(basis @ np.conj(x)) @ basis
    return x


def _norm(x: np.ndarray) -> float:
    return math.sqrt(np.vdot(x, x).real)


def _worst_column_sq(R: np.ndarray) -> float:
    """Largest squared column norm of a complex n-by-r matrix, from its float view."""
    sq = np.einsum("ij,ij->j", R.view(np.float64), R.view(np.float64))
    return float((sq[0::2] + sq[1::2]).max())


def _lanczos_bidiag(op: LinearOperator, rank: int, tol: float, seed: int, rows: LanczosRows):
    """Leading `rank` Ritz triplets (U, sigma, V), verified by their residuals."""
    n = op.n
    rng = np.random.default_rng(seed)
    # the cap bounds what a projection that never converges can cost; it is
    # n for every n <= 1066 at rank 8, where beta = 0 makes the triplets exact
    block = max(rank, 8)
    max_steps = min(n, max(2 * rank + 10, 16) + block * (10 * rank + 50))
    next_check = rank + 1

    # basis rows, doubled when full: most projections stop within 4 * block
    Ub, Vb, AV, AU = rows.take(min(max_steps, 4 * block), n)
    alphas: list[float] = []
    betas: list[float] = []

    v = _fresh_direction(rng, Vb, 0, n)
    u_prev = np.zeros(n, dtype=np.complex128)
    beta_prev = 0.0
    scale = 0.0
    k = 0

    while k < max_steps:
        if k == Ub.shape[0]:
            Ub, Vb, AV, AU = rows.take(k + min(k, max_steps - k), n, keep=k)
        Vb[k] = v
        AV[k] = op.apply(v)
        u = _reorthogonalize(AV[k] - beta_prev * u_prev, Ub[:k])
        alpha = _norm(u)
        scale = max(scale, alpha)
        if alpha <= 1e-14 * max(scale, 1.0):
            alpha = 0.0
            u = _fresh_direction(rng, Ub, k, n)
        else:
            # numpy divides complex by real through the reciprocal, so these
            # are the bits of u / alpha, without the temporary
            u *= 1.0 / alpha
        Ub[k] = u

        AU[k] = op.apply_adjoint(u)
        w = _reorthogonalize(AU[k] - alpha * v, Vb[: k + 1])
        beta = _norm(w)
        scale = max(scale, beta)
        if k + 1 >= n:
            beta, w = 0.0, np.zeros(n, dtype=np.complex128)
        elif beta <= 1e-14 * max(scale, 1.0):
            beta = 0.0
            w = _fresh_direction(rng, Vb, k + 1, n)
        else:
            w *= 1.0 / beta
        alphas.append(alpha)
        betas.append(beta)
        v, u_prev, beta_prev = w, u, beta
        k += 1
        if k < next_check and k < max_steps:
            continue
        # a Ritz SVD costs O(k^3): check after every step while k is small,
        # then every `block` steps
        next_check = k + (1 if k < 4 * block else block)

        # Ritz values of the k-by-k upper bidiagonal projection
        B = np.diag(alphas) + np.diag(betas[: k - 1], 1)
        P, s, Qt = np.linalg.svd(B)
        floor = tol * max(s[0], 1e-300)
        estimates = betas[k - 1] * np.abs(P[k - 1, :rank])
        if np.all(estimates <= floor):
            P_r, Q_r = P[:, :rank], Qt[:rank].conj().T
            U, V, sigma = Ub[:k].T @ P_r, Vb[:k].T @ Q_r, s[:rank]
            # the estimate presumes the adjoint pairing holds; confirm with
            # residuals, and raise if they fail: more steps cannot help. By
            # linearity A V and A* U are the stored products times Q_r and
            # P_r, so the check costs no further apply
            RV, RU = AV[:k].T @ Q_r, AU[:k].T @ P_r
            RV -= U * sigma
            RU -= V * sigma
            if max(_worst_column_sq(RV), _worst_column_sq(RU)) > (10.0 * floor) ** 2:
                raise SvdConvergenceError(
                    f"singular triplets passed the Ritz estimates but failed residual "
                    f"verification after {k} Lanczos steps (n={n}); the operator's "
                    f"adjoint pairing is likely inconsistent"
                )
            return U, sigma, V

    raise SvdConvergenceError(
        f"Lanczos bidiagonalization did not reach tol={tol:g} for the leading "
        f"{rank} singular triplets within {max_steps} steps (n={n})"
    )


def project_rank(
    op: LinearOperator, rank: int, tol: float = 1e-10, seed: int = 0, rows: Optional[LanczosRows] = None
) -> LowRankFactors:
    """Best rank-`rank` approximation of the operator (Eckart-Young truncation).

    Deterministic for a fixed seed. When the spectrum is degenerate at the
    cut (sigma_rank equals sigma_rank+1) the retained invariant subspace is
    an arbitrary but seed-deterministic choice. Singular values that are zero
    or below 1e-12 of the largest are dropped, so the result can have rank
    below the requested bound. Raises SvdConvergenceError instead of
    returning silently inaccurate triplets. `rows`, when given, lends the
    Lanczos path its row buffers; the result never refers to them.
    """
    rank = checked_int("rank", rank, 1, op.n)
    if op.materialize is not None and op.n <= min(DENSE_THRESHOLD, DENSE_CROSSOVER * (rank + 6)):
        U, s, Vh = np.linalg.svd(op.materialize(), full_matrices=False)
        U, s, V = U[:, :rank], s[:rank], Vh[:rank].conj().T
    else:
        U, s, V = _lanczos_bidiag(op, rank, tol, seed, LanczosRows() if rows is None else rows)
    r = int(np.count_nonzero((s > 0) & (s >= 1e-12 * s[0])))
    return LowRankFactors(op.n, U[:, :r], s[:r], V[:, :r])

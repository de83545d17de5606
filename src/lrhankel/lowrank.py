"""Rank-R projection over a matrix-free linear-operator contract.

Iterates of the solver are square complex matrices that are never formed
densely: they are held as a Takagi factor or reached through matvec
callbacks. Every operator the solver projects is complex symmetric
(H(z)^T = H(z), and so is its blend with any X diag(sigma) X^T), so
project_rank takes only operators with A^T = A and returns the best
rank-R approximation in the same form, X diag(sigma) X^T with X* X = I
(Takagi; Bunse-Gerstner and Gragg, 1988): one n-by-R factor, no adjoint.

Both paths find the leading right singular vectors V first, extend them
to the end of any cluster of singular values that the rank cuts (only a
whole cluster's conj(V) spans its left vectors), and take X = conj(V) Y
from the Takagi vectors Y of C = V^T A V: the eigenvectors of
[[Re C, Im C], [Im C, -Re C]] for its eigenvalues +sigma. The dense path
checks M - M^T on the materialized matrix M and takes V from its SVD.
Where n > DENSE_CROSSOVER (R + 9), or the operator cannot materialize,
complex-symmetric Lanczos (Bunse-Gerstner and Gragg, 1988; Luk and Qiao,
2003) with full reorthogonalization is cheaper: it costs a fixed overhead
plus about 2R steps, where a dense SVD costs the same at every rank. It
keeps one orthonormal basis Q: step k makes one apply A q_k and
orthogonalizes conj(A q_k) against q_0..q_k by two passes of classical
Gram-Schmidt, so A Q = conj(Q) T + beta_k conj(q_k+1) e_k^T with
T = Q^T A Q complex symmetric tridiagonal. From T = W S Z*, V = Q Z, and
beta_k |Z[k-1, j]| is the residual of Ritz pair j. The estimates are
checked every third step from R + 4 steps up to 4 max(R, 8), then every
max(R, 8) steps. Once they pass, two checks read the Gram-Schmidt
coefficients, with no further apply, and either failure raises at once.
The first passes give P = Q^T A Q to rounding (Paige, 1976), with beta_k
at P[k+1, k]: it must be symmetric to SYMMETRY_TOL, which sees only the
part of A - A^T that acts within span Q. The residual A conj(X) - X S is
P Z conj(Y) - conj(Z) Y S on span Q, plus beta_k q_k+1 and each remainder
a breakdown, or k == n, drops (less its components along later q_j, which
fill P below its subdiagonal); it must lie within 10 tol sigma_1. A beta
at or below tol times the largest alpha or beta so far closes a Krylov
block, invariant to within tol, so its Ritz values hold; larger singular
values may lie outside it. Every block starts from a random direction, so
it holds the largest singular value outside the blocks before it: once
that is within the residual floor of sigma_R of all closed blocks,
nothing outside them is larger, and the projection ends; else the
recurrence goes on from a fresh random direction, and the leading Ritz
value of the open block must converge as well. The start vector comes
from default_rng(seed) and the direction after a breakdown at step k from
default_rng((seed, k)), so a projection is a function of the operator,
rank, tol and seed alone. Both paths drop singular values that are zero or
below 1e-12 of the largest.

The basis rows q_k and the start vector, drawn once per (n, seed), live
in a LanczosRows. solve holds one for its length, so each projection
writes into rows already paged in and grows them only when it needs more;
without one, a projection allocates its own. A LanczosRows serves one
solve at a time and is never module state, because threads share the module.

Everything in this package runs in O(n R) memory. Dense n-by-n matrices
are allowed up to DENSE_THRESHOLD, for the dense SVD, the gemv blend and
as test oracles, and refused above it with DenseMaterializationError.
That limit is a memory guard, not a cost crossover.
"""

import math
import numbers
import operator
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

DENSE_THRESHOLD = 256
# the dense SVD won every cell measured at n <= 3 (rank + 9) but a tie at (96, 32),
# Lanczos every cell above it (mid-solve blends, n = 16..256, BENCH_26.json)
DENSE_CROSSOVER = 3
# largest ||P - P^T|| / ||P|| (P = Q^T A Q or M) taken as A^T = A: 70x every
# ratio measured on the solver's operators and tests (CHANGES.md)
SYMMETRY_TOL = 1e-11


def checked_int(name: str, value, low: int, high: int | None = None) -> int:
    """`value` as an int if it is a non-bool integer (numpy's too) in [low, high], else a ValueError naming `name`."""
    try:
        if isinstance(value, (bool, np.bool_)):  # operator.index takes True as 1
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value}") from None
    if value < low or (high is not None and value > high):
        bound = f"be at least {low}" if high is None else f"lie in [{low}, {high}]"
        raise ValueError(f"{name} must {bound}, got {value}")
    return value


def is_real(value) -> bool:
    """Whether `value` is a real number (numpy's too); a bool or str is not."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def store_readonly(obj, **arrays: np.ndarray) -> None:
    """Make each array read-only and store it as the field of that name on the frozen dataclass `obj`."""
    for name, a in arrays.items():
        a.setflags(write=False)
        object.__setattr__(obj, name, a)


def checked_vector(v, n: int) -> np.ndarray:
    """`v` flattened to a complex array if it holds n entries, else a ValueError naming its shape."""
    v = np.asarray(v, dtype=np.complex128).reshape(-1)
    if v.shape != (n,):
        raise ValueError(f"vector has shape {v.shape}, expected ({n},)")
    return v


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
    """The rank projection failed to converge or to verify its result."""


@dataclass(frozen=True)
class LowRankFactors:
    """A complex symmetric rank-r matrix X @ diag(sigma) @ X^T stored in O(n r) memory.

    n is an integer. X is n-by-r with orthonormal columns (X^* X = I);
    sigma is finite, nonnegative and nonincreasing. r == 0 encodes the zero
    matrix. X is stored column-major, so X.T is r contiguous rows: row FFTs
    beat axis-0 FFTs, and gemv reads contiguous rows.
    """

    n: int
    X: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "n", checked_int("factor dimension n", self.n, 1))
        X = np.array(self.X, dtype=np.complex128, order="F", copy=True)
        sigma = np.array(self.sigma, dtype=np.float64, copy=True)
        r = sigma.shape[0] if sigma.ndim == 1 else -1
        if X.shape != (self.n, r):
            raise ValueError(f"inconsistent factor shapes: X {X.shape}, sigma {sigma.shape} for n={self.n}")
        if not (np.all(sigma[1:] <= sigma[:-1]) and (r == 0 or 0 <= sigma[-1] <= sigma[0] < math.inf)):
            raise ValueError("singular values must be finite, nonnegative and nonincreasing")
        store_readonly(self, X=X, sigma=sigma)

    @property
    def rank(self) -> int:
        return self.sigma.shape[0]

    def frobenius_sq(self) -> float:
        return float(np.sum(self.sigma**2))


@dataclass(frozen=True)
class LinearOperator:
    """Square complex symmetric operator given by matvec callbacks.

    `materialize`, when provided, returns the dense matrix; project_rank
    uses it where a dense SVD is the cheaper path and the dense threshold
    allows it, and otherwise runs Lanczos on `apply` alone, so correctness
    never depends on it.
    """

    n: int
    apply: Callable[[np.ndarray], np.ndarray]
    # never set or called: perfbench/tracing.py passes it to dataclasses.replace,
    # and the next benchmark change deletes both
    apply_adjoint: Optional[Callable[[np.ndarray], np.ndarray]] = None
    materialize: Optional[Callable[[], np.ndarray]] = None

    def __post_init__(self):
        object.__setattr__(self, "n", checked_int("operator dimension n", self.n, 1))


def lowrank_dense(f: LowRankFactors) -> np.ndarray:
    """Dense n-by-n matrix of the factorization, for the dense SVD path and oracles."""
    ensure_dense_allowed(f.n, "lowrank_dense")
    return (f.X * f.sigma) @ f.X.T


class LanczosRows:
    """The basis rows of _lanczos_symmetric, reused by the projections of one caller.

    Rows past the current Lanczos step hold stale values and are never read.
    It also holds the read-only start vector of the last (n, seed) it served.
    """

    def __init__(self):
        self._basis = np.empty((0, 0), dtype=np.complex128)
        self._start: tuple = ()

    def start(self, n: int, seed: int) -> np.ndarray:
        """The read-only unit start vector for (n, seed)."""
        if self._start[:2] != (n, seed):
            v = _fresh_direction(np.random.default_rng(seed), np.empty((0, n), dtype=np.complex128), 0)
            v.setflags(write=False)
            self._start = (n, seed, v)
        return self._start[2]

    def take(self, rows: int, n: int, keep: int = 0) -> np.ndarray:
        """A (rows, n) buffer; when it must grow, its first `keep` rows carry over."""
        held = self._basis
        if held.shape[0] < rows or held.shape[1] != n:
            grown = np.empty((rows, n), dtype=np.complex128)
            if keep:  # rows of another n cannot broadcast, even zero of them
                grown[:keep] = held[:keep]
            self._basis = held = grown
        return held[:rows]


def _fresh_direction(rng: np.random.Generator, basis: np.ndarray, k: int):
    """Random unit vector orthogonal to the first k rows of `basis`, or zero."""
    n = basis.shape[1]
    for _ in range(5):
        w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        _reorthogonalize(w, basis[:k])
        nrm = np.linalg.norm(w)
        if nrm > 1e-8 * np.sqrt(n):
            return w / nrm
    return np.zeros(n, dtype=np.complex128)


def _reorthogonalize(x: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Orthogonalize x against the rows of `basis` in place, by CGS twice; return the first pass's basis @ conj(x)."""
    first = basis @ np.conj(x)
    x -= np.conj(first) @ basis
    x -= np.conj(basis @ np.conj(x)) @ basis
    return first


def _norm(x: np.ndarray) -> float:
    return math.sqrt(np.vdot(x, x).real)


def _worst_column_sq(R: np.ndarray) -> float:
    """Largest squared column norm of a complex n-by-r matrix, from its float view."""
    sq = np.einsum("ij,ij->j", R.view(np.float64), R.view(np.float64))
    return float((sq[0::2] + sq[1::2]).max())


def _check_symmetric(M: np.ndarray, where: str) -> None:
    """Raise SvdConvergenceError if ||M - M^T|| exceeds SYMMETRY_TOL ||M||."""
    asym, norm = _norm(M - M.T), _norm(M)
    if asym > SYMMETRY_TOL * norm:
        raise SvdConvergenceError(
            f"the operator is not complex symmetric: ||P - P^T|| = {asym / norm:.1e} ||P|| for P = {where}"
        )


def _cluster_end(s: np.ndarray, rank: int, tol: float) -> int:
    """min(rank, len(s)), extended past every later value within 1e-16 sigma_R / tol of sigma_R.

    An SVD vector is accurate to about eps sigma_1 / gap, so a cut across a larger gap leaves
    a Takagi residual below 2.2 tol sigma_1, under the 10 tol sigma_1 that Lanczos verifies.
    """
    r = min(rank, s.shape[0])
    return r + int(np.count_nonzero(s[r:] >= (1.0 - 1e-16 / tol) * s[r - 1]))


def _takagi(W: np.ndarray, s: np.ndarray, Zh: np.ndarray, rank: int, tol: float):
    """Leading `rank` Takagi pairs (B, sigma) of a complex symmetric A = W S Z*, with A conj(B) = B S.

    B = conj(Z) Y, with Z cut at _cluster_end: an eigenvector [a; b] of
    [[Re C, Im C], [Im C, -Re C]], C = Z^T A Z = Z^T W S, with eigenvalue
    sigma > 0 gives C conj(y) = sigma y for y = a + i b.
    """
    m = _cluster_end(s, rank, tol)
    r = min(rank, m)
    C = (np.conj(Zh[:m]) @ W[:, :m]) * s[:m]
    # two concatenates: np.block took three times as long on these small blocks
    re, im = C.real, C.imag
    values, E = np.linalg.eigh(np.concatenate((np.concatenate((re, im), 1), np.concatenate((im, -re), 1))))
    top = E[:, ::-1][:, :r]
    return Zh[:m].T @ (top[:m] + 1j * top[m:]), values[::-1][:r]


def _lanczos_symmetric(op: LinearOperator, rank: int, tol: float, seed: int, rows: LanczosRows):
    """Leading `rank` Takagi pairs (X, sigma) of a complex symmetric operator, verified from its CGS coefficients."""
    n = op.n
    q = rows.start(n, seed)

    # the cap bounds what a projection that never converges can cost; it is
    # n for every n <= 1066 at rank 8, where beta = 0 makes the pairs exact
    block = max(rank, 8)
    max_steps = min(n, max(2 * rank + 10, 16) + block * (10 * rank + 50))
    next_check = rank + 4  # no check passed before rank + 2 (BENCH_28.json)

    # basis rows, doubled when full: most projections stop within 4 * block
    Q = rows.take(min(max_steps, 4 * block), n)
    T, P = np.zeros((2, Q.shape[0], Q.shape[0]), dtype=np.complex128)  # P: Q^T A Q from the coefficients
    dropped = []  # (step, w) of each remainder that left the recurrence
    beta = 0.0
    scale = 0.0
    k = 0
    block_start = 0  # the step that opened the current Krylov block

    while k < max_steps:
        if k == Q.shape[0]:
            Q = rows.take(k + min(k, max_steps - k), n, keep=k)
            grown = np.zeros((2, Q.shape[0], Q.shape[0]), dtype=np.complex128)
            grown[:, :k, :k] = T[:k, :k], P[:k, :k]
            T, P = grown
        if k:
            T[k, k - 1] = T[k - 1, k] = P[k, k - 1] = beta
        Q[k] = q
        Aq = op.apply(q)
        T[k, k] = alpha = np.dot(q, Aq)
        w = np.conj(Aq)
        P[: k + 1, k] = _reorthogonalize(w, Q[: k + 1])
        beta = _norm(w)
        scale = max(scale, abs(alpha), beta)
        k += 1
        check = k >= next_check or k == max_steps  # max_steps <= n
        closed = None  # the start of a block that closed at this step
        if k == n:
            beta = 0.0
            dropped.append((k - 1, w))
        elif beta <= tol * scale:
            # the block's Krylov space is invariant to within tol, but larger
            # singular values may lie outside it: check whether any can, and
            # go on from a fresh direction if so
            beta = 0.0
            dropped.append((k - 1, w))
            closed, block_start = block_start, k
            check = True
            # from a stream keyed by (seed, k): no generator outlives a projection
            q = _fresh_direction(np.random.default_rng((seed, k)), Q, k)
        else:
            # numpy divides complex by real through the reciprocal, so these
            # are the bits of w / beta, without the temporary
            w *= 1.0 / beta
            q = w
        if not check:
            continue
        # a Ritz SVD costs O(k^3), 0.5-3 steps' time at k = 9..20: check every third
        # step while k is small, then every `block` steps (fitted in BENCH_28.json)
        next_check = k + (3 if k < 4 * block else block)
        # the estimates cover the cluster that the rank cuts, as _takagi keeps it whole
        W, s, Zh = np.linalg.svd(T[:k, :k])
        floor = tol * max(s[0], 1e-300)
        estimates = beta * np.abs(Zh[: _cluster_end(s, rank, tol), k - 1])
        if closed is not None:
            # a block started from a random direction holds the largest
            # singular value outside the blocks before it, so when its
            # leading one is within the floor of sigma_rank of all closed
            # blocks, nothing outside them is larger
            lead = np.linalg.svd(T[closed:k, closed:k], compute_uv=False)[0]
            estimates = np.append(estimates, lead - (s[rank - 1] if k >= rank else 0.0))
        elif 0 < block_start < k:
            # the open block's own leading Ritz value must have converged
            # too: until it has, a larger singular value may still lie
            # outside the Krylov space
            lead = np.linalg.svd(T[block_start:k, block_start:k])[2][0, -1]
            estimates = np.append(estimates, beta * abs(lead))
        if np.all(estimates <= floor):
            # the estimates presume A^T = A: confirm it on span Q, then the
            # pairs by A conj(X) - X S; more steps cannot mend either failure
            B, sigma = _takagi(W, s, Zh, rank, tol)
            G = np.conj(B)
            # A conj(X) - X S: its coordinates in conj(Q^T), then the conjugate of its part outside span Q
            R = np.concatenate((P[:k, :k] @ G - B * sigma, np.outer(beta * q, B[k - 1])))
            for j, r in dropped:
                P[j + 1 : k, j] = _reorthogonalize(r, Q[j + 1 : k])
                R[k:] += np.outer(r, B[j])
            _check_symmetric(P[:k, :k], f"Q^T A Q over {k} Lanczos vectors (n={n})")
            X = np.conj(Q[:k].T @ G)
            if _worst_column_sq(R) > (10.0 * floor) ** 2:
                raise SvdConvergenceError(
                    f"Takagi pairs passed the Ritz estimates but failed residual "
                    f"verification after {k} Lanczos steps (n={n}); the operator is "
                    f"likely not complex symmetric (A^T != A), or tol={tol:g} is below "
                    f"the accuracy its residuals can reach"
                )
            return X, sigma

    raise SvdConvergenceError(
        f"complex-symmetric Lanczos did not reach tol={tol:g} for the leading "
        f"{rank} singular values within {max_steps} steps (n={n})"
    )


def project_rank(
    op: LinearOperator, rank: int, tol: float = 1e-10, seed: int = 0, rows: Optional[LanczosRows] = None
) -> LowRankFactors:
    """Best rank-`rank` approximation X diag(sigma) X^T of a complex symmetric operator (Eckart-Young).

    The operator must satisfy A^T = A, as every operator the solver builds
    does. One that does not raises SvdConvergenceError: the dense path
    checks M - M^T, and Lanczos checks Q^T A Q, which sees the asymmetry
    acting within its Krylov space (at n = 300, a rank-one asymmetry of
    1e-8 of the norm raised). Only `apply`, and `materialize` on the dense
    path, are called. Deterministic for a fixed seed. Where the rank cuts a
    cluster of equal singular values, X spans an arbitrary but
    seed-deterministic part of it. Singular values that are zero or below
    1e-12 of the largest are dropped, so the result can have rank below the
    requested bound. For an operator with A^T = A, it raises instead of
    returning silently inaccurate pairs. `seed` is a nonnegative integer.
    `tol` must lie in (0, 0.1): the residuals are held to 10 tol sigma_1,
    which at 0.1 or above no longer constrains the leading pair. `rows`,
    when given, lends the Lanczos path its basis rows and start vector;
    the result never refers to them.
    """
    rank, seed = checked_int("rank", rank, 1, op.n), checked_int("seed", seed, 0)
    if not (is_real(tol) and 0.0 < tol < 0.1):  # NaN fails the range
        raise ValueError(f"tol must be a number in (0, 0.1), got {tol}")
    if op.materialize is not None and op.n <= min(DENSE_THRESHOLD, DENSE_CROSSOVER * (rank + 9)):
        M = op.materialize()
        _check_symmetric(M, f"the materialized {op.n}x{op.n} operator")
        X, s = _takagi(*np.linalg.svd(M), rank, tol)
    else:
        X, s = _lanczos_symmetric(op, rank, tol, seed, LanczosRows() if rows is None else rows)
    r = int(np.count_nonzero((s > 0) & (s >= 1e-12 * s[0])))
    return LowRankFactors(op.n, X[:, :r], s[:r])

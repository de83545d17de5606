"""Structure-exploiting Hankel machinery.

An n-by-n Hankel matrix is parameterized by the length-(2n-1) vector of its
anti-diagonal values, [H]_{k,l} = z[k+l]. All hot-path operations here work
on that parameter vector: matvecs run through FFT convolution, anti-diagonal
reductions of rank factorizations run through batched FFT convolutions, and
the data-consistent projection is the anti-diagonal mean with observed
entries overwritten exactly. Only `hankel_dense` forms a dense matrix.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .lowrank import LinearOperator, LowRankFactors, checked_int, checked_vector, ensure_dense_allowed


@dataclass(frozen=True)
class HankelVector:
    """Anti-diagonal parameter vector of an n-by-n Hankel matrix."""

    n: int
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "n", checked_int("Hankel dimension", self.n, 2))
        v = np.array(self.values, dtype=np.complex128, copy=True).reshape(-1)
        if v.shape != (2 * self.n - 1,):
            raise ValueError(
                f"parameter vector has length {v.shape[0]}, expected "
                f"2n-1 = {2 * self.n - 1} for n = {self.n}"
            )
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @classmethod
    def from_signal(cls, x) -> "HankelVector":
        """Wrap a uniformly sampled signal; its length must be odd."""
        x = np.asarray(x).reshape(-1)
        if x.shape[0] < 3 or x.shape[0] % 2 == 0:
            raise ValueError(
                f"signal length must be odd and at least 3 to define a square "
                f"Hankel matrix, got length {x.shape[0]}"
            )
        return cls((x.shape[0] + 1) // 2, x)

    @classmethod
    def zeros(cls, n: int) -> "HankelVector":
        return cls(n, np.zeros(2 * n - 1, dtype=np.complex128))


@dataclass(frozen=True)
class ObservationSet:
    """Observed coordinates of the length-(2n-1) signal and their values."""

    n: int
    indices: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "n", checked_int("Hankel dimension", self.n, 2))
        raw = np.asarray(self.indices).reshape(-1)
        if raw.size and raw.dtype.kind not in "iuf":
            raise ValueError(f"indices must be integers, got dtype {raw.dtype}")
        with np.errstate(invalid="ignore"):  # NaN, inf and overflow fail the check below
            idx = raw.astype(np.int64)
        if not np.array_equal(idx, raw):
            raise ValueError(f"indices must be integers, got {raw[idx != raw][0]}")
        vals = np.array(self.values, dtype=np.complex128, copy=True).reshape(-1)
        if idx.shape != vals.shape:
            raise ValueError(
                f"{idx.shape[0]} indices but {vals.shape[0]} observed values"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("observed values must be finite")
        if idx.size:
            if idx[0] < 0 or idx[-1] > 2 * self.n - 2:
                raise ValueError(f"indices must lie in [0, {2 * self.n - 2}]")
            if np.any(np.diff(idx) <= 0):
                raise ValueError("indices must be strictly increasing")
        idx.setflags(write=False)
        vals.setflags(write=False)
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "values", vals)


@lru_cache(maxsize=None)
def antidiag_weights(n: int) -> np.ndarray:
    """w[j] = number of positions (k, l) with k + l = j in an n-by-n matrix."""
    j = np.arange(2 * n - 1)
    w = np.minimum(np.minimum(j, 2 * n - 2 - j) + 1, n)
    w.setflags(write=False)
    return w


def fft_length(n: int) -> int:
    # smallest power of two >= 2n-1: the anti-diagonal sums are 2n-1 long, and
    # the matvec reads outputs n-1..2n-2 of a length-(3n-2) convolution, which
    # wrap-around at this length never reaches
    return 1 << (2 * n - 2).bit_length()


def hankel_dense(h: HankelVector) -> np.ndarray:
    """Dense n-by-n Hankel matrix, for the dense SVD path below the threshold."""
    ensure_dense_allowed(h.n, "hankel_dense")
    k = np.arange(h.n)
    return h.values[k[:, None] + k[None, :]]


def hankel_operator(h: HankelVector) -> LinearOperator:
    """Matvec contract for H(z) in O(n log n), and its dense matrix on request.

    H v is the middle of the correlation of z with v: ifft(fft(z) fft(rev v)).
    The spectral product is taken in place, in the array the first transform
    returns; the operator keeps only fft(z) between calls. H is complex
    symmetric, so it needs no adjoint.
    """
    n = h.n
    length = fft_length(n)
    zf = np.fft.fft(h.values, length)

    def apply(v):
        x = np.fft.fft(checked_vector(v, n)[::-1], length)
        np.multiply(zf, x, out=x)
        return np.fft.ifft(x)[n - 1 : 2 * n - 1]

    return LinearOperator(n=n, apply=apply, materialize=lambda: hankel_dense(h))


def antidiag_sums_lowrank(f: LowRankFactors) -> np.ndarray:
    """Anti-diagonal sums of X diag(sigma) X^T, in O(n r log n).

    Each rank-one term sigma_r x_r x_r^T contributes sigma_r times the
    linear convolution of x_r with itself, so one batch of forward
    transforms serves: ifft(sum_r sigma_r fft(x_r)^2).
    """
    n = f.n
    xf = np.fft.fft(f.X.T, fft_length(n))
    xf *= xf
    return np.fft.ifft(f.sigma @ xf)[: 2 * n - 1]


def project_hankel_blend(
    h: HankelVector,
    sums: np.ndarray,
    delta2: float,
    obs: ObservationSet,
) -> HankelVector:
    """Data-consistent Hankel projection of (1-delta2)*H(z) + delta2*L.

    `sums` are the anti-diagonal sums of L (antidiag_sums_lowrank). Unobserved
    coordinate j of the blend has anti-diagonal mean
    (1-delta2)*z[j] + delta2*sums[j]/w[j]; observed coordinates are
    overwritten last so they match the data bit for bit. The blended matrix
    is never formed densely.
    """
    if not 0.0 < delta2 < 1.0:
        raise ValueError(f"delta2 must lie in (0, 1), got {delta2}")
    if sums.shape != h.values.shape or obs.n != h.n:
        raise ValueError(
            f"dimension mismatch: h has n={h.n}, sums length {sums.shape[0]}, observations n={obs.n}"
        )
    means = sums / antidiag_weights(h.n)
    out = h.values - delta2 * (h.values - means)
    out[obs.indices] = obs.values
    return HankelVector(h.n, out)


def hankel_frobenius_sq(h: HankelVector) -> float:
    """Squared Frobenius norm of H(z): sum_j w[j] |z[j]|^2."""
    return float(np.sum(antidiag_weights(h.n) * np.abs(h.values) ** 2))


"""Ground-truth synthesis, random sampling, metrics, frequency extraction."""

from dataclasses import dataclass

import numpy as np

from .hankel import HankelVector, ObservationSet, hankel_operator
from .lowrank import checked_int, project_rank, store_readonly


class PencilConditionError(RuntimeError):
    """The shift-invariance pencil was too ill conditioned to trust."""


@dataclass(frozen=True)
class SpectralModel:
    """Sum of sinusoids x(t) = sum_k amps[k] exp(2 pi i freqs[k] t): freqs distinct in [0, 1), amps finite, nonzero."""

    freqs: np.ndarray
    amps: np.ndarray

    def __post_init__(self):
        freqs = np.array(self.freqs, dtype=np.float64, copy=True).reshape(-1)
        amps = np.array(self.amps, dtype=np.complex128, copy=True).reshape(-1)
        if freqs.shape != amps.shape or freqs.size == 0:
            raise ValueError(
                f"need matching nonempty frequency and amplitude lists, got "
                f"{freqs.size} and {amps.size}"
            )
        if not np.all((0 <= freqs) & (freqs < 1)):  # NaN fails the range
            raise ValueError("frequencies must lie in [0, 1)")
        if np.unique(freqs).size != freqs.size:
            raise ValueError("frequencies must be pairwise distinct")
        if not np.all(np.isfinite(amps) & (amps != 0)):
            raise ValueError("amplitudes must be nonzero and finite")
        store_readonly(self, freqs=freqs, amps=amps)


@dataclass(frozen=True)
class SampleInstance:
    """A synthetic ground truth together with its random partial observation."""

    model: SpectralModel
    x_true: np.ndarray
    obs: ObservationSet
    seed: int


def synthesize(model: SpectralModel, length: int) -> np.ndarray:
    """Uniform samples x[t] for t = 0..length-1."""
    t = np.arange(checked_int("length", length, 1))
    return np.exp(2j * np.pi * np.outer(t, model.freqs)) @ model.amps


def random_model(order: int, rng: np.random.Generator) -> SpectralModel:
    """Frequencies uniform on [0, 1), amplitudes uniform on the unit circle.

    Exact floating-point frequency collisions are redrawn so the model keeps
    pairwise distinct frequencies.
    """
    order = checked_int("order", order, 1)
    freqs = rng.uniform(0.0, 1.0, size=order)
    while np.unique(freqs).size != order:
        freqs = rng.uniform(0.0, 1.0, size=order)
    amps = np.exp(2j * np.pi * rng.uniform(0.0, 1.0, size=order))
    return SpectralModel(freqs, amps)


def random_observations(x_true: np.ndarray, m: int, rng: np.random.Generator) -> ObservationSet:
    """Observe m coordinates drawn uniformly without replacement."""
    h = HankelVector.from_signal(x_true)
    length = h.values.shape[0]
    m = checked_int("sample count", m, 1, length)
    indices = np.sort(rng.choice(length, size=m, replace=False))
    return ObservationSet(h.n, indices, h.values[indices])


def make_instance(n: int, order: int, m: int, seed: int) -> SampleInstance:
    """Deterministic synthetic instance for a (master) seed.

    Model and observation randomness are derived from independent child
    streams of the seed, so the instance is reproducible regardless of how
    many other instances were drawn before it.
    """
    n, seed = checked_int("n", n, 2), checked_int("seed", seed, 0)
    model_rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    obs_rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    model = random_model(order, model_rng)
    x_true = synthesize(model, 2 * n - 1)
    obs = random_observations(x_true, m, obs_rng)
    return SampleInstance(model=model, x_true=x_true, obs=obs, seed=seed)


def relative_error(x_hat: np.ndarray, x_true: np.ndarray) -> float:
    """||x_hat - x_true||_2 / ||x_true||_2."""
    x_hat = np.asarray(x_hat).reshape(-1)
    x_true = np.asarray(x_true).reshape(-1)
    if x_hat.shape != x_true.shape:
        raise ValueError(f"length mismatch: {x_hat.shape[0]} vs {x_true.shape[0]}")
    denom = np.linalg.norm(x_true)
    if denom == 0:
        raise ValueError("relative error is undefined for a zero reference signal")
    return float(np.linalg.norm(x_hat - x_true) / denom)


def extract_frequencies(z_hat, order: int) -> np.ndarray:
    """Recover `order` frequencies from a (near) rank-`order` Hankel parameter vector.

    Solves X[:-1] @ Psi = X[1:] for the Takagi factor X of H(z), which spans
    its leading left singular subspace (shift invariance); the eigenvalue
    phases of Psi are the frequencies, returned sorted ascending in [0, 1).
    """
    h = z_hat if isinstance(z_hat, HankelVector) else HankelVector.from_signal(z_hat)
    order = checked_int("order", order, 1, h.n - 1)
    f = project_rank(hankel_operator(h), order)
    if f.rank < order:
        raise PencilConditionError(
            f"Hankel matrix has numerical rank {f.rank}, below the requested order {order}"
        )
    top, bottom = f.X[:-1], f.X[1:]
    shift, _, rank, sv = np.linalg.lstsq(top, bottom, rcond=None)
    if rank < order or sv[-1] <= 1e-12 * sv[0]:
        raise PencilConditionError(
            f"shift pencil is rank deficient ({rank} of {order}); frequencies are not identifiable"
        )
    phases = np.angle(np.linalg.eigvals(shift)) / (2.0 * np.pi)
    return np.sort(np.mod(phases, 1.0))

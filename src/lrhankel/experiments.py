"""Monte Carlo and benchmarking machinery behind the command line.

Every trial derives its own random stream from the master seed and its grid
coordinates, so results are reproducible bit for bit regardless of worker
count or scheduling order. A recovery counts as a success when the relative
error against the ground truth is at most SUCCESS_THRESHOLD.
"""

import ctypes
import logging
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .lowrank import SvdConvergenceError, checked_int
from .signal import make_instance, relative_error
from .solver import RecoveryResult, SolverConfig, solve

logger = logging.getLogger(__name__)

SUCCESS_THRESHOLD = 5e-3


@dataclass(frozen=True)
class ExperimentGrid:
    """Phase-transition sweep over sparsity and sample-count values."""

    n: int
    rank_values: tuple[int, ...]
    sample_values: tuple[int, ...]
    trials: int
    master_seed: int
    solver: SolverConfig = field(default_factory=lambda: SolverConfig(rank=1))

    def __post_init__(self):
        for name, low in (("n", 2), ("trials", 1), ("master_seed", 0)):
            object.__setattr__(self, name, checked_int(name, getattr(self, name), low))
        for name, label, top in (("rank_values", "rank values", self.n),
                                 ("sample_values", "sample counts", 2 * self.n - 1)):
            values = tuple(checked_int(label, value, 1, top) for value in getattr(self, name))
            object.__setattr__(self, name, values)
        if not self.rank_values or not self.sample_values:
            raise ValueError("rank_values and sample_values must be nonempty")


@dataclass(frozen=True)
class PhaseCell:
    rank: int
    samples: int
    trials: int
    successes: int

    @property
    def success_rate(self) -> float:
        return self.successes / self.trials


@dataclass(frozen=True)
class BenchRow:
    n: int
    rank: int
    samples: int
    elapsed_seconds: float
    iterations: int
    factor_bytes: int


@dataclass(frozen=True)
class CompareResult:
    plain: RecoveryResult
    accelerated: RecoveryResult


def trial_seed(master_seed: int, rank: int, samples: int, trial: int) -> int:
    """Stable per-trial seed from the trial's grid coordinates, each an integer of at least 0."""
    coordinates = {"master_seed": master_seed, "rank": rank, "samples": samples, "trial": trial}
    ss = np.random.SeedSequence([checked_int(name, value, 0) for name, value in coordinates.items()])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def run_trial(n: int, rank: int, samples: int, seed: int, cfg: SolverConfig) -> bool:
    """One synthetic recovery; True if the relative error clears the threshold.

    A solve that fails numerically counts as a failed trial and is logged
    with its traceback; any other exception propagates.
    """
    inst = make_instance(n, rank, samples, seed)
    try:
        result = solve(inst.obs, replace(cfg, rank=rank, svd_seed=seed))
    except (SvdConvergenceError, np.linalg.LinAlgError):
        logger.warning(
            "solve failed on trial (n=%d, rank=%d, samples=%d, seed=%d); counted as failure",
            n, rank, samples, seed, exc_info=True,
        )
        return False
    return relative_error(result.z_hat, inst.x_true) <= SUCCESS_THRESHOLD


def _one_blas_thread() -> None:
    """Pool initializer: one OpenBLAS thread per worker, as the pool already fills the CPUs.

    OpenBLAS threads a complex gemv from n = 64 on, and its helper threads in
    every worker spun on the CPUs the others needed: 20-trial cells at n = 64
    ran 5-15 times slower. Without /proc/self/maps, nothing changes.
    """
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line and ".so" in line}
    except OSError:
        return
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_", "openblas_set_num_threads"):
            if hasattr(lib, name):
                getattr(lib, name)(1)


def run_phase(grid: ExperimentGrid, workers: int | None = 1) -> list[PhaseCell]:
    """Success counts for every (rank, samples) cell of the grid, in grid order.

    Parallelism is across trials only; each trial owns a seed derived from
    (master_seed, rank, samples, trial), so any worker count produces the
    identical table. `workers` is None, meaning every CPU, or an integer of
    at least 1; the pool never has more workers than CPUs or trials, each of
    its workers keeps one BLAS thread, and one worker runs the trials in-process.
    """
    cpus = os.cpu_count() or 1
    workers = cpus if workers is None else checked_int("workers", workers, 1)
    cells = [(rank, samples) for rank in grid.rank_values for samples in grid.sample_values]
    trials = [
        (grid.n, rank, samples, trial_seed(grid.master_seed, rank, samples, t), grid.solver)
        for rank, samples in cells
        for t in range(grid.trials)
    ]
    columns = zip(*trials)
    # a forked pool starts all its workers at the first submit, used or not
    workers = min(workers, cpus, len(trials))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers, initializer=_one_blas_thread) as pool:
            outcomes = list(pool.map(run_trial, *columns, chunksize=1))
    else:
        outcomes = list(map(run_trial, *columns))
    k = grid.trials
    return [PhaseCell(*cell, k, sum(outcomes[i * k : (i + 1) * k])) for i, cell in enumerate(cells)]


def run_bench(
    cases: list[tuple[int, int, int]],
    cfg: SolverConfig,
    master_seed: int,
    repeats: int = 3,
) -> list[BenchRow]:
    """Wall-clock solve times (min over `repeats` runs), synthesis excluded.

    A discarded warm-up solve at the smallest case absorbs one-time library
    setup costs before anything is timed.
    """
    repeats = checked_int("repeats", repeats, 1)
    if not cases:
        return []
    prepared = []
    for n, rank, samples in cases:
        seed = trial_seed(master_seed, rank, samples, n)
        prepared.append((n, rank, samples, make_instance(n, rank, samples, seed), seed))

    n, rank, samples, inst, seed = min(prepared, key=lambda c: c[0])
    solve(inst.obs, replace(cfg, rank=rank, svd_seed=seed))

    rows = []
    for n, rank, samples, inst, seed in prepared:
        run_cfg = replace(cfg, rank=rank, svd_seed=seed)
        best = np.inf
        result = None
        for _ in range(repeats):
            start = time.perf_counter()
            result = solve(inst.obs, run_cfg)
            best = min(best, time.perf_counter() - start)
        # the O(n r) footprint of LowRankFactors: complex X, real sigma
        factor_bytes = n * rank * 16 + rank * 8
        rows.append(BenchRow(n, rank, samples, best, result.iterations, factor_bytes))
    return rows


def run_compare(n: int, rank: int, samples: int, seed: int, cfg: SolverConfig) -> CompareResult:
    """Plain and accelerated runs on the identical instance."""
    inst = make_instance(n, rank, samples, seed)
    base = replace(cfg, rank=rank, svd_seed=seed)
    plain = solve(inst.obs, replace(base, accelerated=False))
    accelerated = solve(inst.obs, replace(base, accelerated=True))
    return CompareResult(plain=plain, accelerated=accelerated)

"""Monte Carlo and benchmarking machinery behind the command line.

Every trial derives its own random stream from the master seed and its grid
coordinates, so results are reproducible bit for bit regardless of worker
count or scheduling order. A recovery counts as a success when the relative
error against the ground truth is at most SUCCESS_THRESHOLD.
"""

import logging
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

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
        object.__setattr__(self, "rank_values", tuple(int(r) for r in self.rank_values))
        object.__setattr__(self, "sample_values", tuple(int(m) for m in self.sample_values))
        if self.n < 2:
            raise ValueError(f"n must be at least 2, got {self.n}")
        if self.trials < 1:
            raise ValueError(f"trials must be at least 1, got {self.trials}")
        if not self.rank_values or not self.sample_values:
            raise ValueError("rank_values and sample_values must be nonempty")
        for name, values, top in (("rank values", self.rank_values, self.n),
                                  ("sample counts", self.sample_values, 2 * self.n - 1)):
            for value in values:
                if not 1 <= value <= top:
                    raise ValueError(f"{name} must lie in [1, {top}], got {value}")


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
    """Stable per-trial seed; depends only on the trial's grid coordinates."""
    ss = np.random.SeedSequence([int(master_seed), int(rank), int(samples), int(trial)])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def run_trial(n: int, rank: int, samples: int, seed: int, cfg: SolverConfig) -> bool:
    """One synthetic recovery; True if the relative error clears the threshold."""
    inst = make_instance(n, rank, samples, seed)
    try:
        result = solve(inst.obs, replace(cfg, rank=rank, svd_seed=seed))
    except Exception:
        logger.warning(
            "solve failed on trial (n=%d, rank=%d, samples=%d, seed=%d); counted as failure",
            n, rank, samples, seed, exc_info=True,
        )
        return False
    return relative_error(result.z_hat, inst.x_true) <= SUCCESS_THRESHOLD


def _phase_task(args) -> bool:
    n, rank, samples, seed, cfg = args
    return run_trial(n, rank, samples, seed, cfg)


def run_phase(grid: ExperimentGrid, workers: int = 1) -> list[PhaseCell]:
    """Success counts for every (rank, samples) cell of the grid.

    Parallelism is across trials only; each trial owns a seed derived from
    (master_seed, rank, samples, trial), so any worker count produces the
    identical table.
    """
    tasks = [
        (grid.n, rank, samples, trial_seed(grid.master_seed, rank, samples, t), grid.solver)
        for rank in grid.rank_values
        for samples in grid.sample_values
        for t in range(grid.trials)
    ]
    # a forked pool starts all its workers at the first submit, used or not
    workers = min(workers, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_phase_task, tasks, chunksize=1))
    else:
        outcomes = [_phase_task(task) for task in tasks]

    cells = []
    cursor = 0
    for rank in grid.rank_values:
        for samples in grid.sample_values:
            chunk = outcomes[cursor : cursor + grid.trials]
            cursor += grid.trials
            cells.append(PhaseCell(rank, samples, grid.trials, sum(chunk)))
    return cells


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
    if not cases:
        return []
    if repeats < 1:
        raise ValueError(f"repeats must be at least 1, got {repeats}")
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
        # the O(n r) footprint of LowRankFactors: complex U and V, real sigma
        factor_bytes = 2 * n * rank * 16 + rank * 8
        rows.append(BenchRow(n, rank, samples, best, result.iterations, factor_bytes))
    return rows


def run_compare(n: int, rank: int, samples: int, seed: int, cfg: SolverConfig) -> CompareResult:
    """Plain and accelerated runs on the identical instance."""
    inst = make_instance(n, rank, samples, seed)
    base = replace(cfg, rank=rank, svd_seed=seed)
    plain = solve(inst.obs, replace(base, accelerated=False))
    accelerated = solve(inst.obs, replace(base, accelerated=True))
    return CompareResult(plain=plain, accelerated=accelerated)

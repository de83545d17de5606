"""Benchmark of lrhankel: time to tol, phase-sweep throughput, traced layers.

Run from the root of a checkout; the package is imported from ./src:

    python3 perfbench/run.py --workload accel-1001 --seed 0 --seconds 50 --trace 0

Workloads (see perfbench/README.md for why each was chosen):

    accel-1001  solve to tol, n=1001, r=8, m=300, momentum with restart
    phase-64    run_phase at n=64, ranks 1-4 x samples 20/30/40, one worker
    plain-4001  solve to tol, n=4001, r=8, m=800, plain iteration; for runs
                by hand only, BENCHMARK.json leaves it out

With --trace 0 the run drives only the public API and reports the
end-to-end metrics. With --trace 1 it solves a fixed set of instances once
untraced and once with spans hooked onto the solver's module-level
functions (perfbench/tracing.py), and reports per-layer metrics. Every run
checks every output it sees; a failed check ends the run with exit code 1.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the line before it holds the sample counts
and the environment.
"""

import argparse
import itertools
import json
import logging
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import numpy as np

import tracing

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_PROBES = 4  # set-up is measured in the run itself and in this many fresh processes
MIN_ROUNDS = 2  # every unit runs at least twice, so every run checks a repeat


class BenchError(Exception):
    """The benchmark cannot run here: no lrhankel sources to import."""


class CheckFailed(Exception):
    """An output of the program is wrong."""


@dataclass(frozen=True)
class SolveWorkload:
    """Fixed instances, each one `solve` call to tol."""

    n: int
    rank: int
    samples: int
    accelerated: bool
    instances: int
    warmup: tuple = (300, 4, 150)  # above the dense threshold, so Lanczos warms up


@dataclass(frozen=True)
class PhaseWorkload:
    """Fixed sweeps over the grid; each trial is one run_phase call."""

    n: int
    ranks: tuple
    samples: tuple
    sweeps: int
    max_iter: int
    warmup: tuple = (64, 2, 40)


WORKLOADS = {
    "plain-4001": SolveWorkload(4001, 8, 800, accelerated=False, instances=1),
    "accel-1001": SolveWorkload(1001, 8, 300, accelerated=True, instances=6),
    "phase-64": PhaseWorkload(64, (1, 2, 3, 4), (20, 30, 40), sweeps=6, max_iter=200),
}


class Outcome(NamedTuple):
    success: bool  # converged with relative error <= SUCCESS_THRESHOLD
    failed: int  # solves that raised
    result: object  # RecoveryResult, when the benchmark called solve itself


def child_seed(seed, index):
    """Seed of the index-th instance (or sweep) of a run with this --seed."""
    return seed * 1_000_000 + index


# ---------------------------------------------------------------- checks


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def check_result(result, obs, what):
    """z_hat is finite, keeps the observations bit for bit, histories fit."""
    z = result.z_hat
    if z.shape != (2 * obs.n - 1,):
        raise CheckFailed(f"{what}: z_hat has shape {z.shape}, expected ({2 * obs.n - 1},)")
    if not np.all(np.isfinite(z)):
        raise CheckFailed(f"{what}: z_hat has non-finite entries")
    if not same_bits(np.ascontiguousarray(z[obs.indices]), np.ascontiguousarray(obs.values)):
        raise CheckFailed(f"{what}: observed coordinates of z_hat differ from obs.values")
    if len(result.objective_history) != result.iterations + 1 or len(result.relchange_history) != result.iterations:
        raise CheckFailed(f"{what}: history lengths do not match {result.iterations} iterations")


def check_repeat(first, again, what):
    """A repeated unit, traced or not, gives the same outcome and the same z_hat bits."""
    if (again.success, again.failed) != (first.success, first.failed):
        raise CheckFailed(f"{what}: repeated outcome {again[:2]} differs from {first[:2]}")
    if first.result is not None and (
        again.result.iterations != first.result.iterations or not same_bits(again.result.z_hat, first.result.z_hat)
    ):
        raise CheckFailed(f"{what}: repeated solve is not bit-identical")


# ---------------------------------------------------------------- set-up


def import_lrhankel():
    if not (SRC / "lrhankel" / "__init__.py").is_file():
        raise BenchError(f"lrhankel sources not found under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import lrhankel
    import lrhankel.experiments

    if Path(lrhankel.__file__).resolve().parent != SRC / "lrhankel":
        raise BenchError(f"imported lrhankel from {lrhankel.__file__}, not from {SRC}")
    return lrhankel


def set_up(wl, seed):
    """Import, instance synthesis and a small warm-up solve; returns (lr, instances, seconds)."""
    start = perf_counter()
    lr = import_lrhankel()
    instances = []
    if isinstance(wl, SolveWorkload):
        instances = [lr.make_instance(wl.n, wl.rank, wl.samples, child_seed(seed, i)) for i in range(wl.instances)]
    n, rank, samples = wl.warmup
    warm = lr.make_instance(n, rank, samples, child_seed(seed, 999_999))
    lr.solve(warm.obs, lr.SolverConfig(rank=rank, accelerated=getattr(wl, "accelerated", False)))
    return lr, instances, perf_counter() - start


def probe_set_up(workload, seed):
    """Set-up times of SETUP_PROBES fresh processes, run one after another."""
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed), "--setup-probe"],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


# ---------------------------------------------------------------- units of work


def solve_instance(lr, wl, inst, solve):
    try:
        result = solve(inst.obs, lr.SolverConfig(rank=wl.rank, accelerated=wl.accelerated, svd_seed=inst.seed))
    except Exception:
        traceback.print_exc()
        return Outcome(False, 1, None)
    check_result(result, inst.obs, f"instance seed {inst.seed}")
    error = lr.relative_error(result.z_hat, inst.x_true)
    return Outcome(result.converged and error <= lr.experiments.SUCCESS_THRESHOLD, 0, result)


def solve_units(lr, wl, seed, instances, rec=None):
    """One unit per instance. Traced units synthesize their instance under a span first."""
    if rec is None:
        return [partial(solve_instance, lr, wl, inst, lr.solve) for inst in instances]
    make_instance, solve = rec.wrap("signal.make_instance", lr.make_instance), rec.wrap_solve(lr.solve)

    def traced(i):
        inst = make_instance(wl.n, wl.rank, wl.samples, child_seed(seed, i))
        return solve_instance(lr, wl, inst, solve)

    return [partial(traced, i) for i in range(wl.instances)]


class FailureCounter(logging.Handler):
    """Counts the solves run_trial reports as raised; it swallows them otherwise."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        if record.exc_info:
            self.count += 1


def phase_trial(lr, wl, counter, rank, samples, master_seed):
    """One trial of one grid cell through run_phase."""
    grid = lr.experiments.ExperimentGrid(
        n=wl.n, rank_values=(rank,), sample_values=(samples,), trials=1, master_seed=master_seed,
        solver=lr.SolverConfig(rank=1, max_iter=wl.max_iter),
    )
    before = counter.count
    (cell,) = lr.experiments.run_phase(grid, workers=1)
    if (cell.rank, cell.samples, cell.trials) != (rank, samples, 1) or cell.successes not in (0, 1):
        raise CheckFailed(f"run_phase returned {cell} for cell rank={rank} samples={samples}")
    return Outcome(cell.successes == 1, counter.count - before, None)


def phase_units(lr, wl, seed, counter, rec=None):
    """One unit per (sweep, rank, samples); trial seeds depend only on those,
    so a sweep's cells equal those of one run_phase call over the whole grid."""
    trial = phase_trial if rec is None else rec.wrap("experiments.run_phase", phase_trial)
    return [
        partial(trial, lr, wl, counter, rank, samples, child_seed(seed, sweep))
        for sweep in range(wl.sweeps)
        for rank in wl.ranks
        for samples in wl.samples
    ]


def check_first_trial(lr, wl, seed, outcome):
    """Solve the first phase trial's instance directly, twice; it must agree with run_phase."""
    rank, samples = wl.ranks[0], wl.samples[0]
    ts = lr.experiments.trial_seed(child_seed(seed, 0), rank, samples, 0)
    inst = lr.make_instance(wl.n, rank, samples, ts)
    cfg = lr.SolverConfig(rank=rank, svd_seed=ts, max_iter=wl.max_iter)
    direct = [lr.solve(inst.obs, cfg) for _ in range(2)]
    check_result(direct[0], inst.obs, "first trial")
    check_repeat(*(Outcome(outcome.success, 0, r) for r in direct), "first trial")
    if (lr.relative_error(direct[0].z_hat, inst.x_true) <= lr.experiments.SUCCESS_THRESHOLD) != outcome.success:
        raise CheckFailed("run_phase disagrees with a direct solve of its first trial")
    return direct[0]


# ---------------------------------------------------------------- measuring


def best_of_rounds(units, seconds):
    """Run every unit once per round until `seconds` have passed (at least
    MIN_ROUNDS rounds); returns each unit's best time and first outcome.

    The best of a unit's repeats, not its median, because a shared host's
    speed drifts by tens of percent over tens of seconds (perfbench/README.md);
    the median over units is taken afterwards.
    """
    best, first = [math.inf] * len(units), [None] * len(units)
    start, runs = perf_counter(), 0
    for rnd in itertools.count():
        for k, unit in enumerate(units):
            if rnd >= MIN_ROUNDS and perf_counter() - start >= seconds:
                return best, first, runs
            if rnd and first[k].failed:
                continue
            t0 = perf_counter()
            outcome = unit()
            elapsed = perf_counter() - t0
            runs += 1
            if rnd == 0:
                first[k] = outcome
            else:
                check_repeat(first[k], outcome, f"unit {k}")
            if not outcome.failed:
                best[k] = min(best[k], elapsed)


def timed_pass(units):
    outcomes, elapsed = [], 0.0
    for unit in units:
        t0 = perf_counter()
        outcomes.append(unit())
        elapsed += perf_counter() - t0
    return outcomes, elapsed


# ---------------------------------------------------------------- reporting


def blas_threads():
    """Thread count the process's OpenBLAS reports, or None if it cannot be asked."""
    import ctypes
    import glob

    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(lr):
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": blas_threads(),
        "blas_thread_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "dense_threshold": lr.dense_threshold(),
        "tools": "in-process timers and getrusage only; no machine-wide tracing and no file-cache "
        "dropping, so setup_s includes whatever the file cache holds",
    }


def emit(correct, attempted, failed, metrics, detail):
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


def end_to_end(lr, wl, args, units, own_setup):
    """Best-of-rounds timing of the untraced units, plus set-up time and memory."""
    setup = [own_setup] + probe_set_up(args.workload, args.seed)
    best, first, runs = best_of_rounds(units, args.seconds)
    if isinstance(wl, PhaseWorkload):
        check_first_trial(lr, wl, args.seed, first[0])
    timed = [t for t in best if t < math.inf]
    if not timed:
        raise CheckFailed("every solve raised")
    metrics = {
        "solve_s": (statistics.median(timed), "s"),
        "trials_per_s": (len(timed) / math.fsum(timed), "1/s"),
        "success_rate": (sum(o.success for o in first) / len(first), "fraction"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    samples = {"units": len(first), "timed_runs": runs, "setup": len(setup)}
    if isinstance(wl, SolveWorkload):
        samples["iterations"] = [o.result.iterations if o.result else None for o in first]
    return metrics, first, {"samples": samples}


def per_layer(lr, wl, args, units, traced_units, rec):
    """One untraced and one traced pass over the same units; metrics from the spans."""
    untraced, untraced_s = timed_pass(units)
    phase = isinstance(wl, PhaseWorkload)
    with tracing.hooked(rec, tracing.SOLVER_HOOKS + (tracing.EXPERIMENT_HOOKS if phase else ())) as missing:
        traced, traced_s = timed_pass(traced_units)
    for k, (a, b) in enumerate(zip(untraced, traced)):
        check_repeat(a, b, f"traced unit {k}")
    for k, (obs, result) in enumerate(rec.solves):
        check_result(result, obs, f"traced solve {k}")
    if phase:
        direct = check_first_trial(lr, wl, args.seed, untraced[0])
        if rec.solves:
            check_repeat(Outcome(True, 0, direct), Outcome(True, 0, rec.solves[0][1]), "traced first trial")
    fft_length = getattr(lr.hankel, "fft_length", None)
    if fft_length is None:
        missing.append("lrhankel.hankel.fft_length")
    metrics = tracing.layer_metrics(rec, fft_length(wl.n) if fft_length else None, missing)
    metrics["trace.overhead"] = (traced_s / untraced_s, "ratio")
    path = HERE / "out" / f"trace-{args.workload}-seed{args.seed}.csv"
    rec.write_csv(path)
    return metrics, traced, {"missing_hooks": missing, "spans": len(rec.spans), "trace_file": str(path.relative_to(HERE.parent))}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    wl = WORKLOADS[args.workload]

    counter = FailureCounter()
    logger = logging.getLogger("lrhankel.experiments")
    logger.addHandler(counter)
    attempted = 1
    try:
        lr, instances, own_setup = set_up(wl, args.seed)
        if args.setup_probe:
            print(repr(own_setup))
            return 0

        def units(rec=None):
            if isinstance(wl, PhaseWorkload):
                return phase_units(lr, wl, args.seed, counter, rec)
            return solve_units(lr, wl, args.seed, instances, rec)

        attempted = len(units())
        if args.trace == 0:
            metrics, outcomes, detail = end_to_end(lr, wl, args, units(), own_setup)
        else:
            rec = tracing.Recorder()
            metrics, outcomes, detail = per_layer(lr, wl, args, units(), units(rec), rec)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        emit(False, attempted, 0, {}, {"check_failed": str(exc)})
        return 1
    finally:
        logger.removeHandler(counter)
    detail.update(workload=args.workload, seed=args.seed, env=environment(lr))
    emit(True, attempted, sum(o.failed for o in outcomes), metrics, detail)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line harness: solve, phase, bench, compare, synth.

Flags override config-file keys, which override defaults. A setting's
static bound sits on its `_SETTINGS` row, and `main` checks every value a
subcommand reads before the subcommand runs; the subcommand checks the
bounds set by n before it reads or synthesizes anything. Exit codes:
0 success, 1 usage error, 2 input or output error, 3 non-convergence under --strict,
4 numerical failure. Any other exception is a bug and keeps its traceback.

A subcommand returns its tables by file name and, if a solve did not
converge, the message that --strict exits with. `main` creates --out only
after every table is computed, so an error leaves no partial output.
"""

import argparse
import math
import os
import sys
from dataclasses import fields
from itertools import zip_longest
from typing import Callable, NamedTuple, Optional

import numpy as np

from .csvio import (
    InputFileError,
    Table,
    fmt_float,
    fmt_int,
    read_config_file,
    read_observation_file,
    read_signal_file,
    sample_table,
    write_csv,
)
from .experiments import (
    ExperimentGrid,
    run_bench,
    run_compare,
    run_phase,
)
from .lowrank import SvdConvergenceError
from .signal import (
    PencilConditionError,
    extract_frequencies,
    make_instance,
    relative_error,
)
from .solver import RecoveryResult, SolverConfig, solve


Outcome = tuple[dict[str, Table], Optional[str]]


class UsageError(Exception):
    pass


class Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"expected a boolean, got {text!r}")


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        values = ()
    if not values:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    return values


def _parse_case(text: str) -> tuple[int, int, int]:
    try:
        n, rank, samples = map(int, text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected n,rank,samples, got {text!r}") from None
    return n, rank, samples


# a setting's static bound: a predicate and the text a usage error prints after the flag
_AT_LEAST_0 = (lambda v: v >= 0, "must be at least 0")
_AT_LEAST_1 = (lambda v: v >= 1, "must be at least 1")
_AT_LEAST_2 = (lambda v: v >= 2, "must be at least 2")
_POSITIVE = (lambda v: v > 0, "must be positive")
_POSITIVE_FINITE = (lambda v: 0 < v < math.inf, "must be positive and finite")
_OPEN_UNIT = (lambda v: 0 < v < 1, "must lie strictly in (0, 1)")


class Setting(NamedTuple):
    """Flag --key (underscores as dashes) of `commands`; `help` may name {default}.

    Flags default to None: a --config key (`config`) is read only when its
    flag is absent, and `default` applies when neither gives a value.
    """

    key: str
    convert: Callable
    default: object
    help: str
    commands: tuple[str, ...] = ("solve", "synth", "phase", "bench", "compare")
    config: bool = True
    action: str = "store"
    metavar: Optional[str] = None
    valid: Optional[tuple[Callable, str]] = None

    @property
    def option(self) -> str:
        return "--" + self.key.replace("_", "-")

    def check(self, value, label: str) -> None:
        """Reject a value outside the static bound; `label` names it in the message."""
        if value is not None and self.valid is not None and not self.valid[0](value):
            raise UsageError(f"{label} {self.valid[1]}, got {value}")


_SOLVER_DEFAULTS = {f.name: f.default for f in fields(SolverConfig)}
_SOLVER_KEYS = ("delta1", "delta2", "tol", "max_iter", "accelerated", "bound")

# the subcommands that read a group of settings; a flag exists only where read
_SOLVERS = ("solve", "phase", "bench", "compare")
_INSTANCE = ("solve", "synth", "compare")

_SETTINGS = {
    s.key: s
    for s in (
        Setting("n", int, None, "Hankel dimension n; the signal has length 2n-1",
                ("solve", "synth", "phase", "compare"), valid=_AT_LEAST_2),
        Setting("rank", int, None, "number of sinusoids to fit", _INSTANCE),
        Setting("samples", int, None, "number of observed entries", _INSTANCE),
        Setting("seed", int, 0, "master seed (default {default})", valid=_AT_LEAST_0),
        Setting("delta1", float, _SOLVER_DEFAULTS["delta1"], "rank-step size in (0,1), default {default}",
                _SOLVERS, valid=_OPEN_UNIT),
        Setting("delta2", float, _SOLVER_DEFAULTS["delta2"], "data-step size in (0,1), default {default}",
                _SOLVERS, valid=_OPEN_UNIT),
        Setting("tol", float, _SOLVER_DEFAULTS["tol"], "relative-change stopping tolerance, default {default}",
                _SOLVERS, valid=_POSITIVE_FINITE),
        Setting("max_iter", int, _SOLVER_DEFAULTS["max_iter"], "iteration cap, default {default}",
                _SOLVERS, valid=_AT_LEAST_1),
        # compare runs both variants, so it has no use for the flag
        Setting("accelerated", _parse_bool, _SOLVER_DEFAULTS["accelerated"],
                "use the momentum-accelerated iteration", ("solve", "phase", "bench"), action="store_true"),
        Setting("bound", float, _SOLVER_DEFAULTS["bound"], "magnitude clamp for unobserved entries", _SOLVERS,
                valid=_POSITIVE),
        Setting("threads", int, None, "worker processes for Monte Carlo trials (default: every CPU)",
                ("phase",), valid=_AT_LEAST_1),
        Setting("out", str, ".", "output directory (default current)"),
        Setting("config", str, None, "flat key=value config file", config=False),
        Setting("strict", _parse_bool, False, "exit with code 3 when the solver does not converge",
                ("solve", "compare"), config=False, action="store_true"),
        Setting("obs_file", str, None, "observed samples CSV (rows t,re,im)", ("solve",), config=False),
        Setting("signal_file", str, None, "ground-truth signal CSV, enables error reporting",
                ("solve",), config=False),
        Setting("rank_values", _parse_int_list, None, "comma-separated sparsity values", ("phase",)),
        Setting("samples_values", _parse_int_list, None, "comma-separated sample counts", ("phase",)),
        Setting("trials", int, 100, "Monte Carlo trials per cell (default {default})", ("phase",),
                valid=_AT_LEAST_1),
        Setting("case", _parse_case, ((51, 1, 10), (51, 3, 20), (101, 5, 40)), "instance shape; repeatable",
                ("bench",), config=False, action="append", metavar="N,RANK,SAMPLES"),
        Setting("repeats", int, 3, "timing repetitions, reported as the minimum", ("bench",),
                valid=_AT_LEAST_1),
    )
}


def _show(value) -> str:
    """A default as help text spells it: the shorter of 0.0001 and 1e-4."""
    if isinstance(value, float):
        return min(repr(value), np.format_float_scientific(value, trim="-", exp_digits=1), key=len)
    return str(value)


def build_parser() -> Parser:
    parser = Parser(prog="lrhankel", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, summary) in _COMMANDS.items():
        # no prefix matching: phase would read --rank as --rank-values
        p = sub.add_parser(command, help=summary, allow_abbrev=False)
        for s in _SETTINGS.values():
            if command not in s.commands:
                continue
            text = s.help.format(default=_show(s.default))
            if s.action == "store_true":
                p.add_argument(s.option, action="store_true", default=None, help=text)
            else:
                p.add_argument(s.option, action=s.action, type=s.convert, metavar=s.metavar, help=text)
    return parser


class Settings:
    """Flag > config file > default resolution for every known key, checked against its bound."""

    def __init__(self, args: argparse.Namespace, config: dict[str, object]):
        self._args = args
        self._config = config

    def flag(self, key: str):
        return getattr(self._args, key, None)

    def get(self, key: str):
        setting, value = _SETTINGS[key], self.flag(key)
        if value is None:
            value = self._config.get(key, setting.default)
        setting.check(value, setting.option)
        return value

    def require(self, key: str):
        value = self.get(key)
        if value is None:
            raise UsageError(f"{_SETTINGS[key].option} is required for this command")
        return value


def _solver_config(settings: Settings, rank: int, svd_seed: int) -> SolverConfig:
    return SolverConfig(rank=rank, svd_seed=svd_seed, **{key: settings.get(key) for key in _SOLVER_KEYS})


def _check_range(value: int, top: int, flag: str, where: str) -> None:
    """Reject a count outside [1, top], a bound set by n, before anything is synthesized or written."""
    if not 1 <= value <= top:
        raise UsageError(f"{flag} must lie in [1, {top}] for {where}, got {value}")


def _n_and_rank(settings: Settings, deficient: bool) -> tuple[int, int]:
    """--n and --rank, in [1, n - 1] if the Hankel matrix must be `deficient`, else [1, n]."""
    n = settings.require("n")
    rank = settings.require("rank")
    _check_range(rank, n - 1 if deficient else n, "--rank", f"--n {n}")
    return n, rank


def _samples(settings: Settings, n: int) -> int:
    samples = settings.require("samples")
    _check_range(samples, 2 * n - 1, "--samples", f"--n {n}")
    return samples


def _history_rows(result: RecoveryResult):
    relchanges = ["", *map(fmt_float, result.relchange_history)]
    return [
        [fmt_int(i), fmt_float(objective), relchange]
        for i, (objective, relchange) in enumerate(zip(result.objective_history, relchanges))
    ]


def cmd_solve(settings: Settings) -> Outcome:
    # frequency extraction needs a rank-deficient n-by-n Hankel matrix
    n, rank = _n_and_rank(settings, deficient=True)
    seed = settings.get("seed")

    obs_file, signal_file = settings.get("obs_file"), settings.get("signal_file")
    if signal_file is not None and obs_file is None:
        raise UsageError("--signal-file needs --obs-file; a synthesized instance has its own truth")
    if obs_file is not None and settings.flag("samples") is not None:
        raise UsageError("--samples does not apply with --obs-file, which fixes the observed samples")
    if obs_file is not None:
        obs = read_observation_file(obs_file, n)
        x_true = None
        if signal_file is not None:
            x_true = read_signal_file(signal_file)
            if len(x_true) != 2 * n - 1:
                raise InputFileError(f"{signal_file}: signal length {len(x_true)} does not match n={n}")
            if not np.any(x_true):
                raise InputFileError(f"{signal_file}: signal is zero, so its relative error is undefined")
    else:
        inst = make_instance(n, rank, _samples(settings, n), seed)
        obs, x_true = inst.obs, inst.x_true

    result = solve(obs, _solver_config(settings, rank, svd_seed=seed))
    summary = [
        ["n", fmt_int(n)],
        ["rank", fmt_int(rank)],
        ["iterations", fmt_int(result.iterations)],
        ["converged", "true" if result.converged else "false"],
        ["final_objective", fmt_float(result.objective_history[-1])],
    ]
    if x_true is not None:
        summary.append(["relative_error", fmt_float(relative_error(result.z_hat, x_true))])
    try:
        freqs = extract_frequencies(result.z_hat, rank)
        summary.append(["frequency_extraction", "ok"])
        summary.extend([f"freq_{k}", fmt_float(f)] for k, f in enumerate(freqs))
    except PencilConditionError:
        summary.append(["frequency_extraction", "failed"])
    tables = {
        "recovered.csv": sample_table(range(len(result.z_hat)), result.z_hat),
        "history.csv": (["iteration", "objective", "relchange"], _history_rows(result)),
        "summary.csv": (["key", "value"], summary),
    }
    return tables, None if result.converged else "solver did not converge within max_iter"


def cmd_synth(settings: Settings) -> Outcome:
    # the bound of solve, so that every written instance can be solved
    n, rank = _n_and_rank(settings, deficient=True)
    inst = make_instance(n, rank, _samples(settings, n), settings.get("seed"))
    model = [
        [fmt_int(k), fmt_float(f), fmt_float(d.real), fmt_float(d.imag)]
        for k, (f, d) in enumerate(zip(inst.model.freqs, inst.model.amps))
    ]
    tables = {
        "signal.csv": sample_table(range(len(inst.x_true)), inst.x_true),
        "observations.csv": sample_table(inst.obs.indices, inst.obs.values),
        "model.csv": (["k", "freq", "amp_re", "amp_im"], model),
    }
    return tables, None


def cmd_phase(settings: Settings) -> Outcome:
    n = settings.require("n")
    rank_values, sample_values = settings.require("rank_values"), settings.require("samples_values")
    for rank in rank_values:
        _check_range(rank, n, "--rank-values", f"--n {n}")
    for samples in sample_values:
        _check_range(samples, 2 * n - 1, "--samples-values", f"--n {n}")
    grid = ExperimentGrid(
        n=n,
        rank_values=rank_values,
        sample_values=sample_values,
        trials=settings.get("trials"),
        master_seed=settings.get("seed"),
        solver=_solver_config(settings, rank=1, svd_seed=0),
    )
    rows = [
        [*map(fmt_int, (c.rank, c.samples, c.trials, c.successes)), fmt_float(c.success_rate)]
        for c in run_phase(grid, workers=settings.get("threads"))
    ]
    return {"phase.csv": (["rank", "samples", "trials", "successes", "success_rate"], rows)}, None


def cmd_bench(settings: Settings) -> Outcome:
    cases = settings.get("case")
    for n, rank, samples in cases:
        where = f"--case {n},{rank},{samples}"
        _SETTINGS["n"].check(n, f"n of {where}")
        _check_range(rank, n, "--case rank", where)
        _check_range(samples, 2 * n - 1, "--case samples", where)
    rows = [
        [*map(fmt_int, (r.n, r.rank, r.samples)), fmt_float(r.elapsed_seconds),
         fmt_int(r.iterations), fmt_int(r.factor_bytes)]
        for r in run_bench(
            cases,
            _solver_config(settings, rank=1, svd_seed=0),
            master_seed=settings.get("seed"),
            repeats=settings.get("repeats"),
        )
    ]
    header = ["n", "rank", "samples", "elapsed_seconds", "iterations", "factor_bytes"]
    return {"bench.csv": (header, rows)}, None


def cmd_compare(settings: Settings) -> Outcome:
    n, rank = _n_and_rank(settings, deficient=False)
    result = run_compare(n, rank, _samples(settings, n), settings.get("seed"),
                         _solver_config(settings, rank, svd_seed=0))
    plain, accel = result.plain, result.accelerated
    histories = zip_longest(_history_rows(plain), _history_rows(accel), fillvalue=["", "", ""])
    rows = [[fmt_int(i), *p[1:], *a[1:]] for i, (p, a) in enumerate(histories)]
    summary = [
        ["plain_iterations", fmt_int(plain.iterations)],
        ["plain_converged", "true" if plain.converged else "false"],
        ["accel_iterations", fmt_int(accel.iterations)],
        ["accel_converged", "true" if accel.converged else "false"],
        ["iteration_ratio", fmt_float(accel.iterations / plain.iterations)],
    ]
    tables = {
        "compare.csv": (
            ["iteration", "plain_objective", "plain_relchange", "accel_objective", "accel_relchange"],
            rows,
        ),
        "compare_summary.csv": (["key", "value"], summary),
    }
    if plain.converged and accel.converged:
        return tables, None
    return tables, "at least one solver did not converge within max_iter"


def _load_config(args: argparse.Namespace) -> dict[str, object]:
    """Every key of the --config file, converted; a value that does not parse is an input error."""
    if args.config is None:
        return {}
    config = read_config_file(args.config)
    unknown = set(config) - {key for key, s in _SETTINGS.items() if s.config}
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(sorted(unknown))}")
    values = {}
    for key, text in config.items():
        try:
            values[key] = _SETTINGS[key].convert(text)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise InputFileError(f"{args.config}: key {key}: {exc}") from None
    return values


_COMMANDS = {
    "solve": (cmd_solve, "recover one signal"),
    "synth": (cmd_synth, "write a synthetic instance"),
    "phase": (cmd_phase, "success-rate sweep over (rank, samples)"),
    "bench": (cmd_bench, "wall-clock timing of solves"),
    "compare": (cmd_compare, "plain vs accelerated iteration logs"),
}


def main(argv=None) -> int:
    parser = build_parser()
    stage = "input"  # an OSError before the tables are computed comes from reading
    try:
        args = parser.parse_args(argv)
        command, _ = _COMMANDS[args.command]
        settings = Settings(args, _load_config(args))
        for key, s in _SETTINGS.items():
            if args.command in s.commands:
                settings.get(key)
        tables, unconverged = command(settings)
        stage = "output"
        out_dir = settings.get("out")
        os.makedirs(out_dir, exist_ok=True)
        for name, (header, rows) in tables.items():
            write_csv(os.path.join(out_dir, name), header, rows)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (InputFileError, OSError) as exc:
        print(f"{stage} error: {exc}", file=sys.stderr)
        return 2
    except (SvdConvergenceError, np.linalg.LinAlgError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 4
    if unconverged is not None and settings.get("strict"):
        print(unconverged, file=sys.stderr)
        return 3
    return 0


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()

"""In-memory spans around lrhankel's module-level functions.

The traced run replaces a fixed list of module attributes with wrappers
that record a span (id, parent, name, start, end) per call, then restores
them. Nothing inside the package is edited: the wrappers see only what the
solver passes across those names. A name that no longer exists is skipped
and reported as missing, and the metrics that need it are left out.
"""

import csv
import dataclasses
import importlib
import math
import statistics
from contextlib import contextmanager
from time import perf_counter


class Recorder:
    """Spans of one thread, kept in memory until written out."""

    def __init__(self):
        self.spans = []  # (id, parent, name, start, end); parent is -1 at the top
        self.solves = []  # (obs, RecoveryResult) per traced solve
        self._stack = []
        self._origin = perf_counter()

    def wrap(self, name, fn):
        """fn with every call recorded as a span called `name`."""

        def traced(*args, **kwargs):
            sid = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(sid)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[sid] = (sid, parent, name, start, end)

        return traced

    def wrap_solve(self, solve):
        """`solve` as a span that also keeps its observations and result."""

        def capture(obs, cfg):
            result = solve(obs, cfg)
            self.solves.append((obs, result))
            return result

        return self.wrap("solver.solve", capture)

    def write_csv(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh, lineterminator="\n")
            out.writerow(["id", "parent", "name", "start_s", "end_s"])
            for sid, parent, name, start, end in self.spans:
                out.writerow([sid, parent, name, repr(start - self._origin), repr(end - self._origin)])


def _traced_operator(rec, op, apply_name, materialize_name):
    """A copy of a LinearOperator whose callbacks record spans."""
    materialize = op.materialize
    return dataclasses.replace(
        op,
        apply=rec.wrap(apply_name, op.apply),
        apply_adjoint=rec.wrap(apply_name, op.apply_adjoint),
        materialize=None if materialize is None else rec.wrap(materialize_name, materialize),
    )


def _project_rank_hook(rec, project_rank):
    # every operator handed to the rank projection is wrapped here, so its
    # applies and materializations are counted whichever factory built it
    def traced(op, *args, **kwargs):
        return project_rank(_traced_operator(rec, op, "lowrank.apply", "lowrank.materialize"), *args, **kwargs)

    return rec.wrap("lowrank.project_rank", traced)


def _hankel_operator_hook(rec, hankel_operator):
    def traced(*args, **kwargs):
        return _traced_operator(rec, hankel_operator(*args, **kwargs), "hankel.matvec", "hankel.materialize")

    return rec.wrap("hankel.operator", traced)


def _span_hook(name):
    return lambda rec, fn: rec.wrap(name, fn)


# (module, attribute, hook); blend_operator's applies are timed by the
# project_rank hook, so its own hook times only the construction
SOLVER_HOOKS = (
    ("lrhankel.solver", "project_rank", _project_rank_hook),
    ("lrhankel.solver", "project_hankel_blend", _span_hook("hankel.project_blend")),
    ("lrhankel.solver", "objective", _span_hook("solver.objective")),
    ("lrhankel.solver", "blend_operator", _span_hook("solver.blend_operator")),
    ("lrhankel.solver", "hankel_operator", _hankel_operator_hook),
    ("lrhankel.hankel", "antidiag_sums_lowrank", _span_hook("hankel.antidiag_sums")),
)
EXPERIMENT_HOOKS = (
    ("lrhankel.experiments", "solve", lambda rec, fn: rec.wrap_solve(fn)),
    ("lrhankel.experiments", "make_instance", _span_hook("signal.make_instance")),
)


@contextmanager
def hooked(rec, hooks):
    """Install `hooks` for the duration of the block; yields the missing names."""
    patched, missing = [], []
    try:
        for module_name, attr, hook in hooks:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            original = getattr(module, attr, None)
            if original is None:
                missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, hook(rec, original))
            patched.append((module, attr, original))
        yield missing
    finally:
        for module, attr, original in reversed(patched):
            setattr(module, attr, original)


# per-layer metrics that cannot be derived without the named hook
NEEDS = {
    "lrhankel.solver.project_rank": (
        "lowrank.project_rank.calls", "lowrank.project_rank_s", "lowrank.project_rank.self_s",
        "lowrank.applies", "lowrank.applies_per_projection", "lowrank.apply_s",
        "lowrank.dense_calls", "lowrank.dense_s",
    ),
    "lrhankel.solver.project_hankel_blend": ("hankel.project_blend_s",),
    "lrhankel.solver.objective": ("solver.objective.calls", "solver.objective_s"),
    "lrhankel.solver.hankel_operator": ("hankel.matvec.calls", "hankel.matvec_s", "hankel.matvec.flops_computed"),
    "lrhankel.hankel.antidiag_sums_lowrank": ("hankel.antidiag_sums.calls", "hankel.antidiag_sums_s"),
    "lrhankel.hankel.fft_length": ("hankel.fft_len", "hankel.matvec.flops_computed"),
    "lrhankel.experiments.solve": (
        "solver.iterations", "solver.restarts", "solver.nonconverged", "solver.solve_s",
        "solver.self_s", "experiments.trial_s", "experiments.self_s",
    ),
    "lrhankel.experiments.make_instance": ("signal.make_instance_s", "experiments.trial_s", "experiments.self_s"),
}


def layer_metrics(rec, fft_len, missing):
    """Per-layer numbers from the recorded spans and captured results.

    Times are totals over the traced work unless the name says otherwise.
    `fft_len` is the FFT length the matvecs use, or None if unknown.
    """
    names, durations, child_time = {}, {}, {}
    for sid, parent, name, start, end in rec.spans:
        names[sid] = name
        durations[sid] = end - start
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)

    def spans(name):
        return [sid for sid, n in names.items() if n == name]

    def total(name):
        return math.fsum(durations[sid] for sid in spans(name))

    def self_total(name):
        return math.fsum(durations[sid] - child_time.get(sid, 0.0) for sid in spans(name))

    projections = spans("lowrank.project_rank")
    dense = {parent for sid, parent, name, _, _ in rec.spans if name == "lowrank.materialize"}
    applies = len(spans("lowrank.apply"))
    matvecs = len(spans("hankel.matvec"))
    results = [result for _, result in rec.solves]

    # one trial is a make_instance span followed by the solve on its instance
    trial_times, pending = [], None
    for sid, _, name, start, end in rec.spans:
        if name == "signal.make_instance":
            pending = end - start
        elif name == "solver.solve" and pending is not None:
            trial_times.append(pending + end - start)
            pending = None

    metrics = {
        "solver.iterations": (sum(r.iterations for r in results), "count"),
        "solver.restarts": (sum(int((r.objective_history[1:] > r.objective_history[:-1]).sum()) for r in results), "count"),
        "solver.nonconverged": (sum(not r.converged for r in results), "count"),
        "solver.solve_s": (total("solver.solve"), "s"),
        "solver.self_s": (self_total("solver.solve"), "s"),
        "solver.objective.calls": (len(spans("solver.objective")), "count"),
        "solver.objective_s": (total("solver.objective"), "s"),
        "lowrank.project_rank.calls": (len(projections), "count"),
        "lowrank.project_rank_s": (total("lowrank.project_rank"), "s"),
        "lowrank.project_rank.self_s": (self_total("lowrank.project_rank"), "s"),
        "lowrank.applies": (applies, "count"),
        "lowrank.applies_per_projection": (applies / len(projections) if projections else 0.0, "count"),
        "lowrank.apply_s": (total("lowrank.apply"), "s"),
        "lowrank.dense_calls": (len(dense), "count"),
        "lowrank.dense_s": (math.fsum(durations[sid] for sid in dense), "s"),
        "hankel.matvec.calls": (matvecs, "count"),
        "hankel.matvec_s": (total("hankel.matvec"), "s"),
        "hankel.antidiag_sums.calls": (len(spans("hankel.antidiag_sums")), "count"),
        "hankel.antidiag_sums_s": (total("hankel.antidiag_sums"), "s"),
        "hankel.project_blend_s": (total("hankel.project_blend"), "s"),
        "experiments.trial_s": (statistics.median(trial_times) if trial_times else 0.0, "s"),
        "experiments.self_s": (self_total("experiments.run_phase"), "s"),
        "signal.make_instance_s": (total("signal.make_instance"), "s"),
    }
    if fft_len is not None:
        metrics["hankel.fft_len"] = (fft_len, "count")
        # one forward and one inverse FFT per matvec, 5 N log2 N flops each
        metrics["hankel.matvec.flops_computed"] = (matvecs * 2 * 5 * fft_len * math.log2(fft_len), "flop")
    for name in missing:
        for metric in NEEDS.get(name, ()):
            metrics.pop(metric, None)
    return metrics

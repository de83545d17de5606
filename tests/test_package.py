import dataclasses
import importlib
import importlib.util
from pathlib import Path

import lrhankel
import lrhankel.hankel
from lrhankel import LinearOperator


def test_public_names_resolve():
    # a trimmed export must not leave a stale name in __all__
    for name in lrhankel.__all__:
        getattr(lrhankel, name)


def test_benchmark_hooks_resolve():
    # the benchmark's tracer skips a hook whose name is gone, so a rename in
    # the package would silently drop per-layer metrics
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module_name, attr, _ in tracing.SOLVER_HOOKS + tracing.EXPERIMENT_HOOKS:
        assert hasattr(importlib.import_module(module_name), attr), f"{module_name}.{attr}"
    assert "materialize" in {f.name for f in dataclasses.fields(LinearOperator)}
    assert isinstance(lrhankel.dense_threshold(), int)
    assert callable(lrhankel.hankel.fft_length)

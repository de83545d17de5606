"""Guard against accidental dense n-by-n materialization.

Everything in this package is designed to run in O(n R) memory. Dense
matrices are still useful below a size cutoff, both as a fast path and as
a test oracle, so densification is allowed up to a threshold and refused
above it. The threshold is per context: `dense_limit` changes it for the
calling thread (or asyncio task) only.
"""

from contextlib import contextmanager
from contextvars import ContextVar

DEFAULT_DENSE_THRESHOLD = 256

_threshold: ContextVar[int] = ContextVar("dense_threshold", default=DEFAULT_DENSE_THRESHOLD)


class DenseMaterializationError(RuntimeError):
    """Raised when a code path asks for an n-by-n buffer with n above the threshold."""


def dense_threshold() -> int:
    return _threshold.get()


@contextmanager
def dense_limit(value: int):
    """Set the largest n for which dense n-by-n buffers may be allocated, for the block."""
    if value < 0:
        raise ValueError(f"dense threshold must be nonnegative, got {value}")
    token = _threshold.set(value)
    try:
        yield
    finally:
        _threshold.reset(token)


def ensure_dense_allowed(n: int, context: str = "") -> None:
    """Raise DenseMaterializationError if an n-by-n allocation is out of policy."""
    threshold = _threshold.get()
    if n > threshold:
        where = f" in {context}" if context else ""
        raise DenseMaterializationError(
            f"refusing to materialize a dense {n}x{n} matrix{where}: "
            f"n exceeds the dense threshold {threshold}"
        )

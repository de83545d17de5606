"""Recovery of spectrally sparse signals from partial samples.

A signal that is a superposition of a few complex sinusoids at arbitrary
continuous frequencies fills a square Hankel matrix of low rank. This
package completes that matrix from randomly observed time samples by
alternating relaxed projections onto the rank constraint and onto the
data-consistent Hankel set, entirely in O(n R) memory, with an optional
FISTA-style accelerated variant, and ships a reproducible command-line
experiment harness on top.
"""

from .hankel import (
    HankelVector,
    ObservationSet,
    antidiag_sums_lowrank,
    antidiag_weights,
    hankel_dense,
    hankel_frobenius_sq,
    hankel_operator,
    project_hankel_blend,
)
from .lowrank import (
    DenseMaterializationError,
    LinearOperator,
    LowRankFactors,
    SvdConvergenceError,
    dense_threshold,
    project_rank,
)
from .signal import (
    PencilConditionError,
    SampleInstance,
    SpectralModel,
    extract_frequencies,
    make_instance,
    random_model,
    random_observations,
    relative_error,
    synthesize,
)
from .solver import (
    IterateState,
    RecoveryResult,
    SolverConfig,
    init_state,
    objective,
    solve,
    step,
)

__version__ = "0.1.0"

__all__ = [
    "DenseMaterializationError",
    "HankelVector",
    "IterateState",
    "LinearOperator",
    "LowRankFactors",
    "ObservationSet",
    "PencilConditionError",
    "RecoveryResult",
    "SampleInstance",
    "SolverConfig",
    "SpectralModel",
    "SvdConvergenceError",
    "antidiag_sums_lowrank",
    "antidiag_weights",
    "dense_threshold",
    "extract_frequencies",
    "hankel_dense",
    "hankel_frobenius_sq",
    "hankel_operator",
    "init_state",
    "make_instance",
    "objective",
    "project_hankel_blend",
    "project_rank",
    "random_model",
    "random_observations",
    "relative_error",
    "solve",
    "step",
    "synthesize",
    "__version__",
]

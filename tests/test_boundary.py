"""Every size and count the library takes is an integer within its range.

Each takes numpy integers too; anything else, a bool included, raises a
ValueError that names the argument, before any work is done.
"""

import re

import numpy as np
import pytest

from lrhankel import (
    HankelVector,
    LinearOperator,
    LowRankFactors,
    ObservationSet,
    SolverConfig,
    SpectralModel,
    extract_frequencies,
    hankel_operator,
    make_instance,
    project_rank,
    random_model,
    random_observations,
    synthesize,
)
from lrhankel.experiments import run_bench, trial_seed

Z = np.exp(2j * np.pi * 0.1 * np.arange(15))  # rank 1, n = 8
MODEL = SpectralModel([0.1], [1.0])


def identity(v):
    return v


def empty_factors(n):
    return LowRankFactors(n, np.zeros((3, 0)), np.zeros(0))


# (name in the message, call with the value, a numpy integer it takes, a
# non-integer, an out-of-range value)
SITES = {
    "LowRankFactors": ("factor dimension n", empty_factors, np.uint8(3), 3.0, 0),
    "LinearOperator": (
        "operator dimension n", lambda v: LinearOperator(v, apply=identity), np.int64(3), 8.0, 0),
    "project_rank": ("rank", lambda v: project_rank(hankel_operator(HankelVector(8, Z)), v), np.int64(1), 2.0, 9),
    "HankelVector": ("Hankel dimension", lambda v: HankelVector(v, Z), np.int64(8), 8.0, 1),
    "ObservationSet": ("Hankel dimension", lambda v: ObservationSet(v, [0], [1.0]), np.int32(8), 8.0, 1),
    "synthesize": ("length", lambda v: synthesize(MODEL, v), np.int64(3), 3.0, 0),
    "random_model": ("order", lambda v: random_model(v, np.random.default_rng(0)), np.int64(2), 1.5, 0),
    "random_observations": (
        "sample count", lambda v: random_observations(Z, v, np.random.default_rng(0)), np.int64(4), 2.0, 16),
    "extract_frequencies": ("order", lambda v: extract_frequencies(Z, v), np.int64(1), 1.0, 8),
    "make_instance": ("n", lambda v: make_instance(v, 2, 10, 0), np.int64(16), 16.0, 1),
    "make_instance seed": ("seed", lambda v: make_instance(16, 2, 10, v), np.uint64(3), 1.5, -1),
    "run_bench": (
        "repeats", lambda v: run_bench([(8, 1, 5)], SolverConfig(rank=1), 0, repeats=v), np.int64(1), 1.5, 0),
    "trial_seed": ("rank", lambda v: trial_seed(0, v, 10, 0), np.int64(1), 1.7, -1),
}


@pytest.mark.parametrize("site", SITES)
def test_takes_numpy_integers_and_rejects_the_rest(site):
    name, call, valid, fraction, outside = SITES[site]
    call(valid)
    for not_an_int in (fraction, True, np.True_):
        with pytest.raises(ValueError, match=rf"^{re.escape(name)} must be an integer, got {not_an_int}$"):
            call(not_an_int)
    bound = r"(be at least \d+|lie in \[\d+, \d+\])"
    with pytest.raises(ValueError, match=rf"^{re.escape(name)} must {bound}, got {outside}$"):
        call(outside)


def test_numpy_integers_keep_results():
    a = make_instance(np.int64(16), np.int32(2), np.int64(10), np.uint64(0))
    b = make_instance(16, 2, 10, 0)
    assert np.array_equal(a.x_true, b.x_true) and np.array_equal(a.obs.indices, b.obs.indices)
    seed = trial_seed(np.int64(0), np.int32(1), np.uint16(10), np.int64(0))
    assert seed == trial_seed(0, 1, 10, 0) == 8416000991256263028
    assert type(HankelVector(np.int64(8), Z).n) is int

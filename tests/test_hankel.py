import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lrhankel import (
    DenseMaterializationError,
    HankelVector,
    LowRankFactors,
    ObservationSet,
    antidiag_sums_lowrank,
    antidiag_weights,
    hankel_dense,
    hankel_frobenius_sq,
    hankel_operator,
    project_hankel_blend,
)
from lrhankel.hankel import fft_length
from lrhankel.lowrank import DENSE_THRESHOLD, lowrank_dense, project_rank

from dense_reference import (
    constrained_hankel_lstsq,
    dense_antidiag_sums,
    dense_hankel,
    dense_project_hankel,
)


def random_hankel(n, rng):
    return HankelVector(n, rng.standard_normal(2 * n - 1) + 1j * rng.standard_normal(2 * n - 1))


def random_factors(n, r, rng):
    X, _ = np.linalg.qr(rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r)))
    sigma = np.sort(rng.uniform(0.5, 3.0, size=r))[::-1]
    return LowRankFactors(n, X, sigma)


class TestTypes:
    def test_hankel_vector_validates_length(self):
        with pytest.raises(ValueError, match="length"):
            HankelVector(3, [1, 2, 3])

    def test_hankel_vector_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            HankelVector(1, [1.0])

    def test_from_signal_rejects_even_length(self):
        with pytest.raises(ValueError, match="odd"):
            HankelVector.from_signal(np.ones(4))

    def test_from_signal_infers_n(self):
        h = HankelVector.from_signal(np.arange(9))
        assert h.n == 5

    def test_values_are_immutable(self):
        h = HankelVector(2, [1, 2, 3])
        with pytest.raises(ValueError):
            h.values[0] = 5

    def test_construction_copies_its_input(self):
        source = np.array([1.0, 2.0, 3.0], dtype=np.complex128)
        h = HankelVector(2, source)
        source[0] = 99.0
        assert h.values[0] == 1.0

    def test_observation_set_validates(self):
        with pytest.raises(ValueError, match="increasing"):
            ObservationSet(3, [2, 1], [1.0, 2.0])
        with pytest.raises(ValueError, match=r"\[0, 4\]"):
            ObservationSet(3, [0, 5], [1.0, 2.0])
        with pytest.raises(ValueError, match="values"):
            ObservationSet(3, [0, 1], [1.0])
        # only an integer dtype is taken: integral floats are refused too
        for bad in ([1.5, 2.7], [1.0, np.nan], [0.0, 3.0], np.float32([0, 3]), [1 + 1j, 2], [True, False]):
            with pytest.raises(ValueError, match="integers"):
                ObservationSet(4, bad, [1.0, 2.0])
        for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
            with pytest.raises(ValueError, match="finite"):
                ObservationSet(3, [0, 1], [1.0, bad])

    def test_observation_set_allows_empty(self):
        obs = ObservationSet(3, [], [])
        assert obs.indices.size == 0 and obs.values.size == 0


class TestWeights:
    def test_small_cases(self):
        assert antidiag_weights(2).tolist() == [1, 2, 1]
        assert antidiag_weights(3).tolist() == [1, 2, 3, 2, 1]

    @pytest.mark.parametrize("n", [2, 3, 5, 17, 64])
    def test_identities(self, n):
        w = antidiag_weights(n)
        assert w[0] == 1 and w[-1] == 1
        assert w.max() == n
        assert w.sum() == n * n

    @pytest.mark.parametrize("n", [2, 4, 9])
    def test_counts_match_dense_enumeration(self, n):
        counts = np.zeros(2 * n - 1, dtype=int)
        for k in range(n):
            for l in range(n):
                counts[k + l] += 1
        assert np.array_equal(antidiag_weights(n), counts)


class TestDense:
    def test_definition_unrolled(self):
        h = HankelVector(2, [1, 2, 3])
        assert np.array_equal(hankel_dense(h), [[1, 2], [2, 3]])
        h = HankelVector(3, [1, 2, 3, 4, 5])
        assert np.array_equal(hankel_dense(h), [[1, 2, 3], [2, 3, 4], [3, 4, 5]])

    def test_zero_case(self):
        assert not hankel_dense(HankelVector(2, [0, 0, 0])).any()

    def test_guard_blocks_large_n(self):
        h = HankelVector(DENSE_THRESHOLD + 1, np.zeros(2 * DENSE_THRESHOLD + 1))
        with pytest.raises(DenseMaterializationError):
            hankel_dense(h)


class TestMatvec:
    def test_frozen_examples(self):
        op = hankel_operator(HankelVector(2, [1, 2, 3]))
        assert np.allclose(op.apply([1, 0]), [1, 2])
        assert np.allclose(op.apply([0, 1]), [2, 3])
        assert np.allclose(hankel_operator(HankelVector(2, [1j, 0, 0])).apply([1, 0]), [1j, 0])

    def test_zero_vector(self):
        h = random_hankel(6, np.random.default_rng(0))
        assert not hankel_operator(h).apply(np.zeros(6)).any()

    def test_real_adjoint_equals_matvec(self):
        # H is complex symmetric, so H* v = conj(H conj(v)), and for a real z
        # that is H v
        rng = np.random.default_rng(1)
        h = HankelVector(5, rng.standard_normal(9))
        op = hankel_operator(h)
        v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        assert np.allclose(np.conj(op.apply(np.conj(v))), op.apply(v), rtol=1e-12)
        assert np.allclose(hankel_dense(h).conj().T @ v, op.apply(v), rtol=1e-12)

    @pytest.mark.parametrize("n", range(2, 17))
    def test_matches_dense_oracle(self, n):
        rng = np.random.default_rng(n)
        for _ in range(5):
            h = random_hankel(n, rng)
            v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            dense, op = hankel_dense(h), hankel_operator(h)
            scale = np.linalg.norm(dense @ v)
            assert np.linalg.norm(op.apply(v) - dense @ v) <= 1e-10 * scale

    def test_linearity(self):
        rng = np.random.default_rng(2)
        op = hankel_operator(random_hankel(8, rng))
        v, w = (rng.standard_normal(8) + 1j * rng.standard_normal(8) for _ in range(2))
        a, b = 1.7 - 0.3j, -0.4 + 2.1j
        lhs = op.apply(a * v + b * w)
        rhs = a * op.apply(v) + b * op.apply(w)
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * np.linalg.norm(rhs)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            hankel_operator(HankelVector(3, np.ones(5))).apply(np.ones(4))

    def test_applies_leave_input_and_earlier_results_alone(self):
        # each apply works in place, but only in an array of its own
        rng = np.random.default_rng(3)
        op = hankel_operator(random_hankel(9, rng))
        v = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        before = v.copy()
        first = op.apply(v)
        kept = first.copy()
        later = [op.apply(v), op.apply(first)]
        assert np.array_equal(v, before)
        assert np.array_equal(first, kept)
        for result in later:
            assert not np.shares_memory(first, result)
        assert not np.shares_memory(later[0], later[1])


class TestAntidiagSums:
    def test_rank_one_example(self):
        # x x^T with x = [1, 2j]: [[1, 2j], [2j, -4]]
        x = np.array([1.0, 2j])
        f = LowRankFactors(2, (x / np.linalg.norm(x)).reshape(2, 1), [np.linalg.norm(x) ** 2])
        assert np.allclose(antidiag_sums_lowrank(f), [1, 4j, -4])

    def test_all_ones_example(self):
        f = LowRankFactors(2, np.full((2, 1), np.sqrt(0.5)), [2.0])
        assert np.allclose(antidiag_sums_lowrank(f), [1, 2, 1])

    def test_zero_factors(self):
        assert not antidiag_sums_lowrank(LowRankFactors(5, np.zeros((5, 0)), [])).any()

    @pytest.mark.parametrize("n", [2, 3, 5, 64, 257, 1001])
    def test_zero_factors_give_positive_zero_bits(self, n):
        # rank 0 takes the general path: an empty batch of row FFTs sums to +0.0
        sums = antidiag_sums_lowrank(LowRankFactors(n, np.zeros((n, 0)), []))
        assert sums.tobytes() == np.zeros(2 * n - 1, complex).tobytes()

    @pytest.mark.parametrize("n,r", [(2, 1), (5, 2), (9, 3), (16, 4)])
    def test_matches_dense_oracle(self, n, r):
        rng = np.random.default_rng(n * 10 + r)
        f = random_factors(n, r, rng)
        dense = lowrank_dense(f)
        expected = dense_antidiag_sums(dense)
        got = antidiag_sums_lowrank(f)
        assert np.linalg.norm(got - expected) <= 1e-10 * max(np.linalg.norm(expected), 1.0)

    def test_one_forward_batch(self, monkeypatch):
        # X diag(sigma) X^T needs the transforms of X's rows alone: one
        # forward FFT call over the batch, and one inverse
        calls = []
        fft, ifft = np.fft.fft, np.fft.ifft
        monkeypatch.setattr(np.fft, "fft", lambda *a, **k: calls.append("fft") or fft(*a, **k))
        monkeypatch.setattr(np.fft, "ifft", lambda *a, **k: calls.append("ifft") or ifft(*a, **k))
        antidiag_sums_lowrank(random_factors(50, 4, np.random.default_rng(50)))
        assert calls == ["fft", "ifft"]


class TestProjection:
    def test_plain_mean_example(self):
        z = dense_project_hankel(np.array([[1.0, 3.0], [5.0, 7.0]]), None)
        assert np.allclose(z, [1, 4, 7])

    def test_observed_overwrite_example(self):
        obs = ObservationSet(2, [1], [9.0])
        z = dense_project_hankel(np.array([[1.0, 3.0], [5.0, 7.0]]), obs)
        assert np.allclose(z, [1, 9, 7])

    def test_idempotent(self):
        # observed coordinates repeat bit for bit; unobserved means can move
        # by an ulp because summing j equal floats and dividing by j rounds
        rng = np.random.default_rng(4)
        X = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        obs = ObservationSet(6, [0, 3, 7], rng.standard_normal(3))
        once = dense_project_hankel(X, obs)
        twice = dense_project_hankel(dense_hankel(once), obs)
        assert np.array_equal(once[obs.indices], twice[obs.indices])
        assert np.allclose(twice, once, rtol=1e-14, atol=1e-14)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_constrained_lstsq_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        m = int(rng.integers(0, 2 * n))
        idx = np.sort(rng.choice(2 * n - 1, size=m, replace=False))
        obs = ObservationSet(n, idx, rng.standard_normal(m) + 1j * rng.standard_normal(m))
        closed = dense_project_hankel(X, obs)
        oracle = constrained_hankel_lstsq(X, obs)
        num = np.linalg.norm(dense_hankel(closed) - dense_hankel(oracle))
        assert num <= 1e-10 * max(np.linalg.norm(dense_hankel(oracle)), 1.0)

    def test_least_squares_optimality_among_feasible_competitors(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(2, 9))
            X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            m = int(rng.integers(0, n))
            idx = np.sort(rng.choice(2 * n - 1, size=m, replace=False))
            obs = ObservationSet(n, idx, rng.standard_normal(m) + 1j * rng.standard_normal(m))
            best = dense_project_hankel(X, obs)
            best_dist = np.linalg.norm(dense_hankel(best) - X)
            for _ in range(100):
                z = rng.standard_normal(2 * n - 1) + 1j * rng.standard_normal(2 * n - 1)
                z[obs.indices] = obs.values
                assert best_dist <= np.linalg.norm(dense_hankel(z) - X) + 1e-12

    def test_blend_fixed_point_on_consistent_data(self):
        rng = np.random.default_rng(6)
        n = 8
        t = np.arange(2 * n - 1)
        x = np.exp(2j * np.pi * 0.23 * t)
        h = HankelVector(n, x)
        f = project_rank(hankel_operator(h), 1)
        idx = np.sort(rng.choice(2 * n - 1, size=5, replace=False))
        obs = ObservationSet(n, idx, x[idx])
        out = project_hankel_blend(h, antidiag_sums_lowrank(f), 0.5, obs)
        assert np.allclose(out.values, x, atol=1e-10)
        assert np.array_equal(out.values[idx], x[idx])

    def test_blend_matches_dense_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = int(rng.integers(2, 11))
            h = random_hankel(n, rng)
            f = random_factors(n, min(3, n), rng)
            m = int(rng.integers(0, n))
            idx = np.sort(rng.choice(2 * n - 1, size=m, replace=False))
            obs = ObservationSet(n, idx, rng.standard_normal(m) + 1j * rng.standard_normal(m))
            delta2 = float(rng.uniform(0.05, 0.95))
            got = project_hankel_blend(h, antidiag_sums_lowrank(f), delta2, obs)
            blend = (1 - delta2) * dense_hankel(h.values) + delta2 * lowrank_dense(f)
            expected = dense_project_hankel(blend, obs)
            assert np.allclose(got.values, expected, rtol=1e-11, atol=1e-11)

    def test_blend_rejects_mismatched_dimensions(self):
        h = HankelVector(3, np.zeros(5))
        obs = ObservationSet(3, [0], [1.0])
        for sums, o in ((np.zeros(7, complex), obs), (np.zeros(5, complex), ObservationSet(4, [0], [1.0]))):
            with pytest.raises(ValueError, match="^dimension mismatch"):
                project_hankel_blend(h, sums, 0.5, o)

    def test_blend_rejects_bad_delta(self):
        # a str, bool or NaN step is refused by name, as SolverConfig refuses it
        h = HankelVector(3, np.zeros(5))
        obs = ObservationSet(3, [0], [1.0])
        for bad in (0.0, 1.0, -0.2, 1.5, "0.5", True, float("nan")):
            with pytest.raises(ValueError, match="^delta2 must be a number in"):
                project_hankel_blend(h, np.zeros(5, complex), bad, obs)


class TestNorms:
    def test_frobenius_examples(self):
        assert hankel_frobenius_sq(HankelVector(2, [1, 1, 1])) == 4.0
        assert hankel_frobenius_sq(HankelVector(2, [0, 0, 0])) == 0.0
        assert hankel_frobenius_sq(HankelVector(2, [1, 0, 0])) == 1.0

    @pytest.mark.parametrize("n", [2, 5, 12])
    def test_frobenius_matches_dense(self, n):
        rng = np.random.default_rng(n)
        h = random_hankel(n, rng)
        expected = np.linalg.norm(dense_hankel(h.values)) ** 2
        assert abs(hankel_frobenius_sq(h) - expected) <= 1e-10 * expected


# n = 2^k and 2^k + 1 put 2n-1 just below and just above a power of two
ALIASING_EDGES = sorted({m for k in range(1, 10) for m in (2**k, 2**k + 1)})


def _with_edge_examples(test):
    for n in ALIASING_EDGES:
        test = example(n=n, seed=0)(test)
    return test


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@_with_edge_examples
@given(n=st.integers(2, 700), seed=st.integers(0, 2**32 - 1))
def test_fft_products_have_no_aliasing(n, seed):
    assert fft_length(n) >= 2 * n - 1
    rng = np.random.default_rng(seed)
    h = random_hankel(n, rng)
    k = np.arange(n)
    dense = h.values[k[:, None] + k[None, :]]
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    want = dense @ v
    assert np.linalg.norm(hankel_operator(h).apply(v) - want) <= 1e-10 * np.linalg.norm(want)
    f = random_factors(n, min(3, n), rng)
    want = dense_antidiag_sums((f.X * f.sigma) @ f.X.T)
    assert np.linalg.norm(antidiag_sums_lowrank(f) - want) <= 1e-10 * np.linalg.norm(want)

import numpy as np
import pytest

from lrhankel import (
    HankelVector,
    PencilConditionError,
    SpectralModel,
    extract_frequencies,
    hankel_operator,
    make_instance,
    random_model,
    random_observations,
    relative_error,
    project_rank,
    synthesize,
)

from dense_reference import circular_distance, match_frequencies


class TestModel:
    def test_validation(self):
        with pytest.raises(ValueError, match="distinct"):
            SpectralModel([0.1, 0.1], [1.0, 2.0])
        for bad in (1.0, -0.1, np.nan, np.inf):
            with pytest.raises(ValueError, match=r"\[0, 1\)"):
                SpectralModel([bad], [1.0])
        for bad in (0.0, np.nan, np.inf, complex(0.0, -np.inf), complex(np.nan, 1.0)):
            with pytest.raises(ValueError, match="nonzero and finite"):
                SpectralModel([0.3], [bad])

    def test_synthesize_dc(self):
        assert np.allclose(synthesize(SpectralModel([0.0], [1.0]), 3), [1, 1, 1])

    def test_synthesize_nyquist(self):
        assert np.allclose(synthesize(SpectralModel([0.5], [1.0]), 3), [1, -1, 1])

    def test_synthesize_superposition(self):
        model = SpectralModel([0.0, 0.5], [1.0, 1.0])
        assert np.allclose(synthesize(model, 3), [2, 0, 2])

    def test_sample_instance_consistency(self):
        inst = make_instance(16, 3, 12, seed=0)
        t = np.arange(31)
        direct = sum(
            d * np.exp(2j * np.pi * f * t)
            for f, d in zip(inst.model.freqs, inst.model.amps)
        )
        assert np.allclose(inst.x_true, direct, atol=1e-12)
        assert np.array_equal(inst.obs.values, inst.x_true[inst.obs.indices])


class TestRandomModel:
    def test_unit_amplitudes(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            model = random_model(4, rng)
            assert np.all(np.abs(np.abs(model.amps) - 1.0) <= 1e-15)

    def test_deterministic_per_seed(self):
        a = random_model(3, np.random.default_rng(7))
        b = random_model(3, np.random.default_rng(7))
        assert np.array_equal(a.freqs, b.freqs)
        assert np.array_equal(a.amps, b.amps)

    def test_frequency_mean_law_of_large_numbers(self):
        rng = np.random.default_rng(1)
        draws = np.concatenate([random_model(2, rng).freqs for _ in range(5000)])
        assert abs(draws.mean() - 0.5) <= 0.02

    def test_redraws_on_exact_frequency_collision(self):
        class CollidingRng:
            """First frequency draw collides, second is clean."""

            def __init__(self):
                self.calls = 0

            def uniform(self, low, high, size):
                self.calls += 1
                if self.calls == 1:
                    return np.array([0.25, 0.25])
                return np.array([0.25, 0.75])

        model = random_model(2, CollidingRng())
        assert np.array_equal(np.sort(model.freqs), [0.25, 0.75])


class TestRandomObservations:
    def test_full_draw(self):
        x = synthesize(SpectralModel([0.2], [1.0]), 9)
        obs = random_observations(x, 9, np.random.default_rng(0))
        assert np.array_equal(obs.indices, np.arange(9))
        assert np.array_equal(obs.values, x)

    def test_deterministic_per_seed(self):
        x = synthesize(SpectralModel([0.2], [1.0]), 15)
        a = random_observations(x, 6, np.random.default_rng(3))
        b = random_observations(x, 6, np.random.default_rng(3))
        assert np.array_equal(a.indices, b.indices)

    def test_rejects_out_of_range_m(self):
        x = synthesize(SpectralModel([0.2], [1.0]), 9)
        for bad in (0, 10):
            with pytest.raises(ValueError, match="sample count"):
                random_observations(x, bad, np.random.default_rng(0))

    def test_single_sample_uniform_chi_square(self):
        # frequency of each index over many M=1 draws stays within 3 sigma
        x = synthesize(SpectralModel([0.2], [1.0]), 3)
        rng = np.random.default_rng(4)
        counts = np.zeros(3)
        trials = 10_000
        for _ in range(trials):
            obs = random_observations(x, 1, rng)
            counts[obs.indices[0]] += 1
        expected = trials / 3
        sigma = np.sqrt(trials * (1 / 3) * (2 / 3))
        assert np.all(np.abs(counts - expected) <= 3 * sigma)


class TestRelativeError:
    def test_identity(self):
        x = np.array([1.0, 2.0, 3.0])
        assert relative_error(x, x) == 0.0

    def test_scaling(self):
        x = np.array([1.0 + 1j, -2.0, 0.5j])
        assert np.isclose(relative_error(2 * x, x), 1.0)

    def test_unit_perturbation(self):
        x = np.array([3.0, 4.0])
        e0 = np.array([1.0, 0.0])
        assert np.isclose(relative_error(x + e0 * np.linalg.norm(x), x), 1.0)

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            relative_error(np.ones(3), np.zeros(3))


class TestExtractFrequencies:
    def test_single_tone(self):
        z = synthesize(SpectralModel([0.25], [1.0]), 17)
        assert np.allclose(extract_frequencies(z, 1), [0.25], atol=1e-8)

    def test_two_tones(self):
        z = synthesize(SpectralModel([0.1, 0.7], [1.0, 1.0]), 31)
        assert np.allclose(extract_frequencies(z, 2), [0.1, 0.7], atol=1e-8)

    def test_constant_signal(self):
        z = synthesize(SpectralModel([0.0], [1.0]), 9)
        assert np.allclose(extract_frequencies(z, 1), [0.0], atol=1e-10)

    @pytest.mark.parametrize("seed", range(10))
    def test_round_trip_with_separated_frequencies(self, seed):
        rng = np.random.default_rng(seed)
        n = 24
        while True:
            freqs = np.sort(rng.uniform(0, 1, size=3))
            gaps = np.diff(np.concatenate([freqs, [freqs[0] + 1.0]]))
            if gaps.min() >= 2.0 / n:
                break
        amps = np.exp(2j * np.pi * rng.uniform(0, 1, size=3))
        z = synthesize(SpectralModel(freqs, amps), 2 * n - 1)
        got = extract_frequencies(z, 3)
        assert match_frequencies(got, freqs) <= 1e-8

    def test_numerical_rank_of_synthesized_hankel(self):
        rng = np.random.default_rng(42)
        freqs = [0.05, 0.37, 0.81]
        model = SpectralModel(freqs, np.exp(2j * np.pi * rng.uniform(0, 1, 3)))
        h = HankelVector.from_signal(synthesize(model, 63))
        f = project_rank(hankel_operator(h), 4)
        assert f.rank >= 3
        sigma = np.zeros(4)
        sigma[: f.rank] = f.sigma
        assert sigma[3] <= 1e-10 * sigma[0]

    def test_rank_deficient_pencil_reported(self):
        z = synthesize(SpectralModel([0.3], [1.0]), 15)
        with pytest.raises(PencilConditionError):
            extract_frequencies(z, 3)

    def test_sorted_output(self):
        z = synthesize(SpectralModel([0.9, 0.2, 0.55], [1.0, 1.0, 1.0]), 41)
        got = extract_frequencies(z, 3)
        assert np.all(np.diff(got) > 0)

    def test_accepts_hankel_vector_input(self):
        x = synthesize(SpectralModel([0.33], [1.0]), 21)
        from_vector = extract_frequencies(HankelVector.from_signal(x), 1)
        from_array = extract_frequencies(x, 1)
        assert np.array_equal(from_vector, from_array)


class TestMatching:
    def test_circular_distance_wraps(self):
        assert np.isclose(circular_distance(0.95, 0.05), 0.1)
        assert np.isclose(circular_distance(0.2, 0.6), 0.4)

    def test_match_uses_best_assignment(self):
        est = [0.98, 0.1]
        ref = [0.1, 0.02]
        assert np.isclose(match_frequencies(est, ref), 0.04)

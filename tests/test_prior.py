import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pnplab.prior import GmmPrior


def _standard_normal_1d():
    return GmmPrior([1.0], [[0.0]], [1.0])


def _symmetric_bimodal():
    return GmmPrior([0.5, 0.5], [[-2.0], [2.0]], [0.25, 0.25])


def _curved_prior():
    # overlapping modes with unit variance: smooth but genuinely non-Gaussian
    return GmmPrior([0.5, 0.5], [[-1.5], [1.5]], [1.0, 1.0])


class TestValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            GmmPrior([0.5, 0.4], [[0.0], [1.0]], [1.0, 1.0])

    def test_weights_must_be_positive(self):
        with pytest.raises(ValueError):
            GmmPrior([1.2, -0.2], [[0.0], [1.0]], [1.0, 1.0])

    def test_variances_must_be_positive(self):
        with pytest.raises(ValueError):
            GmmPrior([1.0], [[0.0]], [0.0])

    def test_means_shape_checked(self):
        with pytest.raises(ValueError):
            GmmPrior([0.5, 0.5], [[0.0]], [1.0, 1.0])

    def test_from_config_names_missing_field(self):
        with pytest.raises(ValueError, match="variances"):
            GmmPrior.from_config({"weights": [1.0], "means": [[0.0]]})


class TestLogDensity:
    def test_standard_normal_at_mode(self):
        prior = _standard_normal_1d()
        assert prior.log_density(np.array([0.0]), 0.0) == pytest.approx(
            -0.5 * math.log(2 * math.pi), abs=1e-12
        )

    def test_noise_adds_variance(self):
        # v + sigma^2 = 2 at sigma = 1
        prior = _standard_normal_1d()
        assert prior.log_density(np.array([0.0]), 1.0) == pytest.approx(
            -0.5 * math.log(4 * math.pi), abs=1e-12
        )

    def test_two_component_against_direct_summation(self):
        prior = _symmetric_bimodal()

        def gauss(x, mu, var):
            return math.exp(-((x - mu) ** 2) / (2 * var)) / math.sqrt(2 * math.pi * var)

        oracle = math.log(0.5 * gauss(0.0, -2.0, 0.25) + 0.5 * gauss(0.0, 2.0, 0.25))
        assert prior.log_density(np.array([0.0]), 0.0) == pytest.approx(oracle, abs=1e-12)

    def test_far_tail_stays_finite(self):
        prior = _symmetric_bimodal()
        val = prior.log_density(np.array([1e4]), 0.1)
        assert math.isfinite(val) and val < -1e6

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            _standard_normal_1d().log_density(np.array([0.0]), -0.1)


class TestScore:
    def test_standard_normal_score_is_minus_y(self):
        prior = _standard_normal_1d()
        np.testing.assert_allclose(prior.score(np.array([3.0]), 0.0), [-3.0], atol=1e-12)

    def test_symmetric_mixture_zero_at_symmetry_point(self):
        prior = _symmetric_bimodal()
        np.testing.assert_allclose(prior.score(np.array([0.0]), 0.3), [0.0], atol=1e-15)

    def test_zero_at_single_component_mode(self):
        prior = GmmPrior([1.0], [[1.0, -2.0, 0.5]], [0.7])
        np.testing.assert_allclose(
            prior.score(np.array([1.0, -2.0, 0.5]), 0.4), np.zeros(3), atol=1e-15
        )

    def test_matches_finite_differences_of_log_density(self):
        """Central differences of the log-density reproduce the score."""
        rng = np.random.default_rng(10)
        prior = GmmPrior(
            [0.3, 0.3, 0.4], rng.standard_normal((3, 4)), [0.5, 1.0, 0.25]
        )
        step = 1e-5
        for sigma in (0.0, 0.3):
            for _ in range(20):
                y = 2.0 * rng.standard_normal(4)
                got = prior.score(y, sigma)
                fd = np.zeros(4)
                for j in range(4):
                    e = np.zeros(4)
                    e[j] = step
                    fd[j] = (
                        prior.log_density(y + e, sigma) - prior.log_density(y - e, sigma)
                    ) / (2 * step)
                np.testing.assert_allclose(got, fd, rtol=1e-6, atol=1e-6)

    def test_heat_expansion_order(self):
        """Score deviation from its noiseless limit shrinks quadratically."""
        prior = _curved_prior()
        for y in ([0.4], [0.8], [-0.6]):
            y = np.array(y)
            base = prior.score(y, 0.0)
            err = {s: np.linalg.norm(prior.score(y, s) - base) for s in (0.2, 0.1, 0.05, 0.025)}
            for sigma in (0.2, 0.1, 0.05):
                ratio = err[sigma / 2] / err[sigma]
                assert 0.18 <= ratio <= 0.35


class TestDenoising:
    def test_wiener_shrinkage_on_single_gaussian(self):
        # posterior mean of N(0, s^2) under noise sigma is s^2/(s^2+sigma^2) y
        prior = GmmPrior([1.0], [[0.0, 0.0]], [4.0])
        y = np.array([2.0, -1.0])
        np.testing.assert_allclose(
            prior.mmse_denoise(y, 1.0), (4.0 / 5.0) * y, rtol=1e-12
        )

    def test_posterior_mean_hand_case(self):
        prior = _standard_normal_1d()
        np.testing.assert_allclose(prior.posterior_mean(np.array([2.0]), 1.0), [1.0], rtol=1e-12)

    def test_posterior_mean_at_prior_mean(self):
        prior = GmmPrior([1.0], [[0.3, -0.7]], [0.5])
        mu = np.array([0.3, -0.7])
        np.testing.assert_allclose(prior.posterior_mean(mu, 0.2), mu, atol=1e-14)

    def test_symmetric_mixture_denoises_zero_to_zero(self):
        prior = _symmetric_bimodal()
        np.testing.assert_allclose(prior.mmse_denoise(np.array([0.0]), 0.5), [0.0], atol=1e-14)

    def test_two_routes_agree_everywhere(self):
        """Score route and direct posterior-mean route are the same map."""
        rng = np.random.default_rng(3)
        prior = GmmPrior(
            [0.2, 0.5, 0.3], rng.uniform(-2, 2, size=(3, 6)), [0.3, 1.2, 0.6]
        )
        pts = 4.0 * rng.standard_normal((1000, 6))
        a = prior.mmse_denoise(pts, 0.4)
        b = prior.posterior_mean(pts, 0.4)
        dev = np.linalg.norm(a - b, axis=1) / (1.0 + np.linalg.norm(pts, axis=1))
        assert float(dev.max()) <= 1e-10

    def test_vanishing_noise_returns_input_in_bulk(self):
        prior = _curved_prior()
        sigma = 1e-4
        for y in ([0.5], [-1.2], [1.8]):
            y = np.array(y)
            dev = np.linalg.norm(prior.mmse_denoise(y, sigma) - y)
            # residual is sigma^2 * score, so C can be read off the score scale
            c = 10.0 * (1.0 + np.linalg.norm(prior.score(y, 0.0)))
            assert dev <= c * sigma**2

    def test_sigma_must_be_positive(self):
        with pytest.raises(ValueError):
            _standard_normal_1d().mmse_denoise(np.array([0.0]), 0.0)


class TestSampling:
    def test_same_seed_bitwise_identical(self):
        prior = _symmetric_bimodal()
        a = prior.sample_pairs(0.1, 100, 7)
        b = prior.sample_pairs(0.1, 100, 7)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_tiny_noise_keeps_pairs_close(self):
        prior = _symmetric_bimodal()
        clean, noisy = prior.sample_pairs(1e-12, 2000, 0)
        frac = np.mean(np.abs(noisy - clean) <= 1e-10)
        assert frac >= 0.9999

    def test_empirical_mean_matches_mixture_mean(self):
        rng = np.random.default_rng(4)
        prior = GmmPrior([0.2, 0.8], rng.uniform(-1, 1, (2, 3)), [0.5, 1.5])
        clean, _ = prior.sample_pairs(0.1, 100000, 21)
        # 4 standard errors of the sample mean, per coordinate
        se = clean.std(axis=0, ddof=1) / np.sqrt(clean.shape[0])
        np.testing.assert_array_less(np.abs(clean.mean(axis=0) - prior.mean), 4.0 * se)

    def test_count_validated(self):
        with pytest.raises(ValueError):
            _standard_normal_1d().sample_pairs(0.1, 0, 0)

    @pytest.mark.parametrize("seed", [7, np.random.SeedSequence([3, 1])])
    def test_bitwise_equal_to_the_out_of_place_draw(self, seed):
        rng = np.random.default_rng(5)
        prior = GmmPrior([0.2, 0.5, 0.3], rng.standard_normal((3, 6)), [0.5, 1.5, 0.1])
        sigma, count = 0.3, 400
        want_rng = np.random.default_rng(seed)
        comps = want_rng.choice(3, size=count, p=prior.weights)
        want_clean = prior.means[comps] + np.sqrt(prior.variances[comps])[:, None] * (
            want_rng.standard_normal((count, 6))
        )
        want_noisy = want_clean + sigma * want_rng.standard_normal((count, 6))
        clean, noisy = prior.sample_pairs(sigma, count, seed)
        np.testing.assert_array_equal(clean, want_clean)
        np.testing.assert_array_equal(noisy, want_noisy)


    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        count=st.integers(1, 300),
        dim=st.integers(1, 16),
        rows=st.integers(1, 400),
        k=st.integers(1, 4),
        seed=st.integers(0, 2**16),
    )
    def test_pair_blocks_concatenate_to_sample_pairs(self, count, dim, rows, k, seed):
        rng = np.random.default_rng(seed)
        weights = rng.uniform(0.5, 1.5, k)
        prior = GmmPrior(weights / weights.sum(), rng.standard_normal((k, dim)), rng.uniform(0.1, 2.0, k))
        want_clean, want_noisy = prior.sample_pairs(0.3, count, seed)
        starts, cleans, noisies = [], [], []
        for index, clean, noisy in prior.pair_blocks(0.3, count, seed, rows):
            assert 1 <= len(clean) == len(noisy) == index.stop - index.start <= rows
            starts.append(index.start)
            cleans.append(clean.copy())
            noisies.append(noisy.copy())  # the noisy buffer is reused
        assert starts == list(range(0, count, rows))
        np.testing.assert_array_equal(np.concatenate(cleans), want_clean)
        np.testing.assert_array_equal(np.concatenate(noisies), want_noisy)

    def test_pair_blocks_rows_validated(self):
        with pytest.raises(ValueError, match="rows"):
            _standard_normal_1d().pair_blocks(0.1, 10, 0, 0)


def _row_major_score(prior, points, sigma):
    """The uncentred, row-major (m, K) score formula, kept as the oracle of ``_score``."""
    t, log_norm = prior._smoothed(sigma)
    means_sq = np.sum(prior.means * prior.means, axis=1)
    if prior.n_components == 1:
        r = np.ones((points.shape[0], 1))
    else:
        sq = points @ prior.means.T
        sq *= 2.0
        np.subtract(np.sum(points * points, axis=1)[:, None] + means_sq, sq, out=sq)
        np.maximum(sq, 0.0, out=sq)
        sq *= 0.5
        sq /= t
        r = np.subtract(log_norm, sq, out=sq)
        r -= r.max(axis=1, keepdims=True)
        np.exp(r, out=r)
        r /= r.sum(axis=1, keepdims=True)
    r /= t
    out = r @ prior.means
    out -= points * r.sum(axis=1)[:, None]
    return out


class TestComponentMajorKernel:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        k=st.sampled_from([1, 2, 3, 64]),
        n=st.integers(1, 32),
        m=st.integers(1, 40),
        sigma=st.floats(0.01, 2.0),
        seed=st.integers(0, 2**16),
    )
    def test_score_matches_the_row_major_formula(self, k, n, m, sigma, seed):
        rng = np.random.default_rng(seed)
        weights = rng.uniform(0.5, 1.5, k)
        prior = GmmPrior(weights / weights.sum(), rng.standard_normal((k, n)), rng.uniform(0.05, 2.0, k))
        points = 2.0 * rng.standard_normal((m, n))
        got = prior._score(points, *prior._smoothed(sigma))
        want = _row_major_score(prior, points, sigma)
        if k == 1:
            np.testing.assert_array_equal(got, want)
        else:
            # Relative to the size of the score's two terms, which may cancel.
            t_min = float(np.min(prior.variances)) + sigma * sigma
            scale = (np.linalg.norm(points, axis=1) + np.max(np.linalg.norm(prior.means, axis=1))) / t_min
            assert np.all(np.linalg.norm(got - want, axis=1) <= 1e-12 * scale)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        k=st.integers(1, 5),
        n=st.integers(1, 16),
        offset=st.sampled_from([0.0, 1.0, 1e2, 1e4]),
        seed=st.integers(0, 2**16),
    )
    def test_distances_stay_accurate_far_from_the_origin(self, k, n, offset, seed):
        """A mixture of spread 0.1 at distance ``offset``: the centred expansion keeps its accuracy."""
        rng = np.random.default_rng(seed)
        means = offset + 0.1 * rng.standard_normal((k, n))
        prior = GmmPrior(np.full(k, 1.0 / k), means, np.full(k, 1e-6))
        points = means[rng.integers(0, k, 30)] + 0.05 * rng.standard_normal((30, n))
        got = prior._half_sq_dists(points)
        direct = 0.5 * np.sum((points[None, :, :] - means[:, None, :]) ** 2, axis=2)
        centre = means.mean(axis=0)
        spread = np.max(np.sum((points - centre) ** 2, axis=1)) + np.max(np.sum((means - centre) ** 2, axis=1))
        assert got.shape == (k, 30)
        assert np.all(got >= 0.0)
        tol = 4 * (n + 2) * np.finfo(float).eps * spread
        assert np.max(np.abs(got - direct)) <= tol
        # The log-terms divide the distances by the variance 1e-6.
        t, log_norm = prior._smoothed(0.0)
        logs = prior._component_logpdf(points, t, log_norm)
        want = log_norm[:, None] - direct / t[:, None]
        assert np.all(np.abs(logs - want) <= tol / 1e-6 + 4 * np.finfo(float).eps * np.abs(want))


class TestOneComponent:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        n=st.integers(1, 64),
        m=st.integers(1, 8),
        offset=st.sampled_from([0.0, 1.0, 30.0, 1e3]),
        sigma=st.floats(0.0, 3.0),
        seed=st.integers(0, 2**16),
    )
    def test_responsibilities_are_ones_and_equal_the_softmax(self, n, m, offset, sigma, seed):
        rng = np.random.default_rng(seed)
        prior = GmmPrior([1.0], offset * rng.standard_normal((1, n)), [rng.uniform(0.05, 2.0)])
        points = offset * rng.standard_normal((m, n)) + rng.standard_normal((m, n))
        r = prior.responsibilities(points, sigma)
        np.testing.assert_array_equal(r, np.ones((m, 1)))
        # The general softmax over the single log-term, as for K > 1; the
        # log-terms are laid out (K, m).
        soft = prior._component_logpdf(points, *prior._smoothed(sigma))
        soft -= soft.max(axis=0)
        np.exp(soft, out=soft)
        soft /= soft.sum(axis=0)
        np.testing.assert_array_equal(r, soft.T)

    def test_far_point_stays_finite(self):
        prior = GmmPrior([1.0], [[0.5, -1.0, 2.0]], [0.4])
        y = np.array([1e160, -1e160, 1e160])
        # |y|^2 overflows, so a softmax over the one log-term would give NaN.
        with np.errstate(over="ignore"):
            assert np.isinf(np.sum(y * y))
        assert prior.responsibilities(y, 0.2)[0] == 1.0
        assert np.all(np.isfinite(prior.score(y, 0.2)))
        denoised = prior.mmse_denoise(y, 0.2)
        assert np.all(np.isfinite(denoised))
        np.testing.assert_allclose(denoised, (0.4 * y + 0.04 * prior.means[0]) / 0.44, rtol=1e-15)

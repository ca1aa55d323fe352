import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pnplab.denoisers import (
    AffineDenoiser,
    Denoiser,
    MmseDenoiser,
    OutputShrink,
    ScaledDenoiser,
    ShrinkageDenoiser,
    denoiser_from_config,
    estimate_lipschitz,
    gamma_factor,
    homogeneous_scale,
    tweedie_scale,
)
from pnplab.prior import GmmPrior


def _single_gaussian(dim=2, var=1.0):
    return GmmPrior([1.0], [np.zeros(dim)], [var])


class TestZoo:
    def test_shrinkage_one_is_identity(self):
        d = ShrinkageDenoiser(1.0, 2)
        np.testing.assert_array_equal(d(np.array([3.0, -1.0])), [3.0, -1.0])

    def test_shrinkage_scales(self):
        d = ShrinkageDenoiser(0.5, 2)
        np.testing.assert_allclose(d(np.array([4.0, 2.0])), [2.0, 1.0])

    def test_exact_mmse_is_wiener_on_single_gaussian(self):
        prior = _single_gaussian()
        d = MmseDenoiser(prior, 1.0)
        got = d(np.array([2.0, 0.0]))
        np.testing.assert_allclose(got, [1.0, 0.0], rtol=1e-12)
        np.testing.assert_allclose(got, prior.posterior_mean(np.array([2.0, 0.0]), 1.0))

    def test_affine(self):
        d = AffineDenoiser([[0.0, 1.0], [1.0, 0.0]], [1.0, -1.0])
        np.testing.assert_allclose(d(np.array([2.0, 3.0])), [4.0, 1.0])

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ShrinkageDenoiser(0.5, 3)(np.zeros(2))

    def test_alpha_range_validated(self):
        with pytest.raises(ValueError):
            ShrinkageDenoiser(0.0, 2)
        with pytest.raises(ValueError):
            ShrinkageDenoiser(1.1, 2)

    def test_output_shrink_composes(self):
        base = AffineDenoiser(np.eye(2), np.array([1.0, 1.0]))
        d = OutputShrink(base, 0.5)
        np.testing.assert_allclose(d(np.array([1.0, 3.0])), [1.0, 2.0])

    def test_strings_are_not_numbers(self):
        with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\], got '0.5'"):
            ShrinkageDenoiser("0.5", 2)
        with pytest.raises(ValueError, match="sigma must be positive and finite, got '0.2'"):
            MmseDenoiser(_single_gaussian(), "0.2")

    def test_noise_level_whose_square_overflows_is_rejected_by_value(self):
        with pytest.raises(ValueError, match=r"sigma must have a finite square, got 1e\+160"):
            MmseDenoiser(_single_gaussian(), 1e160)
        assert np.all(np.isfinite(MmseDenoiser(_single_gaussian(), 1e150)(np.ones(2))))

    def test_booleans_are_not_numbers(self):
        with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\], got True"):
            ShrinkageDenoiser(True, 2)
        with pytest.raises(ValueError, match="sigma must be positive and finite, got True"):
            MmseDenoiser(_single_gaussian(), True)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: MmseDenoiser(
                GmmPrior([0.5, 0.5], [[-1.0, 0.0, 1.0], [1.0, 2.0, 0.0]], [0.3, 0.6]), 0.4
            ),
            lambda: MmseDenoiser(_single_gaussian(3), 0.4),
            lambda: ShrinkageDenoiser(0.3, 3),
            lambda: AffineDenoiser(np.arange(9.0).reshape(3, 3) / 10.0, [1.0, -1.0, 0.5]),
            lambda: OutputShrink(ShrinkageDenoiser(0.5, 3), 0.9),
            lambda: tweedie_scale(ShrinkageDenoiser(0.5, 3), 2.0, gamma_rescale=True),
        ],
        ids=["mmse", "mmse-one-component", "shrinkage", "affine", "output-shrink", "scaled"],
    )
    def test_the_checked_call_is_the_unchecked_route(self, make):
        d = make()
        stack = np.random.default_rng(5).standard_normal((4, 3))
        np.testing.assert_array_equal(d(stack), d._apply(stack))
        np.testing.assert_array_equal(d(stack[1]), d._apply(stack[1:2])[0])
        np.testing.assert_array_equal(d(stack.tolist()), d._apply(stack))
        with pytest.raises(ValueError, match="expected signals of dim 3"):
            d(np.zeros((4, 2)))

    def test_a_subclass_defining_neither_method_is_not_implemented(self):
        class Bare(Denoiser):
            dim = 2

        with pytest.raises(NotImplementedError, match="Bare defines neither"):
            Bare()(np.zeros(2))
        with pytest.raises(NotImplementedError, match="Bare defines neither"):
            Bare()._apply(np.zeros((1, 2)))


def _random_prior(rng, k, n, offset=1.0):
    weights = rng.uniform(0.5, 1.5, k)
    return GmmPrior(weights / weights.sum(), offset * rng.standard_normal((k, n)), rng.uniform(0.05, 2.0, k))


def _longdouble_posterior_mean(prior, y, sigma):
    """``sum_k r_k (rho_k y + (1 - rho_k) mu_k)`` in long double, from the uncentred distances.

    ``log 2 pi``, the same for every component, drops out of the softmax and is left out.
    """
    ld = np.longdouble
    weights, means, variances = (np.asarray(a, dtype=ld) for a in (prior.weights, prior.means, prior.variances))
    y = np.asarray(y, dtype=ld)
    t = variances + ld(sigma) * ld(sigma)
    diff = y[:, None, :] - means[None, :, :]
    logs = np.log(weights) - 0.5 * prior.dim * np.log(t) - 0.5 * np.sum(diff * diff, axis=2) / t
    r = np.exp(logs - logs.max(axis=1, keepdims=True))
    r /= r.sum(axis=1, keepdims=True)
    rho = variances / t
    per_component = rho[:, None] * y[:, None, :] + (1 - rho)[:, None] * means
    return np.sum(r[:, :, None] * per_component, axis=1)


_HOT_PATH_DRAWS = dict(
    k=st.integers(1, 5),
    n=st.integers(1, 64),
    m=st.integers(1, 6),
    offset=st.sampled_from([0.0, 1.0, 30.0, 1e3]),
    sigma=st.floats(0.01, 3.0),
    seed=st.integers(0, 2**16),
)


class TestMmseHotPath:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(**_HOT_PATH_DRAWS)
    def test_bitwise_equal_to_the_prior_posterior_mean(self, k, n, m, offset, sigma, seed):
        rng = np.random.default_rng(seed)
        prior = _random_prior(rng, k, n, offset)
        d = MmseDenoiser(prior, sigma)
        ys = (offset + 1.0) * rng.standard_normal((m, n))
        want = prior.posterior_mean(ys, sigma)
        np.testing.assert_array_equal(d(ys), want)
        np.testing.assert_array_equal(d._apply(ys), want)
        half_sq = prior._half_sq_dists(ys)
        np.testing.assert_array_equal(d(ys, half_sq), want)
        np.testing.assert_array_equal(d._apply(ys, half_sq), want)
        single = d(ys[0])
        assert single.shape == (n,)
        np.testing.assert_array_equal(single, prior.posterior_mean(ys[0], sigma))
        np.testing.assert_array_equal(d(ys[0], prior._half_sq_dists(ys[:1])), single)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(**_HOT_PATH_DRAWS)
    def test_the_score_route_agrees_within_round_off(self, k, n, m, offset, sigma, seed):
        rng = np.random.default_rng(seed)
        prior = _random_prior(rng, k, n, offset)
        ys = (offset + 1.0) * rng.standard_normal((m, n))
        got = MmseDenoiser(prior, sigma)(ys)
        want = prior.mmse_denoise(ys, sigma)
        # Relative to the size of the score route's terms, y and sigma^2 times the score's two terms.
        t_min = float(np.min(prior.variances)) + sigma * sigma
        y_size = np.linalg.norm(ys, axis=1)
        score_size = (y_size + np.max(np.linalg.norm(prior.means, axis=1))) / t_min
        assert np.all(np.linalg.norm(got - want, axis=1) <= 1e-12 * (y_size + sigma * sigma * score_size))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(n=st.integers(1, 8), m=st.integers(1, 6), sigma=st.floats(0.01, 1e3), seed=st.integers(0, 2**16))
    def test_one_component_is_the_general_formula_on_unit_responsibilities(self, n, m, sigma, seed):
        rng = np.random.default_rng(seed)
        prior = _random_prior(rng, 1, n)
        ys = (1.0 + sigma) * rng.standard_normal((m, n))
        t, log_norm, rho, shrunk = prior._posterior_constants(sigma)
        r = np.ones((1, m))
        general = r.T @ shrunk + ys * (r * rho[:, None]).sum(axis=0)[:, None]
        np.testing.assert_array_equal(prior._posterior_mean(ys, t, log_norm, rho, shrunk), general)

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps, reason="long double is no wider than float64"
    )
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        k=st.integers(1, 4),
        n=st.integers(1, 6),
        m=st.integers(1, 4),
        log_sigma=st.floats(-3.0, 150.0),
        seed=st.integers(0, 2**16),
    )
    def test_accurate_against_a_long_double_reference(self, k, n, m, log_sigma, seed):
        """No cancellation when sigma^2 >> v: the error stays at round-off of the output and the means."""
        rng = np.random.default_rng(seed)
        prior = _random_prior(rng, k, n)
        sigma = 10.0**log_sigma
        ys = (1.0 + sigma) * rng.standard_normal((m, n))
        ref = _longdouble_posterior_mean(prior, ys, sigma)
        error = np.linalg.norm((MmseDenoiser(prior, sigma)(ys) - ref).astype(np.float64), axis=1)
        size = np.linalg.norm(ref.astype(np.float64), axis=1) + np.max(np.linalg.norm(prior.means, axis=1))
        assert np.all(error <= 1e-12 * size)

    @pytest.mark.parametrize("sigma", [0.0, -1.0, float("nan"), float("inf")])
    def test_sigma_must_be_positive_and_finite(self, sigma):
        with pytest.raises(ValueError, match="positive and finite"):
            MmseDenoiser(_single_gaussian(), sigma)


class TestTweedieScale:
    def test_delta_one_reproduces_base_exactly(self):
        prior = _single_gaussian()
        base = MmseDenoiser(prior, 0.5)
        y = np.array([1.7, -0.3])
        np.testing.assert_array_equal(tweedie_scale(base, 1.0)(y), base(y))

    @pytest.mark.parametrize(
        "delta, shown",
        [(1e-200, "1e-200"), (1e-160, "1e-160"), (1e160, "1e+160"), ([1.0, 1e200, 1e-200], "1e+200")],
    )
    @pytest.mark.parametrize("mode", ["tweedie", "homogeneous"])
    def test_scale_whose_square_leaves_the_doubles_is_rejected_by_value(self, delta, shown, mode):
        with pytest.raises(ValueError, match=f"inverse square, got {re.escape(shown)}$"):
            ScaledDenoiser(ShrinkageDenoiser(0.5, 2), delta, mode=mode, gamma_rescale=True)

    def test_shrinkage_substitution(self):
        # effective coefficient 1 - (1-alpha)/delta^2 = 0.75 at alpha=0.5, delta^2=2
        base = ShrinkageDenoiser(0.5, 1)
        sd = tweedie_scale(base, np.sqrt(2.0))
        np.testing.assert_allclose(sd(np.array([4.0])), [3.0], rtol=1e-14)

    def test_identity_base_fixed_for_every_delta(self):
        base = ShrinkageDenoiser(1.0, 3)
        y = np.array([0.4, -2.0, 5.0])
        for delta in (0.5, 1.0, 3.0, 100.0):
            np.testing.assert_allclose(tweedie_scale(base, delta)(y), y, atol=1e-15)

    def test_interpolation_identity_exact(self):
        """The wrapper is literally the identity/base interpolation."""
        prior = _single_gaussian(3)
        base = MmseDenoiser(prior, 0.3)
        rng = np.random.default_rng(2)
        for delta in (1.2, 2.0, 7.0):
            u = 1.0 / delta**2
            y = rng.standard_normal(3)
            np.testing.assert_array_equal(
                tweedie_scale(base, delta)(y), (1.0 - u) * y + u * base(y)
            )

    def test_residual_shrinks_exactly_with_delta_sq(self):
        prior = _single_gaussian(4)
        base = MmseDenoiser(prior, 0.5)
        rng = np.random.default_rng(8)
        y = rng.standard_normal(4)
        base_residual = np.linalg.norm(base(y) - y)
        eps = np.finfo(float).eps
        for delta in (1.5, 3.0, 20.0, 500.0):
            residual = np.linalg.norm(tweedie_scale(base, delta)(y) - y)
            # the interpolated output is O(|y|), so cancellation leaves an
            # absolute round-off floor of order eps * |y| * delta^2
            tol = 1e-12 * base_residual + 50 * eps * np.linalg.norm(y) * delta**2
            assert abs(residual * delta**2 - base_residual) <= tol

    def test_delta_validated(self):
        with pytest.raises(ValueError):
            tweedie_scale(ShrinkageDenoiser(0.5, 1), 0.0)


class TestPerRowScale:
    @pytest.mark.parametrize("mode", ["tweedie", "homogeneous"])
    @pytest.mark.parametrize("gamma", [False, True])
    def test_each_row_equals_its_scalar_wrapper(self, mode, gamma):
        prior = GmmPrior([0.5, 0.5], [[-1.0, 0.5, 0.0], [1.0, 0.0, 2.0]], [0.2, 0.4])
        base = MmseDenoiser(prior, 0.3)
        deltas = np.array([0.7, 1.0, 3.0, 40.0])
        ys = np.random.default_rng(5).standard_normal((deltas.size, 3))
        out = ScaledDenoiser(base, deltas, mode=mode, gamma_rescale=gamma)(ys)
        for row, delta in enumerate(deltas):
            want = ScaledDenoiser(base, delta, mode=mode, gamma_rescale=gamma)(ys[row])
            np.testing.assert_array_equal(out[row], want)

    def test_row_count_and_sign_checked(self):
        sd = ScaledDenoiser(ShrinkageDenoiser(0.5, 2), np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="2 rows"):
            sd(np.zeros((3, 2)))
        with pytest.raises(ValueError, match="2 rows"):
            sd(np.zeros(2))
        with pytest.raises(ValueError, match="positive"):
            ScaledDenoiser(ShrinkageDenoiser(0.5, 2), np.array([1.0, -2.0]))


class TestHomogeneousScale:
    def test_delta_one_reproduces_base(self):
        base = AffineDenoiser([[0.5]], [0.3])
        y = np.array([2.0])
        np.testing.assert_array_equal(homogeneous_scale(base, 1.0)(y), base(y))

    def test_noop_on_linear_bases(self):
        """Argument scaling cannot modulate a linear denoiser at all."""
        base = ShrinkageDenoiser(0.5, 1)
        y = np.array([4.0])
        outs = [homogeneous_scale(base, d)(y)[0] for d in np.geomspace(0.1, 1e4, 25)]
        assert max(abs(o - 2.0) for o in outs) <= 1e-12

    def test_affine_offset_is_divided(self):
        base = AffineDenoiser([[0.0]], [6.0])
        sd = homogeneous_scale(base, 2.0)
        np.testing.assert_allclose(sd(np.array([123.0])), [3.0])

    def test_delta_validated(self):
        with pytest.raises(ValueError):
            homogeneous_scale(ShrinkageDenoiser(0.5, 1), -1.0)


class TestGammaRescale:
    def test_disabled_matches_plain_scaling(self):
        base = ShrinkageDenoiser(0.7, 2)
        y = np.array([1.0, -2.0])
        plain = tweedie_scale(base, 2.0)
        off = ScaledDenoiser(base, 2.0, mode="tweedie", gamma_rescale=False)
        np.testing.assert_array_equal(off(y), plain(y))

    def test_delta_one_halves_identity_base(self):
        base = ShrinkageDenoiser(1.0, 1)
        sd = ScaledDenoiser(base, 1.0, mode="tweedie", gamma_rescale=True)
        np.testing.assert_allclose(sd(np.array([4.0])), [2.0], rtol=1e-15)

    def test_large_delta_limit_bound(self):
        prior = _single_gaussian(3)
        base = MmseDenoiser(prior, 0.5)
        sd = ScaledDenoiser(base, 1e3, mode="tweedie", gamma_rescale=True)
        rng = np.random.default_rng(5)
        for _ in range(20):
            y = 3.0 * rng.standard_normal(3)
            bound = 2e-6 * (1.0 + np.linalg.norm(y) + np.linalg.norm(base(y) - y))
            assert np.linalg.norm(sd(y) - y) <= bound

    def test_gamma_factor_value(self):
        assert gamma_factor(1.0) == pytest.approx(0.5)
        assert gamma_factor(3.0) == pytest.approx(9.0 / 10.0)


class TestLipschitz:
    def test_shrinkage_constant(self):
        rng = np.random.default_rng(0)
        pts = rng.standard_normal((20, 3))
        est = estimate_lipschitz(ShrinkageDenoiser(0.9, 3), pts)
        assert est == pytest.approx(0.9, abs=1e-12)

    def test_identity_is_one(self):
        rng = np.random.default_rng(1)
        est = estimate_lipschitz(ShrinkageDenoiser(1.0, 2), rng.standard_normal((10, 2)))
        assert est == pytest.approx(1.0, abs=1e-12)

    def test_mmse_single_gaussian_bounded_by_wiener_slope(self):
        prior = _single_gaussian(2, var=4.0)
        sigma = 1.0
        d = MmseDenoiser(prior, sigma)
        rng = np.random.default_rng(2)
        pts = rng.standard_normal((50, 2))
        est = estimate_lipschitz(d, pts)
        slope = 4.0 / (4.0 + sigma**2)
        assert est <= slope + 1e-9
        assert est == pytest.approx(slope, rel=1e-10)

    def test_points_whose_squared_distances_may_overflow_are_rejected(self):
        pts = np.random.default_rng(4).standard_normal((6, 2))
        for scale in (1e154, np.inf):
            with pytest.raises(ValueError, match="points reach .* squared pair distances overflow"):
                estimate_lipschitz(ShrinkageDenoiser(1.0, 2), scale * pts)
        affine = AffineDenoiser(np.eye(2), np.full(2, 1e160))
        with pytest.raises(ValueError, match="outputs reach 1e\\+160"):
            estimate_lipschitz(affine, pts)
        # within the bound the estimate is the exact slope, with no warning
        assert estimate_lipschitz(ShrinkageDenoiser(0.5, 2), 1e150 * pts) == pytest.approx(0.5, rel=1e-12)

    def test_affine_cross_check_against_spectral_norm(self):
        rng = np.random.default_rng(3)
        w = rng.standard_normal((4, 4))
        d = AffineDenoiser(w, rng.standard_normal(4))
        est = estimate_lipschitz(d, rng.standard_normal((30, 4)))
        exact = float(np.linalg.svd(w, compute_uv=False)[0])
        assert est <= exact + 1e-8

    def test_affine_cross_check_with_close_top_singular_values(self):
        d = AffineDenoiser(np.diag([1.0, 1.0 - 1e-6]), np.zeros(2))
        pts = np.random.default_rng(0).standard_normal((200, 2))
        est = estimate_lipschitz(d, pts)
        assert 1.0 - 1e-6 <= est <= 1.0 + 1e-12

    def test_duplicates_skipped(self):
        pts = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        est = estimate_lipschitz(ShrinkageDenoiser(0.5, 2), pts)
        assert est == pytest.approx(0.5, abs=1e-12)

    def test_all_duplicates_rejected(self):
        pts = np.array([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="no valid pair"):
            estimate_lipschitz(ShrinkageDenoiser(0.5, 2), pts)

    @pytest.mark.parametrize("m", [2, 5, 6, 7, 23])
    def test_blocked_pairs_equal_the_all_pairs_maximum(self, monkeypatch, m):
        import pnplab.denoisers

        # 36 floats per block: 3 rows of pairs at m = 6, n = 2.
        monkeypatch.setattr(pnplab.denoisers, "_PAIR_BLOCK_FLOATS", 36)
        d = MmseDenoiser(GmmPrior([0.5, 0.5], [[-1.0, 0.0], [1.0, 0.5]], [0.1, 0.3]), 0.2)
        pts = np.random.default_rng(m).standard_normal((m, 2))
        if m > 2:
            pts[-1] = pts[0]  # a duplicate pair, skipped
        out = d(pts)
        i, j = np.triu_indices(m, k=1)
        d_in = np.linalg.norm(pts[i] - pts[j], axis=1)
        d_out = np.linalg.norm(out[i] - out[j], axis=1)
        valid = d_in > 0
        want = float(np.max(d_out[valid] / d_in[valid]))
        assert estimate_lipschitz(d, pts) == pytest.approx(want, rel=1e-14)

    def test_blocks_bound_the_distance_arrays_when_components_outnumber_dims(self, monkeypatch):
        """With K > n the (K, rows) distances, not the (rows, n) cloud, size a block."""
        import pnplab.denoisers

        n, k, m = 2, 40, 500
        rng = np.random.default_rng(4)
        prior = GmmPrior(np.full(k, 1.0 / k), rng.uniform(-3.0, 3.0, (k, n)), np.full(k, 0.1))
        d = MmseDenoiser(prior, 0.3)
        pts = 2.0 * rng.standard_normal((m, n))
        # The old path: the whole cloud in one denoiser call.
        monkeypatch.setattr(pnplab.denoisers, "_PAIR_BLOCK_FLOATS", 1 << 40)
        whole = estimate_lipschitz(d, pts)

        monkeypatch.setattr(pnplab.denoisers, "_PAIR_BLOCK_FLOATS", 200)
        sizes = []
        half_sq_dists = GmmPrior._half_sq_dists

        def spied(self, points):
            out = half_sq_dists(self, points)
            sizes.append(out.size)
            return out

        monkeypatch.setattr(GmmPrior, "_half_sq_dists", spied)
        blocked = estimate_lipschitz(d, pts)
        assert sizes and max(sizes) <= 200
        assert sum(sizes) == k * m
        # The distances' gemm rounds by block size, so the rows agree to round-off.
        assert blocked == pytest.approx(whole, rel=1e-12)

    def test_nonexpansiveness_inherited_by_scaling(self):
        """If the base is non-expansive on a cloud, so is every scale >= 1."""
        prior = _single_gaussian(3)
        base = MmseDenoiser(prior, 0.4)
        rng = np.random.default_rng(4)
        pts = rng.standard_normal((40, 3))
        base_est = estimate_lipschitz(base, pts)
        assert base_est <= 1.0
        for delta in (1.0, 1.3, 2.0, 10.0):
            est = estimate_lipschitz(tweedie_scale(base, delta), pts)
            assert est <= 1.0 + 1e-9


class TestConfig:
    def test_exact_and_mismatched_mmse(self):
        prior = _single_gaussian()
        d = denoiser_from_config({"kind": "exact_mmse"}, prior=prior, sigma=0.2)
        assert isinstance(d, MmseDenoiser) and d.sigma == 0.2
        d2 = denoiser_from_config(
            {"kind": "mismatched_mmse", "sigma_train": 0.4}, prior=prior, sigma=0.2
        )
        assert d2.sigma == 0.4

    def test_shrinkage_and_affine(self):
        d = denoiser_from_config({"kind": "shrinkage", "alpha": 0.3, "dim": 5})
        assert isinstance(d, ShrinkageDenoiser)
        d2 = denoiser_from_config(
            {"kind": "affine", "matrix": [[1.0]], "offset": [0.5]}
        )
        assert isinstance(d2, AffineDenoiser)

    @pytest.mark.parametrize(
        "config, field",
        [
            ({"kind": "mismatched_mmse"}, "sigma_train"),
            ({"kind": "shrinkage"}, "alpha"),
            ({"kind": "affine", "offset": [0.0, 0.0]}, "matrix"),
            ({"kind": "affine", "matrix": np.eye(2).tolist()}, "offset"),
        ],
    )
    def test_a_missing_field_is_named(self, config, field):
        with pytest.raises(ValueError, match=f"denoiser config missing required field '{field}'"):
            denoiser_from_config(config, prior=_single_gaussian(), sigma=0.2)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown denoiser kind"):
            denoiser_from_config({"kind": "wavelet"})

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pnplab.analysis
from pnplab.analysis import (
    DegenerateDenoiserError,
    ResidualMoments,
    _delta_opt_of,
    _l2_on_samples,
    _moments_on_prior,
    delta_sweep,
    estimate_delta_opt,
    estimate_l2,
    verify_sandwich,
)
from pnplab.denoisers import (
    AffineDenoiser,
    Denoiser,
    MmseDenoiser,
    ShrinkageDenoiser,
    tweedie_scale,
)
from pnplab.prior import GmmPrior


def _single_gaussian(dim=4, var=1.0):
    return GmmPrior([1.0], [np.zeros(dim)], [var])


def _hetero_prior():
    """Three well-spread components with very different spreads.

    The variance heterogeneity is what keeps the residual-scaled family of an
    imperfect denoiser strictly away from the exact posterior mean, so the
    ordering checks have real margins.
    """
    rng = np.random.default_rng(3)
    return GmmPrior([0.3, 0.4, 0.3], rng.uniform(-1.5, 1.5, (3, 4)), [0.04, 1.0, 0.3])


class TestEstimateL2:
    def test_identity_denoiser_measures_noise_energy(self):
        prior = _single_gaussian(4)
        sigma = 0.1
        est = estimate_l2(ShrinkageDenoiser(1.0, 4), prior, sigma, 100000, 0)
        assert abs(est.value - 4 * sigma**2) <= 4 * est.stderr

    def test_exact_mmse_matches_wiener_loss(self):
        # n * s^2 sigma^2 / (s^2 + sigma^2) for a centred Gaussian prior
        prior = _single_gaussian(4, var=1.0)
        sigma = 0.5
        est = estimate_l2(MmseDenoiser(prior, sigma), prior, sigma, 100000, 1)
        oracle = 4 * 1.0 * sigma**2 / (1.0 + sigma**2)
        assert abs(est.value - oracle) <= 4 * est.stderr

    def test_perfect_knowledge_double_scores_zero(self):
        prior = _single_gaussian(3)
        clean, _ = prior.sample_pairs(0.2, 500, 9)
        est = estimate_l2(lambda y: clean, prior, 0.2, 500, 9)
        assert est.value == 0.0 and est.stderr == 0.0

    def test_seed_determinism_bitwise(self):
        prior = _hetero_prior()
        d = MmseDenoiser(prior, 0.1)
        a = estimate_l2(d, prior, 0.1, 5000, 77)
        b = estimate_l2(d, prior, 0.1, 5000, 77)
        assert (a.value, a.stderr) == (b.value, b.stderr)

    def test_sample_count_validated(self):
        with pytest.raises(ValueError):
            estimate_l2(ShrinkageDenoiser(1.0, 4), _single_gaussian(4), 0.1, 1, 0)


class TestEstimateDeltaOpt:
    def test_exact_mmse_gives_one(self):
        prior = _hetero_prior()
        est = estimate_delta_opt(MmseDenoiser(prior, 0.1), prior, 0.1, 100000, 7)
        assert abs(est.delta_opt_sq - 1.0) <= 4 * est.stderr_delta_opt_sq
        assert est.stderr_delta_opt_sq <= 0.01

    def test_shrinkage_matches_closed_form(self):
        # (1 - alpha)(s^2 + sigma^2) / sigma^2, by direct expectation algebra
        prior = _single_gaussian(4, var=1.0)
        for alpha, sigma in ((0.3, 0.1), (0.5, 0.3), (0.9, 0.1)):
            est = estimate_delta_opt(ShrinkageDenoiser(alpha, 4), prior, sigma, 100000, 11)
            oracle = (1 - alpha) * (1.0 + sigma**2) / sigma**2
            assert abs(est.delta_opt_sq - oracle) <= 4 * est.stderr_delta_opt_sq

    def test_ratio_is_exactly_minus_num_over_den(self):
        prior = _hetero_prior()
        est = estimate_delta_opt(ShrinkageDenoiser(0.5, 4), prior, 0.1, 1000, 3)
        assert est.delta_opt_sq == -est.numerator / est.denominator
        assert est.numerator >= 0.0
        assert not est.nonnegative_denominator

    def test_identity_is_degenerate(self):
        prior = _single_gaussian(4)
        with pytest.raises(DegenerateDenoiserError):
            estimate_delta_opt(ShrinkageDenoiser(1.0, 4), prior, 0.1, 1000, 0)

    def test_expanding_denoiser_flagged_not_rejected(self):
        prior = _single_gaussian(2)
        inflate = AffineDenoiser(1.5 * np.eye(2), np.zeros(2))
        est = estimate_delta_opt(inflate, prior, 0.1, 5000, 1)
        assert est.nonnegative_denominator
        assert est.delta_opt_sq < 0.0

    def test_quality_ordering_of_mismatched_family(self):
        """Worse-trained denoisers need a strictly larger optimal scale."""
        prior = _single_gaussian(4, var=1.0)
        sigma = 0.1
        ests = [
            estimate_delta_opt(MmseDenoiser(prior, r * sigma), prior, sigma, 100000, 13)
            for r in (1.0, 1.5, 2.0, 3.0)
        ]
        for a, b in zip(ests, ests[1:]):
            gap = b.delta_opt_sq - a.delta_opt_sq
            assert gap >= 3 * np.hypot(a.stderr_delta_opt_sq, b.stderr_delta_opt_sq)
        for est in ests:
            assert est.delta_opt_sq >= 1.0 - 4 * est.stderr_delta_opt_sq


class TestSandwich:
    def test_exact_mmse_collapses_to_equalities(self):
        prior = _hetero_prior()
        rep = verify_sandwich(MmseDenoiser(prior, 0.1), prior, 0.1, 100000, 42)
        assert rep.passed
        assert abs(rep.margin_lower) <= 3 * rep.combined_stderr_lower
        assert abs(rep.margin_upper) <= 3 * rep.combined_stderr_upper

    def test_shrinkage_strict_ordering(self):
        prior = _hetero_prior()
        rep = verify_sandwich(ShrinkageDenoiser(0.3, 4), prior, 0.3, 100000, 42)
        assert rep.passed
        assert rep.margin_lower >= 3 * rep.combined_stderr_lower
        assert rep.margin_upper >= 3 * rep.combined_stderr_upper

    def test_mismatched_mmse_passes(self):
        prior = _hetero_prior()
        sigma = 0.3
        rep = verify_sandwich(MmseDenoiser(prior, 2 * sigma), prior, sigma, 100000, 42)
        assert rep.passed

    @pytest.mark.parametrize("ratio", [0.5, 2.0])
    def test_moment_losses_match_direct_evaluation(self, ratio):
        prior = _hetero_prior()
        sigma, samples, seed = 0.2, 5000, 8
        base = MmseDenoiser(prior, ratio * sigma)
        rep = verify_sandwich(base, prior, sigma, samples, seed)
        clean, noisy = prior.sample_pairs(sigma, samples, seed)
        scaled = tweedie_scale(base, rep.delta_opt.delta_opt)
        for got, want in (
            (rep.l2_scaled, _l2_on_samples(scaled, clean, noisy, seed)),
            (rep.l2_base, _l2_on_samples(base, clean, noisy, seed)),
            (rep.l2_mmse, _l2_on_samples(MmseDenoiser(prior, sigma), clean, noisy, seed)),
        ):
            assert abs(got.value - want.value) <= 1e-12 * want.value
            assert abs(got.stderr - want.stderr) <= 1e-12 * want.stderr

    def test_two_denoiser_passes(self, monkeypatch):
        prior = _hetero_prior()
        seen = {"base": [], "mmse": []}

        class Counting(Denoiser):
            def __init__(self, inner, log):
                self.inner, self.log, self.dim = inner, log, inner.dim

            def __call__(self, y):
                self.log.append(np.array(y))
                return self.inner(y)

        monkeypatch.setattr(
            pnplab.analysis,
            "MmseDenoiser",
            lambda p, s: Counting(MmseDenoiser(p, s), seen["mmse"]),
        )
        base = Counting(ShrinkageDenoiser(0.6, 4), seen["base"])
        verify_sandwich(base, prior, 0.3, 1000, 4)
        _, noisy = prior.sample_pairs(0.3, 1000, 4)
        for log in seen.values():
            np.testing.assert_array_equal(np.concatenate(log), noisy)

    def test_degenerate_propagates(self):
        prior = _single_gaussian(4)
        with pytest.raises(DegenerateDenoiserError):
            verify_sandwich(ShrinkageDenoiser(1.0, 4), prior, 0.1, 1000, 0)

    def test_expanding_denoiser_has_no_optimal_scale(self):
        prior = _single_gaussian(2)
        inflate = AffineDenoiser(1.5 * np.eye(2), np.zeros(2))
        with pytest.raises(DegenerateDenoiserError, match="no positive optimal scale"):
            verify_sandwich(inflate, prior, 0.1, 5000, 1)


class TestDeltaSweep:
    def test_exact_mmse_argmin_at_grid_point_nearest_one(self):
        prior = _hetero_prior()
        grid = list(np.geomspace(0.5, 8.0, 25))
        sweep = delta_sweep(MmseDenoiser(prior, 0.1), prior, 0.1, grid, 20000, 5)
        best = min(sweep, key=lambda t: t[1].value)[0]
        nearest = min(grid, key=lambda d: abs(d - 1.0))
        assert best == nearest

    def test_shrinkage_argmin_near_closed_form(self):
        prior = _single_gaussian(4, var=1.0)
        sigma = 0.1
        # closed form: delta_opt^2 = 0.5 * 1.01 / 0.01 = 50.5
        grid = list(np.geomspace(2.0, 25.0, 33))
        sweep = delta_sweep(ShrinkageDenoiser(0.5, 4), prior, sigma, grid, 50000, 5)
        best = min(sweep, key=lambda t: t[1].value)[0]
        opt = estimate_delta_opt(ShrinkageDenoiser(0.5, 4), prior, sigma, 50000, 5)
        step = grid[1] / grid[0]
        assert best / opt.delta_opt <= step and opt.delta_opt / best <= step

    def test_loss_is_exact_parabola_in_inverse_square_scale(self):
        """On a fixed sample set the swept loss is a quadratic in u = 1/delta^2."""
        prior = _hetero_prior()
        sigma = 0.1
        d = MmseDenoiser(prior, 2 * sigma)
        samples, seed = 5000, 17
        grid = list(np.geomspace(0.8, 10.0, 12))
        sweep = delta_sweep(d, prior, sigma, grid, samples, seed)
        clean, noisy = prior.sample_pairs(sigma, samples, seed)
        residual = d(noisy) - noisy
        noise = noisy - clean
        a = float(np.mean(np.sum(noise * noise, axis=1)))
        b = float(np.mean(2.0 * np.sum(noise * residual, axis=1)))
        c = float(np.mean(np.sum(residual * residual, axis=1)))
        for delta, est in sweep:
            u = 1.0 / delta**2
            predicted = a + b * u + c * u * u
            assert abs(predicted - est.value) <= 1e-10 * (1.0 + abs(est.value))
        # the parabola minimiser is the same ratio the moment estimator returns
        opt = estimate_delta_opt(d, prior, sigma, samples, seed)
        u_star = -b / (2.0 * c)
        assert abs(u_star * opt.delta_opt_sq - 1.0) <= 1e-10

    def test_curve_convex_in_u_on_common_samples(self):
        prior = _hetero_prior()
        d = MmseDenoiser(prior, 0.2)
        u_grid = np.linspace(0.05, 1.2, 15)
        grid = list(1.0 / np.sqrt(u_grid))
        sweep = delta_sweep(d, prior, 0.1, grid, 5000, 29)
        values = np.array([est.value for _, est in sweep])
        second = values[2:] - 2 * values[1:-1] + values[:-2]
        assert np.all(second >= -1e-10)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            delta_sweep(ShrinkageDenoiser(0.5, 4), _single_gaussian(4), 0.1, [], 100, 0)


def test_mmse_is_optimal_in_the_zoo():
    """No zoo member beats the posterior mean on a shared sample set."""
    prior = _hetero_prior()
    sigma = 0.2
    mmse = MmseDenoiser(prior, sigma)
    ref = estimate_l2(mmse, prior, sigma, 100000, 31)
    rng = np.random.default_rng(0)
    w = rng.standard_normal((4, 4))
    w *= 0.8 / np.linalg.svd(w, compute_uv=False)[0]
    from pnplab.denoisers import AffineDenoiser

    others = [
        ShrinkageDenoiser(0.5, 4),
        ShrinkageDenoiser(0.95, 4),
        MmseDenoiser(prior, 2 * sigma),
        MmseDenoiser(prior, 0.5 * sigma),
        AffineDenoiser(w, rng.standard_normal(4)),
    ]
    for d in others:
        est = estimate_l2(d, prior, sigma, 100000, 31)
        assert ref.value <= est.value + 3 * np.hypot(ref.stderr, est.stderr)


class TestResidualMoments:
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        grid=st.lists(st.floats(0.2, 50.0), min_size=1, max_size=12),
        ratio=st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]),
        seed=st.integers(0, 2**16),
    )
    def test_one_pass_sweep_matches_direct_scaling(self, grid, ratio, seed):
        prior = _hetero_prior()
        sigma = 0.1
        d = MmseDenoiser(prior, ratio * sigma)
        sweep = delta_sweep(d, prior, sigma, grid, 2000, seed)
        clean, noisy = prior.sample_pairs(sigma, 2000, seed)
        for (delta, est), want_delta in zip(sweep, grid):
            assert delta == want_delta
            want = _l2_on_samples(tweedie_scale(d, delta), clean, noisy, seed)
            assert abs(est.value - want.value) <= 1e-12 * want.value
            assert abs(est.stderr - want.stderr) <= 1e-12 * want.stderr

    def test_delta_opt_minimises_the_directly_evaluated_loss(self):
        prior = _hetero_prior()
        d = MmseDenoiser(prior, 0.2)
        clean, noisy = prior.sample_pairs(0.1, 5000, 3)
        best = ResidualMoments.from_samples(d, clean, noisy, 3).delta_opt().delta_opt
        at_best = _l2_on_samples(tweedie_scale(d, best), clean, noisy, 3).value
        for factor in (0.9, 0.99, 1.01, 1.1):
            near = _l2_on_samples(tweedie_scale(d, factor * best), clean, noisy, 3).value
            assert at_best < near

    DELTAS = [0.2, 0.5, 0.9, 1.0, 1.1, 2.0, 5.0, 20.0, 50.0]
    BASES = pytest.mark.parametrize(
        "make",
        [
            lambda p, s: MmseDenoiser(p, s),
            lambda p, s: MmseDenoiser(p, 3 * s),
            lambda p, s: ShrinkageDenoiser(0.5, p.dim),
        ],
        ids=["exact-mmse", "mismatched-mmse", "shrinkage"],
    )

    @staticmethod
    def _tight_pass(make):
        """A pass over a two-component prior of variance 1e-6 at sigma 0.1.

        The exact MMSE denoiser's error there is far below the noise, which is
        where a closed form in the noise basis loses relative accuracy.
        """
        prior = GmmPrior([0.4, 0.6], [[-1.0, 0.5, 0.0], [1.0, -0.5, 2.0]], [1e-6, 1e-6])
        sigma, m, seed = 0.1, 4000, 21
        d = make(prior, sigma)
        clean, noisy = prior.sample_pairs(sigma, m, seed)
        return d, clean, noisy, ResidualMoments.from_samples(d, clean, noisy, seed)

    @BASES
    def test_closed_form_losses_match_per_sample_evaluation(self, make):
        d, clean, noisy, moments = self._tight_pass(make)
        sweep = moments.sweep(self.DELTAS)
        for i, delta in enumerate(self.DELTAS):
            want = _l2_on_samples(tweedie_scale(d, delta), clean, noisy, moments.seed)
            got = moments.l2(delta)
            assert sweep[i] == (delta, got)
            assert abs(got.value - want.value) <= 1e-12 * want.value
            assert abs(got.stderr - want.stderr) <= 1e-12 * want.stderr

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
        reason="the oracle needs a long double wider than float64",
    )
    @BASES
    def test_closed_form_delta_opt_matches_per_sample_oracle(self, make):
        # The per-sample noise-basis oracle cancels to 6e-12 in float64 on the
        # near-perfect case, so it runs in extended precision.
        d, clean, noisy, moments = self._tight_pass(make)
        out, y, x = (v.astype(np.longdouble) for v in (d(noisy), noisy, clean))
        rr = np.sum((out - y) ** 2, axis=1)
        er = np.sum((y - x) * (out - y), axis=1)
        got, want = moments.delta_opt(), _delta_opt_of(rr, er, moments.seed)
        for name in ("numerator", "denominator", "delta_opt_sq", "stderr_delta_opt_sq"):
            a, b = getattr(got, name), getattr(want, name)
            assert abs(a - b) <= 1e-12 * abs(b), name

    def test_a_denoiser_returning_its_input_leaves_the_samples_alone(self):
        prior = _single_gaussian(4)
        clean, noisy = prior.sample_pairs(0.1, 10, 0)
        kept = noisy.copy()
        moments = ResidualMoments.from_samples(lambda y: y, clean, noisy, 0)
        np.testing.assert_array_equal(noisy, kept)
        assert np.all(moments.rr == 0.0)
        np.testing.assert_allclose(moments.aa, np.sum((noisy - clean) ** 2, axis=1), rtol=1e-15)

    def test_a_denoiser_keeping_its_output_finds_it_unchanged(self):
        prior = _single_gaussian(4)
        clean, noisy = prior.sample_pairs(0.1, 10, 0)
        held = np.full_like(noisy, 0.5)
        kept = held.copy()
        moments = ResidualMoments.from_samples(lambda y: held, clean, noisy, 0)
        estimate_l2(lambda y: held, prior, 0.1, 10, 0)
        np.testing.assert_array_equal(held, kept)
        np.testing.assert_allclose(moments.rr, np.sum((held - noisy) ** 2, axis=1), rtol=1e-15)

    def test_invalid_grid_and_sample_count_rejected(self):
        prior = _single_gaussian(4)
        clean, noisy = prior.sample_pairs(0.1, 10, 0)
        moments = ResidualMoments.from_samples(ShrinkageDenoiser(0.5, 4), clean, noisy, 0)
        with pytest.raises(ValueError):
            moments.sweep([1.0, 0.0])
        with pytest.raises(ValueError):
            ResidualMoments.from_samples(ShrinkageDenoiser(0.5, 4), clean[:1], noisy[:1], 0)


class TestRowBlocks:
    DIM = 4
    BLOCK_ROWS = 8

    @pytest.mark.parametrize("m", [2, 7, 8, 9, 17])
    def test_blocked_pass_equals_one_pass(self, monkeypatch, m):
        prior = _hetero_prior()
        d = MmseDenoiser(prior, 0.2)
        clean, noisy = prior.sample_pairs(0.1, m, m)
        whole = ResidualMoments.from_samples(d, clean, noisy, m)
        whole_l2 = _l2_on_samples(d, clean, noisy, m)
        monkeypatch.setattr(pnplab.analysis, "_BLOCK_FLOATS", self.BLOCK_ROWS * self.DIM)
        calls = []

        def counted(y):
            calls.append(len(y))
            return d(y)

        blocked = ResidualMoments.from_samples(counted, clean, noisy, m)
        assert calls == [min(self.BLOCK_ROWS, m - s) for s in range(0, m, self.BLOCK_ROWS)]
        blocked_l2 = _l2_on_samples(counted, clean, noisy, m)
        for name in ("aa", "ar", "rr"):
            want = getattr(whole, name)
            np.testing.assert_allclose(getattr(blocked, name), want, rtol=1e-12, atol=0)
        assert abs(blocked_l2.value - whole_l2.value) <= 1e-12 * whole_l2.value
        assert abs(blocked_l2.stderr - whole_l2.stderr) <= 1e-12 * whole_l2.stderr


class TestOnePass:
    BLOCK_ROWS = 7

    @pytest.mark.parametrize("samples", [2, 7, 50, 301])
    def test_multi_denoiser_pass_equals_per_denoiser_passes(self, monkeypatch, samples):
        prior = _hetero_prior()
        other = _hetero_prior()  # equal, but not the same object: no shared distances
        sigma, seed = 0.1, samples
        rng = np.random.default_rng(1)
        mmse = [MmseDenoiser(prior, r * sigma) for r in (0.5, 1.0, 3.0)] + [MmseDenoiser(other, sigma)]
        plain = [
            ShrinkageDenoiser(0.5, 4),
            AffineDenoiser(0.3 * rng.standard_normal((4, 4)), rng.standard_normal(4)),
            tweedie_scale(mmse[0], 2.0),
            MmseDenoiser(_single_gaussian(4), sigma),
            lambda y: y,
        ]
        monkeypatch.setattr(pnplab.analysis, "_BLOCK_FLOATS", self.BLOCK_ROWS * 4)
        formed = []
        half_sq_dists = GmmPrior._half_sq_dists

        def counted(self, points):
            formed.append(len(points))
            return half_sq_dists(self, points)

        monkeypatch.setattr(GmmPrior, "_half_sq_dists", counted)
        passes = _moments_on_prior(mmse + plain, prior, sigma, samples, seed)
        blocks = [min(self.BLOCK_ROWS, samples - s) for s in range(0, samples, self.BLOCK_ROWS)]
        # Once per block for each of the two priors, and once inside the scaled wrapper.
        assert formed == [rows for rows in blocks for _ in range(3)]

        clean, noisy = prior.sample_pairs(sigma, samples, seed)
        for d, got in zip(mmse + plain, passes):
            want = ResidualMoments.from_samples(d, clean, noisy, seed)
            for name in ("aa", "ar", "rr"):
                a, b = getattr(got, name), getattr(want, name)
                if isinstance(d, MmseDenoiser):
                    np.testing.assert_allclose(a, b, rtol=1e-12, atol=0)
                else:
                    np.testing.assert_array_equal(a, b)

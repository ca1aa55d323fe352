import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pnplab.denoisers import (
    _BLOCK_FLOATS,
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
        for alpha in (0.0, 1.5, float("nan")):
            with pytest.raises(ValueError, match=re.escape(f"'alpha' must lie in (0, 1], got {alpha!r}")):
                OutputShrink(ShrinkageDenoiser(0.5, 2), alpha)

    def test_output_shrink_composes(self):
        base = AffineDenoiser(np.eye(2), np.array([1.0, 1.0]))
        d = OutputShrink(base, 0.5)
        np.testing.assert_allclose(d(np.array([1.0, 3.0])), [1.0, 2.0])

    def test_strings_are_not_numbers(self):
        with pytest.raises(ValueError, match="'alpha' must be a number, got '0.5'"):
            ShrinkageDenoiser("0.5", 2)
        with pytest.raises(ValueError, match="'alpha' must be a number, got '0.5'"):
            OutputShrink(ShrinkageDenoiser(0.5, 2), "0.5")
        with pytest.raises(ValueError, match="'dim' must be a nonnegative integer, got '2'"):
            ShrinkageDenoiser(0.5, "2")
        with pytest.raises(ValueError, match="'sigma' must be a number, got '0.2'"):
            MmseDenoiser(_single_gaussian(), "0.2")

    @pytest.mark.parametrize(
        "dim, rule",
        [(0, "be positive and finite"), (-1, "be a nonnegative integer")]
        + [(2.0, "be a nonnegative integer"), (2.5, "be a nonnegative integer")],
        ids=["0", "-1", "2.0", "2.5"],
    )
    def test_dim_must_be_a_positive_integer(self, dim, rule):
        with pytest.raises(ValueError, match=re.escape(f"'dim' must {rule}, got {dim!r}")):
            ShrinkageDenoiser(0.5, dim)
        assert ShrinkageDenoiser(0.5, np.int64(3)).dim == 3

    def test_noise_level_whose_square_overflows_is_rejected_by_value(self):
        with pytest.raises(ValueError, match=r"sigma must have a finite square, got 1e\+160"):
            MmseDenoiser(_single_gaussian(), 1e160)
        assert np.all(np.isfinite(MmseDenoiser(_single_gaussian(), 1e150)(np.ones(2))))

    def test_booleans_are_not_numbers(self):
        with pytest.raises(ValueError, match="'alpha' must be a number, got True"):
            ShrinkageDenoiser(True, 2)
        with pytest.raises(ValueError, match="'alpha' must be a number, got True"):
            OutputShrink(ShrinkageDenoiser(0.5, 2), True)
        with pytest.raises(ValueError, match="'dim' must be a nonnegative integer, got True"):
            ShrinkageDenoiser(0.5, True)
        with pytest.raises(ValueError, match="'sigma' must be a number, got True"):
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
        # The checked call takes the points only; shared distances go to the unchecked route by name.
        np.testing.assert_array_equal(d._apply(ys, half_sq=half_sq), want)
        np.testing.assert_array_equal(d._apply(ys, half_sq), want)
        single = d(ys[0])
        assert single.shape == (n,)
        np.testing.assert_array_equal(single, prior.posterior_mean(ys[0], sigma))
        np.testing.assert_array_equal(d._apply(ys[:1], half_sq=prior._half_sq_dists(ys[:1]))[0], single)

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
    def test_the_checked_call_takes_the_points_only(self):
        """A second positional argument is an error, not a buffer the result is written into."""
        buf = np.zeros((2, 3))
        with pytest.raises(TypeError):
            tweedie_scale(ShrinkageDenoiser(0.5, 3), 2.0)(np.ones((2, 3)), buf)
        assert not buf.any()

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
        """Over any base the wrapper is literally the identity/base interpolation, an
        elementwise-affine one included: only the batched solve folds it
        (``TestFoldedAffineChains``)."""
        prior = GmmPrior([0.5, 0.5], [[-1.0, 0.5, 0.0], [1.0, 0.0, 2.0]], [0.2, 0.4])
        one = GmmPrior([1.0], [[-1.0, 0.5, 2.0]], [0.3])
        bases = [
            MmseDenoiser(prior, 0.3),
            MmseDenoiser(one, 0.3),
            ShrinkageDenoiser(0.6, 3),
            OutputShrink(MmseDenoiser(one, 0.3), 0.9),
        ]
        rng = np.random.default_rng(2)
        for base in bases:
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
        one = GmmPrior([1.0], [[-1.0, 0.5, 2.0]], [0.3])
        # A mixture has no pair; the rest have one, which only the batched solve folds.
        bases = [
            MmseDenoiser(prior, 0.3),
            MmseDenoiser(one, 0.3),
            ShrinkageDenoiser(0.6, 3),
            OutputShrink(MmseDenoiser(one, 0.3), 0.9),
            OutputShrink(ShrinkageDenoiser(0.6, 3), 0.9),
            ScaledDenoiser(MmseDenoiser(one, 0.3), 1.4, mode=mode, gamma_rescale=gamma),
        ]
        deltas = np.array([0.7, 1.0, 3.0, 40.0])
        ys = np.random.default_rng(5).standard_normal((deltas.size, 3))
        for base in bases:
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

    @pytest.mark.parametrize(
        "delta, message",
        [
            ([[1.0, 2.0]], "delta must be a nonempty 1-D array of numbers, got shape (1, 2)"),
            ([], "delta must be a nonempty 1-D array of numbers, got shape (0,)"),
            ([[1.0, 2.0], [3.0]], "delta must hold only numbers, got [1.0, 2.0]"),
            (np.array(2.0), "delta must be a nonempty 1-D array of numbers, got shape ()"),
            ((1.0, True), "delta must hold only numbers, got True"),
        ],
        ids=["2-D", "empty", "ragged", "0-d array", "boolean"],
    )
    def test_a_list_tuple_or_array_of_scales_is_read_as_a_vector(self, delta, message):
        with pytest.raises(ValueError) as info:
            ScaledDenoiser(ShrinkageDenoiser(0.5, 2), delta)
        assert str(info.value) == message


def _unfolded(d, y):
    """``d`` on the (m, n) stack ``y`` through the wrappers' formulas, never a folded pair."""
    if isinstance(d, ShrinkageDenoiser):
        return d.alpha * y
    if isinstance(d, OutputShrink):
        return d.alpha * _unfolded(d.base, y)
    if not isinstance(d, ScaledDenoiser):
        return d._apply(y)
    scale = d.delta if np.ndim(d.delta) == 0 else d.delta[:, None]
    if d.mode == "tweedie":
        u = 1.0 / (scale * scale)
        out = (1.0 - u) * y + u * _unfolded(d.base, y)
    else:
        out = _unfolded(d.base, scale * y) / scale
    return gamma_factor(scale) * out if d.gamma_rescale else out


def _term_size(d, y):
    """Elementwise sum of the magnitudes of the terms ``_unfolded`` adds, at every level of ``d``."""
    if isinstance(d, ShrinkageDenoiser):
        return np.abs(d.alpha * y)
    if isinstance(d, OutputShrink):
        return d.alpha * _term_size(d.base, y)
    if isinstance(d, ScaledDenoiser):
        scale = d.delta if np.ndim(d.delta) == 0 else d.delta[:, None]
        if d.mode == "tweedie":
            u = 1.0 / (scale * scale)
            size = np.abs((1.0 - u) * y) + u * _term_size(d.base, y)
        else:
            size = _term_size(d.base, scale * y) / scale
        return gamma_factor(scale) * size if d.gamma_rescale else size
    # One Gaussian's two terms; a base that does not fold runs bitwise as in _unfolded.
    pair = d._diagonal()
    return np.abs(d._apply(y)) if pair is None else np.abs(pair[0] * y) + np.abs(pair[1])


def _mixture_mmse(prior, rng):
    """A 2- or 3-component mixture denoiser around ``prior``'s mean, spread as far as it."""
    k = int(rng.integers(2, 4))
    spread = 1.0 + np.abs(prior.means[0]).max()
    means = prior.means + spread * rng.standard_normal((k, prior.dim))
    return MmseDenoiser(GmmPrior(np.full(k, 1.0 / k), means, rng.uniform(0.05, 2.0, k)), 0.4)


def _affine(prior, rng):
    """An affine denoiser with a random matrix and an offset as large as ``prior``'s mean."""
    n = prior.dim
    return AffineDenoiser(rng.standard_normal((n, n)) / np.sqrt(n), prior.means[0] + rng.standard_normal(n))


# Bases of a scaling wrapper, each built from a one-Gaussian prior and a generator.
# The first seven, _FOLDING, are elementwise affine, so the wrapper folds; the rest do not.
_CHAINS = {
    "mmse": lambda prior, rng: MmseDenoiser(prior, 0.4),
    "shrinkage": lambda prior, rng: ShrinkageDenoiser(0.7, prior.dim),
    "output-shrink-mmse": lambda prior, rng: OutputShrink(MmseDenoiser(prior, 0.4), 0.999),
    "output-shrink-shrinkage": lambda prior, rng: OutputShrink(ShrinkageDenoiser(0.7, prior.dim), 0.5),
    "nested-mmse": lambda prior, rng: ScaledDenoiser(MmseDenoiser(prior, 0.4), 1.09, gamma_rescale=True),
    "nested-shrinkage": lambda prior, rng: ScaledDenoiser(ShrinkageDenoiser(0.7, prior.dim), 2.5, mode="homogeneous"),
    "nested-output-shrink": lambda prior, rng: ScaledDenoiser(OutputShrink(MmseDenoiser(prior, 0.4), 0.9), 0.8),
    "mixture": _mixture_mmse,
    "affine": _affine,
    "output-shrink-mixture": lambda prior, rng: OutputShrink(_mixture_mmse(prior, rng), 0.9),
    "output-shrink-affine": lambda prior, rng: OutputShrink(_affine(prior, rng), 0.95),
}
_FOLDING = {
    "mmse",
    "shrinkage",
    "output-shrink-mmse",
    "output-shrink-shrinkage",
    "nested-mmse",
    "nested-shrinkage",
    "nested-output-shrink",
}


class TestFoldedAffineChains:
    """A scaled elementwise-affine chain has a pair ``(coef, off)``, the map as one multiply-add,
    at any row count; the map and its pair equal the formulas to round-off, and only tweedie
    mode without the rescale is the formula bitwise
    (``TestTweedieScale.test_interpolation_identity_exact``)."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        chain=st.sampled_from(sorted(_CHAINS)),
        mode=st.sampled_from(ScaledDenoiser.MODES),
        gamma=st.booleans(),
        per_row=st.booleans(),
        n=st.integers(1, 8),
        m=st.integers(1, 5),
        log_delta=st.floats(-1.5, 2.0),
        offset=st.sampled_from([0.0, 1.0, 30.0, 1e3]),
        seed=st.integers(0, 2**16),
    )
    def test_equals_the_unfolded_formula(self, chain, mode, gamma, per_row, n, m, log_delta, offset, seed):
        rng = np.random.default_rng(seed)
        prior = GmmPrior([1.0], offset * rng.standard_normal((1, n)), [rng.uniform(0.05, 2.0)])
        base = _CHAINS[chain](prior, rng)
        delta = 10.0 ** (log_delta + rng.uniform(-0.5, 0.5, m)) if per_row else 10.0**log_delta
        d = ScaledDenoiser(base, delta, mode=mode, gamma_rescale=gamma)
        pair = d._diagonal()
        assert (pair is not None) == (base._diagonal() is not None) == (chain in _FOLDING)
        ys = (offset + 1.0) * rng.standard_normal((m, n))
        got = d(ys)
        want = _unfolded(d, ys)
        tol = 8 * np.finfo(float).eps * _term_size(d, ys)
        assert np.all(np.abs(got - want) <= tol)
        if pair is not None:
            coef, off = pair
            assert np.all(np.abs(coef * ys + off - want) <= tol)
        out = np.empty_like(ys)
        assert d._apply(ys, out=out) is out
        np.testing.assert_array_equal(out, got)
        # The base term is formed before the result is written, so the output may overwrite the input.
        alias = ys.copy()
        d._apply(alias, out=alias)
        np.testing.assert_array_equal(alias, got)

    def test_bases_that_are_not_elementwise_affine_do_not_fold(self):
        mixture = GmmPrior([0.5, 0.5], [[-1.0, 0.5], [1.0, 0.0]], [0.2, 0.4])
        affine = AffineDenoiser([[0.5, 0.1], [0.0, 0.5]], [1.0, 0.0])
        for base in (MmseDenoiser(mixture, 0.3), affine, OutputShrink(affine, 0.9)):
            assert base._diagonal() is None
            assert ScaledDenoiser(base, 2.0)._diagonal() is None

    def test_a_map_over_a_per_row_scale_folds_row_by_row(self):
        """A scale per row folds into two (m, n) stacks, and so does a map over it: row i of
        the pair is bitwise the pair of the same chain at row i's one scale."""
        deltas = [1.0, 2.0, 5.0]
        per_row = ScaledDenoiser(ShrinkageDenoiser(0.5, 2), deltas, gamma_rescale=True)
        def one_scale(s):
            return ScaledDenoiser(ShrinkageDenoiser(0.5, 2), s, gamma_rescale=True)

        def over(d):
            return ScaledDenoiser(OutputShrink(d, 0.9), 2.0, mode="homogeneous")

        for chain, at in [(per_row, one_scale), (over(per_row), lambda s: over(one_scale(s)))]:
            coef, off = chain._diagonal()
            assert np.shape(coef) == (3, 2)
            for i, delta in enumerate(deltas):
                one_coef, one_off = at(delta)._diagonal()
                np.testing.assert_array_equal(coef[i], np.broadcast_to(one_coef, (2,)))
                np.testing.assert_array_equal(np.broadcast_to(off, (3, 2))[i], np.broadcast_to(one_off, (2,)))

    def test_a_per_row_scale_holds_two_contiguous_read_only_stacks(self):
        """Its ``keep`` and ``weight`` are (m, n) stacks whatever the base; no pair is kept,
        and the one :meth:`_diagonal` forms is two (m, n) stacks."""
        d = ScaledDenoiser(MmseDenoiser(_single_gaussian(3), 0.3), [1.0, 2.0, 4.0, 8.0], gamma_rescale=True)
        for stack in (d._keep, d._weight):
            assert stack.shape == (4, 3) and stack.flags.c_contiguous and not stack.flags.writeable
        assert d._inner is None and not hasattr(d, "_pair")
        assert [np.shape(stack) for stack in d._diagonal()] == [(4, 3), (4, 3)]


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

    def test_affine_cross_check_allows_the_rounding_of_outputs_far_from_the_origin(self):
        """Points at 1e6, 1e-6 apart: each output rounds by about 1e-10, a 1e-4 share of the
        output differences, which the check allows over the closest pair's distance."""
        pts = 1e6 + 1e-6 * np.random.default_rng(0).standard_normal((50, 4))
        est = estimate_lipschitz(AffineDenoiser(0.9 * np.eye(4), np.zeros(4)), pts)
        assert est == pytest.approx(0.9, rel=1e-3)

    @pytest.mark.parametrize("near_duplicate", [False, True])
    def test_affine_cross_check_still_catches_a_steeper_map(self, near_duplicate):
        """A subclass whose outputs are twice its matrix's: the estimate, 1.8, exceeds the
        norm 0.9 by far more than the outputs' rounding allows. A pair 1e-14 apart, whose
        own allowance is about 2.6 times its distance, excuses no other pair."""

        class Steep(AffineDenoiser):
            def _apply(self, y):
                return 2.0 * super()._apply(y)

        pts = np.random.default_rng(1).standard_normal((30, 4))
        if near_duplicate:
            pts = np.vstack([pts, pts[0] + np.array([1e-14, 0.0, 0.0, 0.0])])
            assert 0.0 < np.linalg.norm(pts[-1] - pts[0]) < 2e-14
        with pytest.raises(RuntimeError, match="estimate 1.8.* exceeds the exact spectral norm 0.9"):
            estimate_lipschitz(Steep(0.9 * np.eye(4), np.ones(4)), pts)

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
        monkeypatch.setattr(pnplab.denoisers, "_BLOCK_FLOATS", 36)
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
        monkeypatch.setattr(pnplab.denoisers, "_BLOCK_FLOATS", 1 << 40)
        whole = estimate_lipschitz(d, pts)

        monkeypatch.setattr(pnplab.denoisers, "_BLOCK_FLOATS", 200)
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

    @pytest.mark.parametrize(
        "wrap",
        [
            lambda d: tweedie_scale(d, 2.0),
            lambda d: OutputShrink(d, 0.9),
            lambda d: homogeneous_scale(OutputShrink(d, 0.9), 2.0, gamma_rescale=True),
        ],
        ids=["tweedie", "output-shrink", "both"],
    )
    def test_a_wrapped_mixture_runs_in_blocks_sized_by_its_components(self, wrap):
        """Blocks follow K through the ``base`` chain: at K = 2000, n = 4 and 1000 points the
        whole-cloud (K, m) arrays peak at 32 MB; blocks of 2**15 floats keep it under 1 MB."""
        n, k, m = 4, 2000, 1000
        rng = np.random.default_rng(5)
        prior = GmmPrior(np.full(k, 1.0 / k), rng.uniform(-3.0, 3.0, (k, n)), np.full(k, 0.1))
        d = wrap(MmseDenoiser(prior, 0.3))
        pts = 2.0 * rng.standard_normal((m, n))
        tracemalloc.start()
        try:
            estimate_lipschitz(d, pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        m=st.integers(2, 1024),
        n=st.integers(1, 16),
        k=st.integers(1, 256),
        kind=st.sampled_from(["mmse", "tweedie", "homogeneous", "output-shrink", "shrinkage", "affine"]),
        seed=st.integers(0, 2**16),
    )
    def test_any_drawn_estimate_stays_within_its_documented_floats(self, m, n, k, kind, seed):
        """The documented peak, with one slack for small arrays, holds for any cloud,
        dim, component count and denoiser: the outputs, two arrays of the larger of
        a block and the cloud, and four blocks."""
        rng = np.random.default_rng(seed)
        prior = GmmPrior(np.full(k, 1.0 / k), rng.standard_normal((k, n)), rng.uniform(0.2, 1.0, k))
        d = {
            "mmse": lambda: MmseDenoiser(prior, 0.3),
            "tweedie": lambda: tweedie_scale(MmseDenoiser(prior, 0.3), 1.7, gamma_rescale=True),
            "homogeneous": lambda: homogeneous_scale(MmseDenoiser(prior, 0.3), 1.7),
            "output-shrink": lambda: OutputShrink(MmseDenoiser(prior, 0.3), 0.9),
            "shrinkage": lambda: ShrinkageDenoiser(0.5, n),
            "affine": lambda: AffineDenoiser(0.5 * np.eye(n), np.ones(n)),
        }[kind]()
        pts = 2.0 * rng.standard_normal((m, n))
        tracemalloc.start()
        try:
            estimate_lipschitz(d, pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        counted = m * n + 2 * max(_BLOCK_FLOATS, m * n) + 4 * _BLOCK_FLOATS
        assert peak <= 8 * counted + 64 * 1024

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

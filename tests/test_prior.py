import math
import os
import subprocess
import sys
import threading
import warnings
from contextlib import closing
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pnplab.solver
from pnplab import prior as prior_module
from pnplab.analysis import estimate_l2
from pnplab.denoisers import MmseDenoiser, OutputShrink, ScaledDenoiser, _OutputMap
from pnplab.experiments import resolve_config, run_conv_reg, run_lipschitz_table
from pnplab.linop import Convolve1d, DenseOperator, Identity, Mask
from pnplab.prior import GmmPrior
from pnplab.solver import PnpConfig, pnp_pgd_batch


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

    def test_means_whose_centred_squares_overflow_are_rejected_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="squared distances from their mean overflow"):
                GmmPrior([0.5, 0.5], [[1e300, -1e300], [-1e300, 1e300]], [1.0, 1.0])
            # far from the origin, but close together
            for means in ([[1e300], [1e300]], [[1e160], [1e160 + 1e150]]):
                assert GmmPrior([0.5, 0.5], means, [1.0, 1.0]).n_components == 2

    def test_zero_spread_means_near_the_float_maximum_are_accepted(self):
        # The means' sum overflows, but every centred distance is 0.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            prior = GmmPrior([0.5, 0.5], [[1.5e308], [1.5e308]], [1.0, 1.0])
            assert prior._centre.tolist() == [1.5e308] and not prior._centred_half_sq.any()
            assert prior.posterior_mean(np.array([1.5e308]), 0.1).tolist() == [1.5e308]

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

    def test_nan_sigma_rejected_by_every_method(self):
        prior, y = _standard_normal_1d(), np.array([0.0])
        for method in (prior.log_density, prior.responsibilities, prior.score):
            with pytest.raises(ValueError, match="nonnegative"):
                method(y, float("nan"))
        for method in (prior.mmse_denoise, prior.posterior_mean):
            with pytest.raises(ValueError, match="positive"):
                method(y, float("nan"))
        with pytest.raises(ValueError, match="positive"):
            prior.sample_pairs(float("nan"), 3, 0)

    def test_a_sigma_whose_square_overflows_is_rejected_by_every_method(self):
        prior, y = _symmetric_bimodal(), np.array([[0.3], [5.0]])
        for method, rule in (
            (prior.log_density, "nonnegative"),
            (prior.responsibilities, "nonnegative"),
            (prior.score, "nonnegative"),
            (prior.mmse_denoise, "positive"),
            (prior.posterior_mean, "positive"),
        ):
            with pytest.raises(ValueError, match=r"sigma must have a finite square, got 1\.5e\+154"):
                method(y, 1.5e154)
            with pytest.raises(ValueError, match=f"'sigma' must be {rule} and finite, got inf"):
                method(y, np.inf)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert np.all(np.isfinite(method(y, 1e154)))


class _CountingGenerator(np.random.Generator):
    draws = 0

    def standard_normal(self, *args, **kwargs):
        self.draws += 1
        return super().standard_normal(*args, **kwargs)


def _split_clean_draws(monkeypatch, stray=False):
    """Split every clean draw of 64 normals or more; returns the speculative generators made.

    Each counts its draws: 2 is a split that synced (its half, then the last
    few values), and 1 one that fell back to the serial draw. A ``stray``
    speculative generator draws from an unrelated stream, so it never syncs.
    """
    made = []

    def ahead(bits):
        made.append(_CountingGenerator(np.random.PCG64(123) if stray else bits))
        return made[-1]

    monkeypatch.setattr(prior_module, "_SPLIT_NORMALS", 64)
    monkeypatch.setattr(prior_module.np.random, "Generator", ahead)
    return made


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

    @pytest.mark.parametrize(
        "seed, split",
        [(seed, split) for split in (False, True) for seed in (7, np.random.SeedSequence([3, 1]))],
        ids=["7", "seed1", "7-split", "seed1-split"],
    )
    def test_bitwise_equal_to_the_out_of_place_draw(self, seed, split, monkeypatch):
        rng = np.random.default_rng(5)
        prior = GmmPrior([0.2, 0.5, 0.3], rng.standard_normal((3, 6)), [0.5, 1.5, 0.1])
        sigma, count = 0.3, 400
        want_rng = np.random.default_rng(seed)
        comps = want_rng.choice(3, size=count, p=prior.weights)
        want_clean = prior.means[comps] + np.sqrt(prior.variances[comps])[:, None] * (
            want_rng.standard_normal((count, 6))
        )
        want_noisy = want_clean + sigma * want_rng.standard_normal((count, 6))
        made = _split_clean_draws(monkeypatch) if split else []
        clean, noisy = prior.sample_pairs(sigma, count, seed)
        assert [g.draws for g in made] == ([2] if split else [])
        np.testing.assert_array_equal(clean, want_clean)
        np.testing.assert_array_equal(noisy, want_noisy)


    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        count=st.integers(1, 300),
        dim=st.integers(1, 16),
        rows=st.integers(1, 400),
        k=st.integers(1, 4),
        seed=st.integers(0, 2**16),
        split=st.booleans(),
    )
    def test_pair_blocks_concatenate_to_sample_pairs(self, count, dim, rows, k, seed, split):
        """Also with the clean draw split, which syncs or falls back, against the serial draw."""
        rng = np.random.default_rng(seed)
        weights = rng.uniform(0.5, 1.5, k)
        prior = GmmPrior(weights / weights.sum(), rng.standard_normal((k, dim)), rng.uniform(0.1, 2.0, k))
        want_clean, want_noisy = prior.sample_pairs(0.3, count, seed)
        seed = np.random.SeedSequence(seed) if split and count % 2 else seed
        starts, cleans, noisies = [], [], []
        with pytest.MonkeyPatch.context() as monkeypatch:
            if split:
                _split_clean_draws(monkeypatch)
            for index, clean, noisy in prior.pair_blocks(0.3, count, seed, rows):
                assert 1 <= len(clean) == len(noisy) == index.stop - index.start <= rows
                starts.append(index.start)
                cleans.append(clean.copy())
                noisies.append(noisy.copy())  # the noisy buffer is reused
        assert starts == list(range(0, count, rows))
        np.testing.assert_array_equal(np.concatenate(cleans), want_clean)
        np.testing.assert_array_equal(np.concatenate(noisies), want_noisy)

    @pytest.mark.parametrize(
        "rows, split",
        [(rows, split) for split in (False, True) for rows in (1, 7, 1000)],
        ids=["1", "7", "1000", "1-split", "7-split", "1000-split"],
    )
    def test_the_stream_is_labels_then_clean_draws_then_noise(self, rows, split, monkeypatch):
        """Bitwise the stream drawn whole: each clean row ``z * sqrt(v_k) + mu_k``, then the noise.

        Split, the clean draw is 8000 normals in two halves of 4000, from an
        int seed and from a ``SeedSequence``.
        """
        prior = GmmPrior([0.2, 0.5, 0.3], np.arange(12.0).reshape(3, 4) - 5.0, [0.5, 2.0, 0.1])
        count = 2000 if split else 50
        seeds = (9, np.random.SeedSequence(9)) if split else (9,)
        made = _split_clean_draws(monkeypatch) if split else []
        for seed in seeds:
            rng = np.random.default_rng(seed)
            comps = rng.choice(3, size=count, p=prior.weights)
            clean = rng.standard_normal((count, 4)) * np.sqrt(prior.variances[comps])[:, None]
            clean += prior.means[comps]
            noisy = rng.standard_normal((count, 4)) * 0.3 + clean
            starts = []
            for index, got_clean, got_noisy in prior.pair_blocks(0.3, count, seed, rows):
                starts.append(index.start)
                np.testing.assert_array_equal(got_clean, clean[index])
                np.testing.assert_array_equal(got_noisy, noisy[index])
            assert starts == list(range(0, count, rows))
        assert [g.draws for g in made] == ([2, 2] if split else [])

    def test_pair_blocks_rows_validated(self):
        with pytest.raises(ValueError, match="rows"):
            _standard_normal_1d().pair_blocks(0.1, 10, 0, 0)


def _three_component_4d():
    return GmmPrior([0.2, 0.5, 0.3], np.arange(12.0).reshape(3, 4) - 5.0, [0.5, 2.0, 0.1])


def _python(script: str) -> subprocess.CompletedProcess:
    """Run ``script`` in a fresh interpreter that imports this pnplab; fail after 60 s."""
    env = {**os.environ, "PYTHONPATH": str(Path(prior_module.__file__).parents[1])}
    return subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)


class TestDrawAhead:
    """A multi-block ``pair_blocks`` draws the next block on a worker thread."""

    def test_closing_after_the_first_block_joins_the_worker(self):
        before = threading.active_count()
        blocks = _three_component_4d().pair_blocks(0.3, 50, 9, 7)
        next(blocks)
        assert threading.active_count() == before + 1
        blocks.close()
        assert threading.active_count() == before

    def test_a_raising_denoiser_stops_the_worker(self):
        class Boom(Exception):
            pass

        def denoiser(y):
            raise Boom

        # 128-row blocks at n = 256, so 300 samples are three blocks
        prior = GmmPrior([1.0], np.zeros((1, 256)), [1.0])
        before = threading.active_count()
        # ``info`` keeps the traceback, and with it the pass's frames, alive
        with pytest.raises(Boom) as info:
            estimate_l2(denoiser, prior, 0.3, 300, 0)
        assert info.type is Boom and threading.active_count() == before

    def test_an_error_in_the_draw_reaches_the_caller(self, monkeypatch):
        class DrawError(Exception):
            pass

        real_default_rng = np.random.default_rng
        raised_on = []

        class FailingSecondBlock:
            """The real generator, except that its second noise draw raises."""

            def __init__(self, seed):
                self._rng, self._noise_draws = real_default_rng(seed), 0

            def choice(self, *args, **kwargs):
                return self._rng.choice(*args, **kwargs)

            def standard_normal(self, *args, out=None):
                if out is not None:
                    self._noise_draws += 1
                    if self._noise_draws == 2:
                        raised_on.append(threading.current_thread())
                        raise DrawError
                return self._rng.standard_normal(*args, out=out)

        monkeypatch.setattr("pnplab.prior.np.random.default_rng", FailingSecondBlock)
        before = threading.active_count()
        blocks = _three_component_4d().pair_blocks(0.3, 50, 9, 7)
        next(blocks)
        with pytest.raises(DrawError):
            next(blocks)
        assert raised_on and raised_on[0] is not threading.current_thread()
        assert threading.active_count() == before

    def test_a_held_block_is_unchanged_once_the_next_is_drawn(self, monkeypatch):
        drawn, buffers = threading.Semaphore(0), []
        real_pool = prior_module._worker_pool

        def spy_pool(name):
            """The real pool, recording the buffer of each block it is handed and counting those drawn."""
            pool = real_pool(name)
            submit = pool.submit

            def spy_submit(run, draw, start, buffer):
                buffers.append(buffer)
                future = submit(run, draw, start, buffer)
                future.add_done_callback(lambda _: drawn.release())
                return future

            pool.submit = spy_submit
            return pool

        prior = _three_component_4d()
        _, want_noisy = prior.sample_pairs(0.3, 50, 9)
        monkeypatch.setattr(prior_module, "_worker_pool", spy_pool)
        with closing(prior.pair_blocks(0.3, 50, 9, 7)) as blocks:
            index, _, noisy = next(blocks)
            # the first block and the second, drawn into the other buffer
            assert drawn.acquire(timeout=30) and drawn.acquire(timeout=30)
            np.testing.assert_array_equal(noisy, want_noisy[index])
            # only two blocks went out: the third is queued on the next request
            assert len(buffers) == 2 and not np.shares_memory(buffers[0], buffers[1])
            index, _, noisy = next(blocks)
            assert len(buffers) == 3 and np.shares_memory(buffers[2], buffers[0])
            np.testing.assert_array_equal(noisy, want_noisy[index])

    def test_an_open_generator_does_not_hold_the_interpreter_at_exit(self):
        """A script that takes one block of several and exits without closing the generator."""
        script = (
            "from pnplab.prior import GmmPrior\n"
            "blocks = GmmPrior([1.0], [[0.0] * 4], [1.0]).pair_blocks(0.3, 5000, 0, 10)\n"
            "next(blocks)\n"
        )
        done = _python(script)
        assert done.returncode == 0, done.stderr

    def test_importing_the_cli_loads_no_thread_pool(self):
        """``concurrent.futures`` loads ``logging``; a process that never draws on a worker skips both."""
        script = "import sys, pnplab.cli; print('concurrent.futures' in sys.modules)"
        done = _python(script)
        assert done.stdout == "False\n", done.stderr

    def test_the_worker_draws_in_the_callers_errstate(self):
        """The overflow is ignored on the worker too, not raised as a RuntimeWarning."""
        with np.errstate(over="ignore"):
            blocks = list(_three_component_4d().pair_blocks(1e308, 50, 0, 7))
        assert len(blocks) == 8
        assert any(np.isinf(noisy).any() for _, _, noisy in blocks)

    def test_concurrent_draws_under_fast_switching_keep_their_streams(self, monkeypatch):
        """Then again with each caller's clean draw of 8000 normals split across two threads."""
        prior = _three_component_4d()
        seeds = range(4)
        for count, rows in ((60, 3), (2000, 100)):
            want = {seed: prior.sample_pairs(0.3, count, seed)[1] for seed in seeds}
            got = {}
            if count == 2000:
                monkeypatch.setattr(prior_module, "_SPLIT_NORMALS", 64)

            def drain(seed):
                blocks = prior.pair_blocks(0.3, count, seed, rows)
                got[seed] = np.concatenate([noisy.copy() for _, _, noisy in blocks])

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                callers = [threading.Thread(target=drain, args=(seed,)) for seed in seeds]
                for caller in callers:
                    caller.start()
                for caller in callers:
                    caller.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(caller.is_alive() for caller in callers)
            for seed in seeds:
                np.testing.assert_array_equal(got[seed], want[seed])

    def test_one_block_draws_start_no_thread(self, monkeypatch):
        started = []
        real_start = threading.Thread.start

        def spy(thread):
            started.append(thread)
            real_start(thread)

        monkeypatch.setattr(threading.Thread, "start", spy)
        _three_component_4d().sample_pairs(0.3, 5000, 0)
        run_lipschitz_table()
        run_conv_reg({"delta_grid": [1.0, 2.0], "solver": {"max_iters": 5}})
        assert started == []
        list(_three_component_4d().pair_blocks(0.3, 50, 9, 7))
        assert len(started) == 1


class TestSplitCleanDraw:
    """The paths of a split clean draw that the stream referees above do not reach."""

    def test_no_sync_point_falls_back_to_the_serial_draw(self, monkeypatch):
        prior = _three_component_4d()
        want_clean, want_noisy = prior.sample_pairs(0.3, 2000, 9)
        made = _split_clean_draws(monkeypatch, stray=True)
        before = threading.active_count()
        clean, noisy = prior.sample_pairs(0.3, 2000, 9)
        assert [g.draws for g in made] == [1] and threading.active_count() == before
        np.testing.assert_array_equal(clean, want_clean)
        np.testing.assert_array_equal(noisy, want_noisy)

    @pytest.mark.parametrize("bits", [np.random.PCG64, np.random.Philox, np.random.MT19937])
    def test_a_callers_generator_of_any_kind_is_left_where_the_serial_draw_leaves_it(self, bits, monkeypatch):
        """PCG64 syncs; MT19937 cannot ``advance``, and Philox's counts blocks of four, so it falls back."""
        prior = _three_component_4d()
        serial = np.random.Generator(bits(5))
        want_clean, want_noisy = prior.sample_pairs(0.3, 2000, serial)
        monkeypatch.setattr(prior_module, "_SPLIT_NORMALS", 64)
        rng = np.random.Generator(bits(5))
        clean, noisy = prior.sample_pairs(0.3, 2000, rng)
        np.testing.assert_array_equal(clean, want_clean)
        np.testing.assert_array_equal(noisy, want_noisy)
        np.testing.assert_array_equal(rng.random(4), serial.random(4))

    def test_an_error_on_the_speculative_thread_reaches_the_caller(self, monkeypatch):
        class AheadError(Exception):
            pass

        raised_on = []

        class FailingGenerator:
            def __init__(self, bits):
                pass

            def standard_normal(self, *args, **kwargs):
                raised_on.append(threading.current_thread())
                raise AheadError

        monkeypatch.setattr(prior_module, "_SPLIT_NORMALS", 64)
        monkeypatch.setattr(prior_module.np.random, "Generator", FailingGenerator)
        before = threading.active_count()
        with pytest.raises(AheadError) as info:
            _three_component_4d().pair_blocks(0.3, 2000, 9, 7)
        assert info.type is AheadError
        assert raised_on and raised_on[0] is not threading.current_thread()
        assert threading.active_count() == before


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


def _dense_posterior_mean(prior, points, t, log_norm, rho, shrunk, half_sq=None):
    """The dense mixture formula, kept as the oracle of ``_posterior_mean``'s concentrated route."""
    r = prior._responsibilities(points, t, log_norm, half_sq)
    out = r.T @ shrunk
    out += points * np.add.reduce(r * rho[:, None], axis=0)[:, None]
    return out


def _concentrated(prior, points, t, log_norm, half_sq=None):
    """The rows whose other log-terms all lie at least ``53 ln 2 + ln K`` below their best."""
    logs = prior._component_logpdf(points, t, log_norm, half_sq)
    gap = 53.0 * math.log(2.0) + math.log(prior.n_components)
    return np.sum(logs - logs.max(axis=0) <= -gap, axis=0) == prior.n_components - 1


def _dense_route_rows(prior, points, *constants):
    """``_posterior_mean`` with its dense helper patched to give NaN, and the rows that came out NaN."""
    calls = []

    def nan_mean(points, r, rho, shrunk):
        calls.append(points.shape[0])
        return np.full((points.shape[0], shrunk.shape[1]), np.nan)

    with mock.patch.object(prior_module, "_mixture_mean", nan_mean):
        out = prior._posterior_mean(points, *constants)
    return np.isnan(out).any(axis=1), calls


def _row_scale(points, rho, shrunk):
    """Each row's largest component estimate term, ``max_j |rho_j y_i| + |(1 - rho_j) mu_j,i|``."""
    return np.max(np.abs(rho[:, None, None] * points[None]) + np.abs(shrunk[:, None, :]), axis=(0, 2))


class TestConcentratedRoute:
    """A row whose posterior sits on one component gets that component's estimate."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        k=st.integers(2, 6),
        n=st.integers(1, 8),
        m=st.integers(2, 12),
        layout=st.sampled_from(["concentrated", "mixed", "dense"]),
        nats=st.floats(0.0, 1.0),
        sigma=st.floats(0.05, 1.0),
        seed=st.integers(0, 2**16),
    )
    def test_matches_the_dense_formula(self, k, n, m, layout, nats, sigma, seed):
        """Components spaced ``sep`` apart on the first axis, rows at their means (concentrated
        when the spacing is wide) or halfway between two (never concentrated)."""
        rng = np.random.default_rng(seed)
        gap = 53.0 * math.log(2.0) + math.log(k)
        weights = rng.uniform(0.5, 1.5, k)
        # Equal variances in a mixed block, so that a row halfway between two means is a near tie.
        variances = rng.uniform(0.05, 1.0) * rng.uniform(1.0, 1.0 if layout == "mixed" else 1.2, k)
        t = variances + sigma * sigma
        # The nearest other component lies about ``target`` nats below a row's own, give or
        # take the weights' and normalisers' 2 nats and the other axes' spread.
        target = (gap + 8.0 + 760.0 * nats) if layout != "dense" else 0.5 + (gap - 14.0) / 1.2 * nats
        sep = math.sqrt(2.0 * t.max() * target)
        means = 0.1 * rng.standard_normal((k, n))
        means[:, 0] = sep * np.arange(k) + rng.uniform(-50.0, 50.0)
        prior = GmmPrior(weights / weights.sum(), means, variances)
        labels = rng.integers(0, k, m)
        points = means[labels] + 1e-3 * np.sqrt(t.min()) * rng.standard_normal((m, n))
        expected = np.full(m, layout != "dense")
        if layout == "mixed":
            halfway = np.arange(m) % 2 == 1
            neighbours = np.where(labels < k - 1, labels + 1, labels - 1)
            points[halfway] = 0.5 * (means[labels] + means[neighbours])[halfway]
            expected[halfway] = False
        constants = prior._posterior_constants(sigma)
        t, log_norm, rho, shrunk = constants
        assert np.array_equal(_concentrated(prior, points, t, log_norm), expected)
        dense_rows, _ = _dense_route_rows(prior, points, *constants)
        assert np.array_equal(dense_rows, ~expected)

        got = prior._posterior_mean(points, *constants)
        want = _dense_posterior_mean(prior, points, *constants)
        scale = _row_scale(points, rho, shrunk)
        assert np.all(np.max(np.abs(got - want), axis=1) <= 2.0**-52 * scale)
        # A concentrated row gives alone what it gives inside the block, bitwise. (Alone,
        # a row's distances and a dense row's mixing product go through gemv, which may
        # round them differently from gemm, and a near tie amplifies that.)
        for i in np.flatnonzero(expected):
            alone = prior._posterior_mean(points[i : i + 1], *constants)[0]
            assert np.array_equal(alone, got[i])
            assert np.array_equal(alone, points[i] * rho[labels[i]] + shrunk[labels[i]])

    def test_tied_duplicate_components_stay_dense(self):
        """Two copies of a component tie at every point, however far the third lies."""
        prior = GmmPrior([0.3, 0.3, 0.4], [[0.0, 0.0], [0.0, 0.0], [100.0, 0.0]], [0.5, 0.5, 0.5])
        points = np.array([[0.0, 0.0], [0.1, -0.2], [-3.0, 1.0]])
        constants = prior._posterior_constants(0.3)
        dense_rows, calls = _dense_route_rows(prior, points, *constants)
        assert dense_rows.all() and calls == [3]
        np.testing.assert_array_equal(
            prior._posterior_mean(points, *constants), _dense_posterior_mean(prior, points, *constants)
        )

    @pytest.mark.parametrize("k", [2, 5])
    def test_a_gap_one_ulp_either_side_of_the_threshold(self, k):
        """With unit ``t`` and zero log normalisers the shifted log-terms are ``-half_sq`` exactly."""
        rng = np.random.default_rng(k)
        prior = GmmPrior(np.full(k, 1.0 / k), rng.standard_normal((k, 3)), rng.uniform(0.2, 0.8, k))
        _, _, rho, shrunk = prior._posterior_constants(0.5)
        t, log_norm = np.ones(k), np.zeros(k)
        gap = prior._gap
        assert gap == 53.0 * math.log(2.0) + math.log(k)
        below, above = np.nextafter(gap, 0.0), np.nextafter(gap, np.inf)
        # Row 0 is best at component 0 and has its nearest other one ulp inside the gap,
        # row 1 exactly at it and row 2 one ulp beyond it.
        half_sq = np.full((k, 3), 2.0 * gap)
        half_sq[0] = 0.0
        half_sq[1] = [below, gap, above]
        points = rng.standard_normal((3, 3))
        constants = (t, log_norm, rho, shrunk, half_sq)
        assert np.array_equal(_concentrated(prior, points, *constants[:2], half_sq), [False, True, True])
        dense_rows, _ = _dense_route_rows(prior, points, *constants)
        assert np.array_equal(dense_rows, [True, False, False])
        got = prior._posterior_mean(points, *constants)
        want = _dense_posterior_mean(prior, points, *constants)
        assert np.all(np.max(np.abs(got - want), axis=1) <= 2.0**-52 * _row_scale(points, rho, shrunk))
        np.testing.assert_array_equal(got[1:], points[1:] * rho[0] + shrunk[0])

    def test_rows_so_far_away_that_the_gap_rounds_off_their_best(self):
        """Log-terms near -1e20, where ``best - G`` rounds to ``best``: the shifted terms still decide."""
        prior = GmmPrior([0.5, 0.5], [[-1.0, 0.0], [1.0, 0.0]], [0.3, 0.6])
        _, _, rho, shrunk = prior._posterior_constants(0.4)
        t, log_norm = np.ones(2), np.zeros(2)
        assert -1e20 - prior._gap == -1e20
        # Row 0: component 1 lies 1e6 below (concentrated). Row 1: the two round to one
        # value (a tie, dense). Row 2: component 0 lies 2^20 below (concentrated).
        half_sq = np.array([[1e20, 1e20, 1e20 + 2.0**20], [1e20 + 1e6, 1e20 + 1.0, 1e20]])
        points = np.array([[0.5, 1.0], [-2.0, 0.25], [3.0, -1.0]])
        constants = (t, log_norm, rho, shrunk, half_sq)
        dense_rows, _ = _dense_route_rows(prior, points, *constants)
        assert np.array_equal(dense_rows, [False, True, False])
        np.testing.assert_array_equal(
            prior._posterior_mean(points, *constants), _dense_posterior_mean(prior, points, *constants)
        )

    def test_infinite_and_nan_log_terms_match_the_dense_formula(self):
        """Under ``errstate(ignore)``: a -inf term only loses its weight, a NaN or all--inf row stays dense."""
        prior = GmmPrior([0.25, 0.25, 0.5], [[0.0], [1.0], [2.0]], [0.2, 0.4, 0.6])
        _, _, rho, shrunk = prior._posterior_constants(0.3)
        t, log_norm = np.ones(3), np.zeros(3)
        half_sq = np.array(
            [
                [0.0, np.inf, np.nan, np.inf, 0.0],
                [np.inf, 0.0, 0.0, np.inf, 1.0],
                [np.inf, np.inf, 0.0, np.inf, 2.0],
            ]
        )
        points = np.array([[0.5], [-1.0], [2.0], [3.0], [np.nan]])
        constants = (t, log_norm, rho, shrunk, half_sq)
        with np.errstate(all="ignore"):
            got = prior._posterior_mean(points, *constants)
            want = _dense_posterior_mean(prior, points, *constants)
            dense_rows, _ = _dense_route_rows(prior, points, *constants)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(got[:2, 0], [0.5 * rho[0] + shrunk[0, 0], -1.0 * rho[1] + shrunk[1, 0]])
        assert np.all(np.isnan(got[2:]))
        assert np.array_equal(dense_rows, [False, False, True, True, True])

    def test_one_component_is_unchanged(self):
        """One component never reaches the dense helper and keeps ``rho y + (1 - rho) mu``."""
        prior = GmmPrior([1.0], [[0.5, -1.0, 2.0]], [0.4])
        points = np.random.default_rng(3).standard_normal((7, 3))
        with mock.patch.object(prior_module, "_mixture_mean", side_effect=AssertionError):
            got = prior.posterior_mean(points, 0.2)
        t, log_norm, rho, shrunk = prior._posterior_constants(0.2)
        np.testing.assert_array_equal(got, points * rho + shrunk)


class TestConcentratedTraffic:
    """Which route the benchmarked protocols' priors take, seen through the dense helper."""

    def test_a_wide_prior_block_takes_the_concentrated_route(self):
        # Built as the wide-prior benchmark builds its prior: K = 64 components in n = 256.
        rng = np.random.default_rng([0, 64, 256])
        k, n = 64, 256
        weights = rng.uniform(0.5, 1.5, k)
        prior = GmmPrior(weights / weights.sum(), 0.5 * rng.standard_normal((k, n)), rng.uniform(0.2, 0.6, k))
        _, noisy = prior.sample_pairs(0.2, 128, 0)
        half_sq = prior._half_sq_dists(noisy)
        for sigma in (0.2, 0.3):
            denoiser = MmseDenoiser(prior, sigma)
            dense_rows, calls = _dense_route_rows(prior, noisy, *denoiser._constants, half_sq)
            assert calls == [] and not dense_rows.any()
            want = _dense_posterior_mean(prior, noisy, *denoiser._constants, half_sq)
            scale = _row_scale(noisy, *denoiser._constants[2:])
            got = denoiser._apply(noisy, half_sq)
            assert np.all(np.max(np.abs(got - want), axis=1) <= 2.0**-52 * scale)

    def test_the_default_delta_sweep_prior_takes_the_dense_route(self):
        resolved = resolve_config("delta-sweep")
        prior = GmmPrior.from_config(resolved["prior"])
        sigma = resolved["sigma"]
        assert sigma == 0.1
        _, noisy = prior.sample_pairs(sigma, 4096, 0)
        for ratio in resolved["mismatch_ratios"]:
            constants = MmseDenoiser(prior, ratio * sigma)._constants
            dense_rows, calls = _dense_route_rows(prior, noisy, *constants)
            assert calls == [4096] and dense_rows.all()


def _edge_point(prior, t, log_norm, a, b, excess):
    """A point between means ``a`` and ``b`` whose computed gap from component ``a`` to its
    nearest other exceeds ``53 ln 2 + ln K`` by about ``excess`` nats, found by bisection;
    None if the segment does not cross that level."""

    def surplus(s):
        point = prior.means[a] + s * (prior.means[b] - prior.means[a])
        logs = prior._component_logpdf(np.vstack([point, point]), t, log_norm)[:, 0]
        return logs[a] - np.max(np.delete(logs, a)) - prior._gap - excess, point

    lo, hi = 0.0, 1.0
    if not (surplus(lo)[0] >= 0.0 and surplus(hi)[0] < 0.0):
        return None
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if surplus(mid)[0] >= 0.0:
            lo = mid
        else:
            hi = mid
    return surplus(lo)[1]


def _separated_prior(rng, k, n, offset):
    """``k`` components spaced on the first axis a few to about 70 nats past the
    concentration gap apart, beyond what the weights and normalisers can take back
    at noise levels up to 1, the whole mixture shifted ``offset`` from the origin."""
    variances = rng.uniform(0.05, 1.0, k)
    weights = rng.uniform(0.5, 1.5, k)
    gap = 53.0 * math.log(2.0) + math.log(k)
    spread = math.log(3.0) + 0.5 * n * math.log((variances.max() + 1.0) / variances.min())
    sep = math.sqrt(2.0 * (variances.max() + 1.0) * (gap + spread + rng.uniform(2.0, 70.0)))
    means = 0.1 * rng.standard_normal((k, n))
    means[:, 0] += sep * np.arange(k)
    direction = rng.standard_normal(n)
    means += offset * direction / np.linalg.norm(direction)
    return GmmPrior(weights / weights.sum(), means, variances)


# A held fused solve's x_star against the solve without a basin, relative to the iterates' size.
_HELD_ROUND_OFF = 1e-13


def _held_solve(op, ys, denoiser, config):
    """``pnp_pgd_batch`` with its basin, and its route in order: each pair it folded (over a
    mask the chain's own, None for a mixture, comes first) and each block test's held
    inputs, copied, and result."""
    route = []
    fold, first_miss = pnplab.solver._fold, prior_module._Basin.first_miss

    def folded(pair, *args):
        route.append(("fold", pair))
        return fold(pair, *args)

    def tested(basin, inputs):
        held = inputs.copy()
        route.append(("test", held, first_miss(basin, inputs)))
        return route[-1][2]

    with mock.patch.object(pnplab.solver, "_fold", folded):
        with mock.patch.object(prior_module._Basin, "first_miss", tested):
            return pnp_pgd_batch(op, ys, denoiser, config), route


def _check_held_solve(op, ys, denoiser, config, got, route, stops=True):
    """``got``, a solve and its ``route`` from ``_held_solve``, against the solve with no basin:
    equal divergence records, equal iteration counts and convergence flags if ``stops``, and
    ``x_star`` within ``_HELD_ROUND_OFF`` of the iterates' size. Over a mask a held call's
    input is its iterate on the hidden coordinates, so there each input a block test saw is
    bitwise ``coef x + off`` of the one before, for the held pair ``(coef, off)``: the tested
    inputs are the fused loop's own. Returns the solve without a basin, how many held calls
    the block tests passed and how many of those hidden-coordinate steps were checked."""
    with mock.patch.object(pnplab.solver, "_solve_basin", lambda denoiser: None):
        want = pnp_pgd_batch(op, ys, denoiser, config)
    for field in ("iterations", "converged", "diverged") if stops else ("diverged",):
        assert np.array_equal(getattr(got, field), getattr(want, field))
    scale = 1.0 + np.max(np.abs(want.x_star))
    assert np.max(np.abs(got.x_star - want.x_star)) <= _HELD_ROUND_OFF * scale
    passed, folds = 0, 0
    for event in route:
        if event[0] == "fold":
            pair = event[1]
            continue
        held, found = event[1:]
        passed += found
        if isinstance(op, Mask) and len(held) > 1:
            hidden = op.keep == 0.0
            coef, off = (np.broadcast_to(v, held.shape[1:])[:, hidden] for v in pair)
            for before, after in zip(held, held[1:]):
                assert np.array_equal(after[:, hidden], coef * before[:, hidden] + off)
                folds += 1
    return want, passed, folds


def _solve_map(prior, sigma):
    """The map a batched solve runs over a bare mixture denoiser, ``1 * MmseDenoiser(prior,
    sigma)``, whose pair over a held basin, ``1 rho_k`` and ``1 (1 - rho_k) mu_k``, gives
    bitwise the one-component formula."""
    return _OutputMap(MmseDenoiser(prior, sigma), 1.0)


def _basin_block(mapped, basin, stacks):
    """A stop block's calls of ``mapped`` (see ``_solve_map``) on ``stacks`` with ``basin``, as
    the batched solve makes them: the full route until the basin holds, then the map's pair
    over the held constants (``_OutputMap._diagonal(held)``), then one test of the held calls'
    inputs (``_Basin.first_miss``), and again from the first that missed, until a test passes.
    Returns the outputs and each test's result."""
    outputs, tests, first = [None] * len(stacks), [], 0
    while first < len(stacks):
        held_from = first
        while basin.held is None and held_from < len(stacks):
            outputs[held_from] = mapped._apply(stacks[held_from], None, basin)
            held_from += 1
        if basin.held is not None:
            coef, off = mapped._diagonal(basin.held[2:])
            outputs[held_from:] = [coef * stack + off for stack in stacks[held_from:]]
        first = held_from + basin.first_miss(np.array(stacks[held_from:]).reshape(-1, *stacks[0].shape))
        tests.append(first)
    return outputs, tests


class TestBasin:
    """A batched solve's basin skips the distances only where the full route gives the same bits."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        k=st.integers(2, 5),
        n=st.integers(1, 8),
        m=st.integers(2, 6),
        log_offset=st.floats(-1.0, 6.0),
        log_step=st.floats(-4.0, math.log10(3.0)),
        log_excess=st.floats(-9.0, -3.0),
        walk=st.sampled_from(["wander", "cross", "edge", "nonfinite"]),
        block=st.integers(1, 6),
        sigma=st.floats(0.05, 1.0),
        seed=st.integers(0, 2**16),
    )
    def test_a_call_with_a_basin_is_bitwise_the_call_without(
        self, k, n, m, log_offset, log_step, log_excess, walk, block, sigma, seed
    ):
        """Random walks of stacks from rows at their components' means: wandering by steps
        of 1e-4 to 3, crossing to the next component, starting from a row whose gap clears
        ``G`` by 1e-9 to 1e-3 nats, or meeting NaN and inf rows, on mixtures up to 1e6 from
        the origin, called in blocks of 1 to 6 with one test each. Every call whose block
        passes the test, and every call made again after a miss, is bitwise the call without
        a basin."""
        rng = np.random.default_rng(seed)
        prior = _separated_prior(rng, k, n, 10.0**log_offset)
        constants = prior._posterior_constants(sigma)
        t, log_norm = constants[:2]
        labels = rng.integers(0, k, m)
        stack = prior.means[labels] + 0.01 * np.sqrt(t.min()) * rng.standard_normal((m, n))
        if walk == "edge":
            a = labels[0]
            point = _edge_point(prior, t, log_norm, a, a + 1 if a < k - 1 else a - 1, 10.0**log_excess)
            if point is not None:
                stack[0] = point
        targets = prior.means[(labels + 1) % k]
        calls = []
        for i in range(24):
            call = stack
            if walk == "nonfinite" and i % 3 == 2:
                call = stack.copy()
                call[rng.integers(m), rng.integers(n)] = rng.choice([np.nan, np.inf, -np.inf])
            calls.append(call)
            if i % 4 == 3:
                continue  # the same stack again
            move = 10.0**log_step * rng.uniform() * rng.standard_normal((m, n)) / math.sqrt(n)
            if walk == "cross":
                move += 0.2 * (targets - stack)
            stack = stack + move
        basin, mapped = prior_module._Basin(), _solve_map(prior, sigma)
        with np.errstate(invalid="ignore", over="ignore"):
            for start in range(0, len(calls), block):
                stacks = calls[start : start + block]
                got, _ = _basin_block(mapped, basin, stacks)
                for call, out in zip(stacks, got):
                    np.testing.assert_array_equal(out, prior._posterior_mean(call, *constants))

    def test_a_walk_inside_its_radius_forms_no_distance(self, monkeypatch):
        """Rows drifting by 1e-3 around well-separated means, in blocks of five calls: one
        certification, which forms the distances twice (for the route and for the radii),
        then hits that pass one test per block."""
        rng = np.random.default_rng(5)
        prior = _separated_prior(rng, 3, 8, 0.0)
        constants = prior._posterior_constants(0.3)
        stack = prior.means[rng.integers(0, 3, 6)]
        formed = []
        half_sq_dists = GmmPrior._half_sq_dists
        monkeypatch.setattr(GmmPrior, "_half_sq_dists", lambda self, p: formed.append(1) or half_sq_dists(self, p))
        basin, mapped = prior_module._Basin(), _solve_map(prior, 0.3)
        for _ in range(10):
            stacks = []
            for _ in range(5):
                stack = stack + 1e-3 * rng.standard_normal(stack.shape)
                stacks.append(stack)
            got, tests = _basin_block(mapped, basin, stacks)
            assert tests == [5]
            formed_before = len(formed)
            for call, out in zip(stacks, got):
                np.testing.assert_array_equal(out, prior._posterior_mean(call, *constants))
            assert len(formed) == formed_before + 5
        assert len(formed) == 50 + 2

    def test_a_stack_that_leaves_its_radius_on_every_call_certifies_once_per_block(self, monkeypatch):
        """Two concentrated stacks far apart, in turn, in blocks of five calls: each block's
        first call certifies, its second misses, and the block runs again from there on the
        full route, which forms the distances on every call and certifies nothing, although
        every stack it meets is concentrated. The next block certifies again."""
        rng = np.random.default_rng(6)
        prior = _separated_prior(rng, 3, 4, 0.0)
        constants = prior._posterior_constants(0.3)
        labels = rng.integers(0, 3, 4)
        stacks = [prior.means[labels], prior.means[(labels + 1) % 3]] * 2 + [prior.means[labels]]
        events = []
        certify, half_sq_dists = GmmPrior._certify, GmmPrior._half_sq_dists
        monkeypatch.setattr(GmmPrior, "_certify", lambda self, *a: events.append("certify") or certify(self, *a))
        monkeypatch.setattr(GmmPrior, "_half_sq_dists", lambda self, p: events.append("dists") or half_sq_dists(self, p))
        basin, mapped = prior_module._Basin(), _solve_map(prior, 0.3)
        for _ in range(20):
            events.clear()
            got, tests = _basin_block(mapped, basin, stacks)
            assert tests == [1, 5]
            # The first call's route and radii, then the rerun's four calls.
            assert events == ["dists", "certify", "dists"] + ["dists"] * 4
            assert (basin.held, basin.missed) == (None, False)
            for call, out in zip(stacks, got):
                np.testing.assert_array_equal(out, prior._posterior_mean(call, *constants))

    def test_a_block_runs_again_from_its_first_miss(self):
        """A block whose held calls leave their radius at the third: the test passes the first
        two, drops the anchor and returns 2. The calls made again from there certify nothing,
        the block's end, a test of no held calls, clears the miss, and the next block's first
        call certifies again."""
        rng = np.random.default_rng(7)
        prior = _separated_prior(rng, 3, 4, 0.0)
        labels = rng.integers(0, 3, 4)
        near, far = prior.means[labels], prior.means[(labels + 1) % 3]
        basin, mapped = prior_module._Basin(), _solve_map(prior, 0.3)
        mapped._apply(near, None, basin)
        assert basin.held is not None
        assert basin.first_miss(np.array([near, near, far, near])) == 2
        assert (basin.held, basin.missed) == (None, True)
        for call in (far, near):
            mapped._apply(call, None, basin)
        assert (basin.held, basin.missed) == (None, True)
        assert basin.first_miss(np.empty((0,) + near.shape)) == 0
        assert (basin.held, basin.missed) == (None, False)
        mapped._apply(far, None, basin)
        assert basin.held is not None and np.array_equal(basin.held[0], far)

    def test_a_held_fused_solve_keeps_the_records_of_the_solve_without_a_basin(self):
        """Batched solves over separated mixtures (K 2 to 4, n 1 to 8), on a mask, the
        identity, a mask that hides everything, a convolution and a dense matrix, in both
        modes, with one scale or one per row, the gamma rescale on or off and an optional
        ``OutputShrink``. The data put the first denoiser inputs near component means, from
        which the stack wanders, or at a point whose gap clears ``G`` by 1e-9 to 1e-3 nats, or
        draw it across to the next component at a fraction of the step. Every record equals
        that of the solve with no basin, ``x_star`` equals its ``x_star`` within
        ``_HELD_ROUND_OFF`` of the iterates' size, and a solve that never holds its basin is
        bitwise the solve without one. A tol of 1e-30, below round-off, stops a row only where
        an iterate repeats bitwise, which a held iterate's round-off may move: such a solve,
        which mostly runs to its cap through long chains of held blocks, keeps the divergence
        records and the ``x_star`` bound, and its other records where it never held. Over the
        examples the block test both passes blocks of held calls and rolls blocks back, a call
        run again after a miss finds its stack concentrated and does not certify it, and a
        solve with the sub-round-off tol holds its basin."""
        outcomes = set()
        posterior_mean = GmmPrior._posterior_mean

        def mean_spy(prior, points, t, log_norm, rho, shrunk, half_sq=None, basin=None):
            missed = basin is not None and basin.missed
            out = posterior_mean(prior, points, t, log_norm, rho, shrunk, half_sq, basin)
            if missed:
                assert basin.held is None
                # A fresh basin shows whether this stack would have been certified.
                fresh = prior_module._Basin()
                posterior_mean(prior, points, t, log_norm, rho, shrunk, half_sq, fresh)
                if fresh.held is not None:
                    outcomes.add("refused")
            return out

        @settings(max_examples=150, deadline=None, derandomize=True)
        @given(
            k=st.integers(2, 4),
            n=st.integers(1, 8),
            m=st.integers(1, 5),
            log_offset=st.floats(-1.0, 3.0),
            log_noise=st.floats(-6.0, 0.0),
            log_excess=st.floats(-9.0, -3.0),
            walk=st.sampled_from(["wander", "cross", "edge"]),
            kind=st.sampled_from(["mask", "identity", "all-hidden", "conv1d", "dense"]),
            mode=st.sampled_from(ScaledDenoiser.MODES),
            per_row=st.booleans(),
            gamma=st.booleans(),
            shrink=st.booleans(),
            step=st.floats(0.05, 1.0),
            max_iters=st.integers(1, 60),
            tol=st.sampled_from([1e-30, 1e-9, 1e-7]),
            seed=st.integers(0, 2**16),
        )
        def check(k, n, m, log_offset, log_noise, log_excess, walk, kind, mode, per_row, gamma, shrink, step,
                  max_iters, tol, seed):
            rng = np.random.default_rng(seed)
            prior = _separated_prior(rng, k, n, 10.0**log_offset)
            sigma = float(rng.uniform(0.05, 1.0))
            t, log_norm = prior._posterior_constants(sigma)[:2]
            labels = rng.integers(0, k, m)
            targets = prior.means[labels] + 10.0**log_noise * np.sqrt(t.min()) * rng.standard_normal((m, n))
            if walk == "edge":
                a = labels[0]
                point = _edge_point(prior, t, log_norm, a, a + 1 if a < k - 1 else a - 1, 10.0**log_excess)
                if point is not None:
                    targets[0] = point
            elif walk == "cross":
                targets = prior.means[(labels + 1) % k]
            if kind == "mask":
                op = Mask((np.arange(n) == 0) | (rng.random(n) < 0.7))
            elif kind == "identity":
                op = Identity(n)
            elif kind == "all-hidden":
                op = Mask(np.zeros(n, dtype=bool))
            elif kind == "conv1d":
                op = Convolve1d(rng.uniform(0.1, 1.0, min(3, n)), n)
            else:
                op = DenseOperator(rng.standard_normal((n + int(rng.integers(0, 3)), n)) / np.sqrt(n))
            # The data term draws the iterates to the targets; a unit step puts the first input there
            # over the identity and a mask's observed entries, a smaller one makes the way longer.
            ys = op._apply(targets)
            norm_sq = op.op_norm_sq()
            tau = (1.0 if walk != "cross" else step) / (norm_sq if norm_sq > 0 else 1.0)
            base = MmseDenoiser(prior, sigma)
            if shrink:
                base = OutputShrink(base, float(rng.uniform(0.9, 1.0)))
            deltas = rng.uniform(1.0, 3.0, m) if per_row else float(rng.uniform(1.0, 3.0))
            denoiser = ScaledDenoiser(base, deltas, mode=mode, gamma_rescale=gamma)
            config = PnpConfig(tau=tau, max_iters=max_iters, tol=tol)
            got, route = _held_solve(op, ys, denoiser, config)
            held = any(event[1] is not None for event in route if event[0] == "fold")
            want = _check_held_solve(op, ys, denoiser, config, got, route, stops=tol > 1e-30 or not held)[0]
            if not held:
                assert np.array_equal(got.x_star, want.x_star)
            elif tol == 1e-30:
                outcomes.add("held below round-off")
            for event in route:
                if event[0] == "test" and len(event[1]):
                    outcomes.add("verified" if event[2] == len(event[1]) else "rolled back")

        with mock.patch.object(GmmPrior, "_posterior_mean", mean_spy):
            check()
        assert outcomes == {"verified", "rolled back", "refused", "held below round-off"}

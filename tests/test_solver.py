import importlib.util
import re
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pnplab.solver
from pnplab.denoisers import (
    _BLOCK_FLOATS,
    AffineDenoiser,
    Denoiser,
    MmseDenoiser,
    OutputShrink,
    ScaledDenoiser,
    ShrinkageDenoiser,
    _OutputMap,
    homogeneous_scale,
    tweedie_scale,
)
from pnplab.experiments import resolve_config, run_experiment
from pnplab.linop import Convolve1d, DenseOperator, Identity, LinearOperator, Mask, operator_from_config
from pnplab.prior import GmmPrior
from pnplab.solver import (
    _DIVERGENCE_NORM,
    _SOLVE_STACKS,
    _STOP_BLOCK,
    DivergenceError,
    NoUniqueFixedPointError,
    PnpConfig,
    _block_cap,
    _stop_blocks,
    averagedness_theta,
    compose_averaged,
    linear_fixed_point_oracle,
    pnp_pgd,
    pnp_pgd_batch,
    scaled_affine_map,
)


def _random_nonexpansive_affine(rng, n, norm=0.9):
    w = rng.standard_normal((n, n))
    w *= norm / np.linalg.svd(w, compute_uv=False)[0]
    return AffineDenoiser(w, rng.standard_normal(n))


class _Huge(Denoiser):
    """Sends every signal to entries of 1e200: finite, but with an overflowing norm."""

    dim = 3

    def _apply(self, y):
        return np.full_like(y, 1e200)


class TestAveragedness:
    def test_delta_one(self):
        assert averagedness_theta(1.0) == pytest.approx(1.0)

    def test_delta_sq_two(self):
        assert averagedness_theta(np.sqrt(2.0)) == pytest.approx(2.0 / 3.0)

    def test_asymptote(self):
        assert averagedness_theta(1e3) == pytest.approx(0.5, abs=1e-6)

    def test_small_delta_rejected(self):
        with pytest.raises(ValueError):
            averagedness_theta(0.6)

    def test_in_unit_interval_iff_delta_sq_above_one(self):
        assert 0.5 < averagedness_theta(np.sqrt(1.5)) < 1.0
        assert averagedness_theta(np.sqrt(0.9)) > 1.0


class TestComposeAveraged:
    def test_half_half(self):
        assert compose_averaged(0.5, 0.5) == pytest.approx(2.0 / 3.0)

    def test_composition_matches_closed_form_on_grid(self):
        for delta in np.linspace(1.01, 50.0, 100):
            u = 1.0 / delta**2
            assert abs(compose_averaged(u, 0.5) - averagedness_theta(delta)) <= 1e-14

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(delta=st.floats(min_value=1.0, max_value=1e100, exclude_min=True))
    def test_composition_is_the_closed_form_at_every_scale(self, delta):
        """Composing 1/delta^2-averaged with 1/2-averaged gives delta^2 / (2 delta^2 - 1)."""
        assert abs(compose_averaged(1.0 / delta**2, 0.5) - averagedness_theta(delta)) <= 1e-15

    def test_near_identity_second_operator(self):
        assert compose_averaged(0.3, 1e-9) == pytest.approx(0.3, abs=1e-8)

    def test_arguments_validated(self):
        with pytest.raises(ValueError):
            compose_averaged(0.0, 0.5)
        with pytest.raises(ValueError):
            compose_averaged(0.5, 1.0)


class TestPnpPgd:
    def test_identity_physics_identity_denoiser_one_iteration(self):
        op = Identity(4)
        y = np.array([1.0, -2.0, 0.0, 3.0])
        sd = tweedie_scale(ShrinkageDenoiser(1.0, 4), 2.0)
        res = pnp_pgd(op, y, sd, PnpConfig(tau=1.0), x0=y)
        assert res.converged and res.iterations == 1
        np.testing.assert_allclose(res.x_star, y)

    def test_shrinkage_identity_physics_matches_oracle(self):
        op = Identity(3)
        rng = np.random.default_rng(0)
        y = rng.standard_normal(3)
        base = AffineDenoiser(0.6 * np.eye(3), np.zeros(3))
        sd = tweedie_scale(base, 1.5)
        cfg = PnpConfig(tau=1.0, max_iters=5000, tol=1e-13)
        res = pnp_pgd(op, y, sd, cfg)
        want = linear_fixed_point_oracle(op, y, sd, cfg)
        assert res.converged
        np.testing.assert_allclose(res.x_star, want, rtol=1e-8)

    def test_mask_mmse_convergence_regression(self):
        """Inpainting with the exact posterior mean converges inside the cap."""
        rng = np.random.default_rng(12)
        prior = GmmPrior([1.0], [rng.uniform(-1, 1, 64)], [0.04])
        op = Mask.random(64, 0.2, seed=5)
        clean, _ = prior.sample_pairs(0.1, 1, 3)
        y = op.apply(clean[0])
        sd = tweedie_scale(MmseDenoiser(prior, 0.1), np.sqrt(2.0))
        res = pnp_pgd(op, y, sd, PnpConfig(tau=1.0, max_iters=300, tol=1e-9))
        assert res.converged
        # regression baseline recorded from the first run with these seeds
        assert res.iterations == 168

    def test_residuals_nonincreasing_for_averaged_map(self):
        rng = np.random.default_rng(7)
        n = 8
        base = _random_nonexpansive_affine(rng, n)
        op = DenseOperator(rng.standard_normal((n, n)))
        y = rng.standard_normal(n)
        cfg = PnpConfig(tau=1.0 / op.op_norm_sq(), max_iters=2000, tol=1e-12)
        for delta_sq in (1.2, 2.0, 10.0):
            res = pnp_pgd(op, y, tweedie_scale(base, np.sqrt(delta_sq)), cfg)
            rh = res.residual_history
            assert np.all(np.diff(rh) <= 1e-12 * np.maximum(rh[:-1], 1.0))

    def test_converged_iterate_is_a_fixed_point(self):
        rng = np.random.default_rng(3)
        n = 6
        base = _random_nonexpansive_affine(rng, n)
        op = DenseOperator(rng.standard_normal((4, n)))
        y = rng.standard_normal(4)
        cfg = PnpConfig(tau=1.0 / op.op_norm_sq(), max_iters=20000, tol=1e-10)
        sd = tweedie_scale(base, 1.4)
        res = pnp_pgd(op, y, sd, cfg)
        assert res.converged
        reapplied = sd(op.gradient_step(y, cfg.tau, res.x_star))
        defect = np.linalg.norm(reapplied - res.x_star)
        assert defect <= 2.0 * cfg.tol * (1.0 + np.linalg.norm(res.x_star))

    def test_step_size_warning_recorded_not_raised(self):
        op = DenseOperator(2.0 * np.eye(2))
        y = np.zeros(2)
        sd = tweedie_scale(ShrinkageDenoiser(0.5, 2), 1.0)
        res = pnp_pgd(op, y, sd, PnpConfig(tau=1.0, max_iters=5))
        assert res.step_size_warning

    def test_divergence_raises_with_iteration_index(self):
        # tau far above the certificate turns the gradient step expansive
        op = DenseOperator(2.0 * np.eye(2))
        y = np.array([1.0, 1.0])
        sd = tweedie_scale(ShrinkageDenoiser(1.0, 2), 1.0)
        with pytest.raises(DivergenceError) as err:
            pnp_pgd(op, y, sd, PnpConfig(tau=1.0, max_iters=100), x0=np.array([5.0, 5.0]))
        assert err.value.iteration >= 1
        # finite entries of 1e200, whose norm overflows, diverge at once and with no
        # overflow warning, at the iteration the batch records
        sd = tweedie_scale(_Huge(), 1.0)
        with pytest.raises(DivergenceError) as err:
            pnp_pgd(Identity(3), np.zeros(3), sd, PnpConfig(tau=1.0))
        batch = pnp_pgd_batch(Identity(3), np.zeros((1, 3)), sd, PnpConfig(tau=1.0))
        assert err.value.iteration == batch.iterations[0] == 1 and batch.diverged[0]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("op", [Identity(3), Mask([True, False, True])], ids=["identity", "mask"])
    def test_an_overflowing_step_diverges_without_a_warning(self, op):
        """A step whose product with the residual overflows is a divergence at the first
        iteration, as the batch records it, not an overflow warning."""
        sd = tweedie_scale(ShrinkageDenoiser(0.5, 3), 2.0)
        cfg = PnpConfig(tau=1.7e308)
        with pytest.raises(DivergenceError) as err:
            pnp_pgd(op, np.full(3, 2.0), sd, cfg)
        batch = pnp_pgd_batch(op, np.full((1, 3), 2.0), sd, cfg)
        assert err.value.iteration == batch.iterations[0] == 1 and batch.diverged[0]

    def test_history_switch(self):
        op = Identity(2)
        y = np.zeros(2)
        sd = tweedie_scale(ShrinkageDenoiser(0.5, 2), 1.5)
        res2 = pnp_pgd(op, y, sd, PnpConfig(tau=1.0, max_iters=50, tol=1e-9))
        assert res2.residual_history.size == res2.iterations

    def test_default_tau_is_certified_step(self):
        """With tau unset the solver uses 1/||A^T A|| and stays certified."""
        rng = np.random.default_rng(4)
        op = DenseOperator(rng.standard_normal((6, 6)))
        base = _random_nonexpansive_affine(rng, 6)
        y = rng.standard_normal(6)
        cfg = PnpConfig(max_iters=20000, tol=1e-12)
        res = pnp_pgd(op, y, tweedie_scale(base, 1.5), cfg)
        assert res.converged and not res.step_size_warning
        want = linear_fixed_point_oracle(op, y, tweedie_scale(base, 1.5), cfg)
        np.testing.assert_allclose(res.x_star, want, rtol=1e-8, atol=1e-10)

    def test_config_validated(self):
        with pytest.raises(ValueError):
            PnpConfig(tau=-1.0)
        with pytest.raises(ValueError):
            PnpConfig(tau=1.0, tol=0.0)
        with pytest.raises(ValueError):
            PnpConfig(tau=1.0, max_iters=0)

    @pytest.mark.parametrize(
        "fields",
        [
            {"tau": float("nan")},
            {"tau": float("inf")},
            {"tol": float("nan")},
            {"tol": float("inf")},
        ],
    )
    def test_non_finite_step_or_tolerance_rejected(self, fields):
        with pytest.raises(ValueError, match="positive and finite"):
            PnpConfig(**fields)

    def test_step_and_tolerance_stored_as_floats(self):
        """A JSON integer reaches the solver as a float, even one past int64."""
        cfg = PnpConfig(tau=2**64, tol=1)
        assert type(cfg.tau) is float and cfg.tau == 2.0**64
        assert type(cfg.tol) is float and cfg.tol == 1.0
        res = pnp_pgd_batch(Identity(2), np.ones((1, 2)), tweedie_scale(ShrinkageDenoiser(0.5, 2), 1.0), cfg)
        assert res.diverged[0] and res.step_size_warning

    @pytest.mark.parametrize("field", ["tau", "tol"])
    def test_integers_past_the_float_range_rejected(self, field):
        with pytest.raises(ValueError, match=f"^'{field}' is too large for a float$"):
            PnpConfig(**{field: 10**400})

    def test_boolean_max_iters_rejected(self):
        for bad in (True, 2.5):
            with pytest.raises(ValueError, match=f"^'max_iters' must be a nonnegative integer, got {bad}$") as info:
                PnpConfig(max_iters=bad)
            assert type(info.value) is ValueError

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"tau": "1.0"}, "'tau' must be a number, got '1.0'"),
            ({"tol": "1e-9"}, "'tol' must be a number, got '1e-9'"),
            ({"tau": [1.0]}, r"'tau' must be a number, got \[1.0\]"),
        ],
    )
    def test_strings_are_not_numbers(self, fields, message):
        with pytest.raises(ValueError, match=message):
            PnpConfig(**fields)


class TestLinearOracle:
    def test_identity_base_returns_data(self):
        # W = I, b = 0, A = I, tau = 1: the map is constant at y
        op = Identity(3)
        y = np.array([0.5, -2.0, 1.0])
        base = AffineDenoiser(np.eye(3) * 0.999999, np.zeros(3))
        sd = tweedie_scale(base, 1.0)
        cfg = PnpConfig(tau=1.0)
        np.testing.assert_allclose(linear_fixed_point_oracle(op, y, sd, cfg), y, rtol=1e-5)

    def test_one_dimensional_hand_case(self):
        # A = 1, W = alpha, tau = 1, delta = 1: M = 0 and x* = alpha * y
        op = DenseOperator([[1.0]])
        base = AffineDenoiser([[0.3]], [0.0])
        sd = tweedie_scale(base, 1.0)
        got = linear_fixed_point_oracle(op, np.array([2.0]), sd, PnpConfig(tau=1.0))
        np.testing.assert_allclose(got, [0.6], rtol=1e-14)

    def test_agrees_with_long_iteration_on_random_instance(self):
        rng = np.random.default_rng(42)
        n = 8
        base = _random_nonexpansive_affine(rng, n)
        op = DenseOperator(rng.standard_normal((n, n)))
        y = rng.standard_normal(n)
        cfg = PnpConfig(tau=1.0 / op.op_norm_sq(), max_iters=10000, tol=1e-13)
        sd = tweedie_scale(base, np.sqrt(2.0))
        res = pnp_pgd(op, y, sd, cfg)
        want = linear_fixed_point_oracle(op, y, sd, cfg)
        np.testing.assert_allclose(res.x_star, want, rtol=1e-8, atol=1e-10)

    def test_homogeneous_mode_also_affine(self):
        rng = np.random.default_rng(6)
        n = 5
        base = _random_nonexpansive_affine(rng, n, norm=0.7)
        op = Identity(n)
        y = rng.standard_normal(n)
        cfg = PnpConfig(tau=1.0, max_iters=5000, tol=1e-13)
        sd = homogeneous_scale(base, 3.0)
        res = pnp_pgd(op, y, sd, cfg)
        want = linear_fixed_point_oracle(op, y, sd, cfg)
        np.testing.assert_allclose(res.x_star, want, rtol=1e-8)

    def test_non_contractive_map_rejected(self):
        op = Identity(2)
        base = AffineDenoiser(np.eye(2), np.array([1.0, 0.0]))  # pure translation
        sd = tweedie_scale(base, 1.0)
        # with A = I, tau = 0.5 the map matrix is 0.5 I + ... spectral radius 0.5;
        # use tau tiny so M = (1 - tau) I stays at radius ~1
        with pytest.raises(NoUniqueFixedPointError):
            linear_fixed_point_oracle(op, np.zeros(2), sd, PnpConfig(tau=1e-14))

    def test_requires_affine_base(self):
        sd = tweedie_scale(ShrinkageDenoiser(0.5, 2), 2.0)
        with pytest.raises(ValueError):
            scaled_affine_map(sd)


class TestThetaContract:
    def test_averaged_operator_inequality_on_random_pairs(self):
        """The composed map satisfies the averaged-operator contraction estimate."""
        rng = np.random.default_rng(11)
        n = 6
        for _ in range(10):
            base = _random_nonexpansive_affine(rng, n, norm=float(rng.uniform(0.2, 1.0)))
            op = DenseOperator(rng.standard_normal((n, n)))
            tau = 1.0 / op.op_norm_sq()
            for delta_sq in (1.2, 2.0, 10.0):
                sd = tweedie_scale(base, np.sqrt(delta_sq))
                theta = averagedness_theta(np.sqrt(delta_sq))
                s_matrix, _ = scaled_affine_map(sd)
                m = s_matrix @ (np.eye(n) - tau * op.matrix.T @ op.matrix)
                for _ in range(10):
                    d = rng.standard_normal(n)
                    lhs = np.sum((m @ d) ** 2) + (1 - theta) / theta * np.sum(
                        ((np.eye(n) - m) @ d) ** 2
                    )
                    assert lhs <= np.sum(d**2) + 1e-9


def _serial_rows(op, ys, base, deltas, mode, gamma, cfg):
    """Per row: (iterations, converged, diverged, x_star or None) from separate solves."""
    out = []
    for y, delta in zip(ys, deltas):
        scaled = ScaledDenoiser(base, delta, mode=mode, gamma_rescale=gamma)
        try:
            res = pnp_pgd(op, y, scaled, cfg)
            out.append((res.iterations, res.converged, False, res.x_star))
        except DivergenceError as exc:
            out.append((exc.iteration, False, True, None))
    return out


def _assert_batch_matches_serial(op, ys, base, deltas, mode, gamma, cfg):
    batch = pnp_pgd_batch(
        op, ys, ScaledDenoiser(base, np.asarray(deltas), mode=mode, gamma_rescale=gamma), cfg
    )
    serial = _serial_rows(op, ys, base, deltas, mode, gamma, cfg)
    for row, (iterations, converged, diverged, x_star) in enumerate(serial):
        assert batch.iterations[row] == iterations
        assert batch.converged[row] == converged
        assert batch.diverged[row] == diverged
        if x_star is not None:
            gap = np.linalg.norm(batch.x_star[row] - x_star)
            assert gap <= 1e-12 * (1.0 + np.linalg.norm(x_star))
    return batch


def _operator(kind, n, rng):
    if kind == "identity":
        return Identity(n)
    if kind == "mask":
        observed = rng.random(n) < 0.7
        observed[0] = True
        return Mask(observed)
    if kind == "conv1d":
        return Convolve1d(rng.uniform(0.1, 1.0, min(3, n)), n)
    return DenseOperator(rng.standard_normal((n + 1, n)))


class TestBatch:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        kind=st.sampled_from(["identity", "mask", "conv1d", "dense"]),
        base_kind=st.sampled_from(["affine", "mmse", "mmse1", "shrinkage"]),
        mode=st.sampled_from(["tweedie", "homogeneous"]),
        gamma=st.booleans(),
        norm=st.sampled_from([0.5, 0.95, 1.5, 4.0]),
        tau_factor=st.sampled_from([1.0, 1.9]),
        deltas=st.lists(st.floats(0.5, 30.0), min_size=1, max_size=6),
        seed=st.integers(0, 2**16),
    )
    def test_batch_equals_serial(
        self, kind, base_kind, mode, gamma, norm, tau_factor, deltas, seed
    ):
        """One Gaussian and shrinkage have a pair, which the batch folds over a mask; every
        other solve runs the chain as written, bitwise the serial rows up to the sign of a zero."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        op = _operator(kind, n, rng)
        if base_kind == "affine":
            base = _random_nonexpansive_affine(rng, n, norm=norm)
        elif base_kind == "shrinkage":
            base = ShrinkageDenoiser(min(norm, 1.0), n)
        else:
            k = 2 if base_kind == "mmse" else 1
            prior = GmmPrior(np.full(k, 1.0 / k), rng.standard_normal((k, n)), [0.3, 0.6][:k])
            base = MmseDenoiser(prior, 0.2)
        ys = 2.0 * rng.standard_normal((len(deltas), op.out_dim))
        cfg = PnpConfig(tau=tau_factor / op.op_norm_sq(), max_iters=120, tol=1e-9)
        batch = _assert_batch_matches_serial(op, ys, base, deltas, mode, gamma, cfg)
        if kind == "conv1d" and base_kind in ("mmse1", "shrinkage"):
            serial = _serial_rows(op, ys, base, deltas, mode, gamma, cfg)
            for row, (_, _, _, x_star) in enumerate(serial):
                if x_star is not None:
                    assert np.array_equal(batch.x_star[row], x_star)

    def test_stack_mixes_diverging_capped_and_converging_rows(self):
        n = 4
        base = AffineDenoiser(5.0 * np.eye(n), 0.3 * np.ones(n))
        ys = np.random.default_rng(0).standard_normal((3, n))
        cfg = PnpConfig(tau=1.5, max_iters=200, tol=1e-9)
        batch = _assert_batch_matches_serial(
            Identity(n), ys, base, [1.0, 2.0, 4.0], "tweedie", False, cfg
        )
        assert list(batch.diverged) == [True, False, False]
        assert list(batch.converged) == [False, False, True]
        assert batch.iterations[1] == 200
        assert batch.step_size_warning

    def test_one_row_reproduces_pnp_pgd_exactly(self):
        rng = np.random.default_rng(4)
        n = 10
        prior = GmmPrior([0.3, 0.7], rng.standard_normal((2, n)), [0.2, 0.5])
        op = Mask.random(n, 0.3, seed=1)
        y = op.apply(rng.standard_normal(n))
        scaled = tweedie_scale(MmseDenoiser(prior, 0.1), 3.0, gamma_rescale=True)
        cfg = PnpConfig(tau=1.0, max_iters=300, tol=1e-10)
        serial = pnp_pgd(op, y, scaled, cfg)
        batch = pnp_pgd_batch(op, y[None, :], scaled, cfg)
        assert batch.iterations[0] == serial.iterations
        assert np.array_equal(batch.x_star[0], serial.x_star)

    def test_inputs_checked_at_the_boundary(self):
        op = Identity(3)
        scaled = tweedie_scale(ShrinkageDenoiser(0.5, 3), 2.0)
        cfg = PnpConfig(tau=1.0)
        with pytest.raises(ValueError, match="stack"):
            pnp_pgd_batch(op, np.zeros(3), scaled, cfg)
        with pytest.raises(ValueError, match="non-finite"):
            pnp_pgd_batch(op, np.full((2, 3), np.nan), scaled, cfg)
        with pytest.raises(ValueError, match="stack of 3 rows"):
            per_row = ScaledDenoiser(ShrinkageDenoiser(0.5, 3), np.array([1.0, 2.0, 3.0]))
            pnp_pgd_batch(op, np.zeros((2, 3)), per_row, cfg)
        with pytest.raises(ValueError, match="denoiser dim"):
            pnp_pgd_batch(Identity(4), np.zeros((2, 4)), scaled, cfg)

    @pytest.mark.parametrize(
        "plain",
        [
            MmseDenoiser(GmmPrior([0.5, 0.5], np.eye(2, 3), [0.3, 0.6]), 0.2),
            ShrinkageDenoiser(0.5, 3),
            AffineDenoiser(0.5 * np.eye(3), np.ones(3)),
        ],
        ids=["mmse", "shrinkage", "affine"],
    )
    @pytest.mark.parametrize("kind", ["mask", "dense"])
    def test_a_plain_base_equals_pnp_pgd_row_by_row(self, plain, kind):
        """A plain base runs as ``1 * base(y)``: a one-row batch stops where :func:`pnp_pgd`
        stops with the base itself, bitwise unless the base has a pair over a mask, which the
        solve folds, and then to round-off."""
        rng = np.random.default_rng(0)
        op = Mask(np.array([True, False, True])) if kind == "mask" else DenseOperator(rng.standard_normal((4, 3)))
        ys = 2.0 * rng.standard_normal((3, op.out_dim))
        cfg = PnpConfig(max_iters=2000, tol=1e-10)
        for y in ys:
            batch = pnp_pgd_batch(op, y[None, :], plain, cfg)
            serial = pnp_pgd(op, y, plain, cfg)
            assert serial.converged
            assert (batch.iterations[0], batch.converged[0]) == (serial.iterations, serial.converged)
            if plain._diagonal() is None or kind == "dense":
                assert np.array_equal(batch.x_star[0], serial.x_star)
            else:
                assert np.max(np.abs(batch.x_star[0] - serial.x_star)) <= 1e-13 * np.max(np.abs(serial.x_star))


def _counted(calls, name, route):
    """``route`` wrapped to count its calls in ``calls[name]``, for patching onto a class."""

    def spied(*args, **kwargs):
        calls[name] += 1
        return route(*args, **kwargs)

    return spied


class TestFusedStep:
    """Over a mask or the identity a chain with a pair takes the gradient step into its
    multiply-add: one multiply and one add per iteration, equal to :func:`pnp_pgd`, which
    runs the maps as written, to round-off, and bitwise ``x <- coef x + off`` on the
    hidden coordinates."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        kind=st.sampled_from(["mask", "identity", "all-hidden"]),
        tau=st.sampled_from([None, 1.0, "fraction", "overflow"]),
        base_kind=st.sampled_from(["mmse", "shrinkage"]),
        mode=st.sampled_from(ScaledDenoiser.MODES),
        gamma=st.booleans(),
        per_row=st.booleans(),
        shrink=st.booleans(),
        log_scale=st.floats(-2.0, 3.0),
        seed=st.integers(0, 2**16),
    )
    def test_a_fused_solve_equals_the_serial_solve(
        self, kind, tau, base_kind, mode, gamma, per_row, shrink, log_scale, seed
    ):
        """``tau = "overflow"`` is the largest double, far above the certificate, so the
        shift ``coef tau d y + off`` overflows on any observed entry past 1 in magnitude
        and the row diverges at its first iteration, as the serial solve does."""
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(1, 17)), int(rng.integers(1, 5))
        scale = 10.0**log_scale
        if kind == "identity":
            op = Identity(n)
        else:
            op = Mask(rng.random(n) < (0.7 if kind == "mask" else 0.0))
        if base_kind == "mmse":
            prior = GmmPrior([1.0], scale * rng.standard_normal((1, n)), [scale**2 * rng.uniform(0.1, 1.0)])
            base = MmseDenoiser(prior, scale * rng.uniform(0.05, 1.0))
        else:
            base = ShrinkageDenoiser(rng.uniform(0.3, 1.0), n)
        if shrink:
            base = OutputShrink(base, 0.9)
        deltas = rng.uniform(0.5, 5.0, m) if per_row else float(rng.uniform(0.5, 5.0))
        if tau == "fraction":
            tau = float(rng.uniform(0.1, 1.0))
        elif tau == "overflow":
            tau = float(np.finfo(float).max)
        cfg = PnpConfig(tau=tau, max_iters=150, tol=1e-10)
        ys = scale * rng.standard_normal((m, n))
        scaled = ScaledDenoiser(base, deltas, mode=mode, gamma_rescale=gamma)
        pair = scaled._diagonal()
        assert isinstance(op, Mask) and pair is not None
        coef, off = (np.broadcast_to(v, (m, n)) for v in pair)
        batch = pnp_pgd_batch(op, ys, scaled, cfg)
        hidden = op.keep == 0.0
        # No errstate here: the serial solve reports an overflowing step without a warning.
        serial = _serial_rows(op, ys, base, np.broadcast_to(deltas, (m,)), mode, gamma, cfg)
        for row, (iterations, converged, diverged, x_star) in enumerate(serial):
            assert batch.iterations[row] == iterations
            assert batch.converged[row] == converged
            assert batch.diverged[row] == diverged
            if x_star is not None:
                fused = batch.x_star[row]
                assert np.max(np.abs(fused - x_star)) <= 1e-13 * np.max(np.abs(x_star))
                folded = np.zeros(n)
                for _ in range(iterations):
                    folded = coef[row] * folded + off[row]
                assert np.array_equal(fused[hidden], folded[hidden])

    def test_the_default_stability_loop_runs_neither_the_step_nor_the_denoiser(self, monkeypatch):
        """Tier-1 guard for the fold: stability's folded one-Gaussian chain over a mask calls
        neither route, and conv-reg's K = 3 chain, which does not fold, calls the denoiser on
        each of its 300 iterations and writes its masked step itself. A convolution's solve
        takes the operator's gradient once per iteration, so the spy sees that route."""
        calls = {"step": 0, "denoiser": 0}
        monkeypatch.setattr(
            LinearOperator, "_normal_residual", _counted(calls, "step", LinearOperator._normal_residual)
        )
        monkeypatch.setattr(_OutputMap, "_apply", _counted(calls, "denoiser", _OutputMap._apply))
        run_experiment("conv-reg", {})
        assert calls == {"step": 0, "denoiser": 300}
        calls.update(step=0, denoiser=0)
        run_experiment("stability", {})
        assert calls == {"step": 0, "denoiser": 0}
        calls.update(step=0, denoiser=0)
        op = Convolve1d(np.array([0.5, 0.3]), 4)
        cfg = PnpConfig(max_iters=5, tol=1e-300)
        ys = np.random.default_rng(0).standard_normal((2, 4))
        batch = pnp_pgd_batch(op, ys, tweedie_scale(ShrinkageDenoiser(0.5, 4), 2.0), cfg)
        assert list(batch.iterations) == [5, 5]
        assert calls["step"] == 5


class _TaggedRows(Denoiser):
    """``v -> v / 2 + c`` row by row, except on rows whose first entry is a tag:
    1 gives NaN, 2 gives inf, 3 gives entries of 1e200 (their squares
    overflow), 4 gives entries of 1e12 (just past the divergence bound) and 5
    gives entries of 1e11 (inside it)."""

    TAGS = {1.0: np.nan, 2.0: np.inf, 3.0: 1e200, 4.0: 1e12, 5.0: 1e11}

    def __init__(self, offset):
        self.offset = np.asarray(offset, dtype=np.float64)
        self.dim = self.offset.size

    def __call__(self, y):
        y = self._check(y)
        out = 0.5 * y + self.offset
        for tag, value in self.TAGS.items():
            out[y[:, 0] == tag] = value
        return out


def _old_stop_oracle(op, ys, denoiser, tau, config):
    """Every row iterated on its own under the stop test that used
    ``np.linalg.norm`` and a separate ``isfinite`` pass."""
    m = ys.shape[0]
    iterations = np.full(m, config.max_iters)
    converged = np.zeros(m, dtype=bool)
    diverged = np.zeros(m, dtype=bool)
    running = np.ones(m, dtype=bool)
    x = np.zeros((m, op.in_dim))
    for i in range(config.max_iters):
        x_next = denoiser(x - tau * op._adjoint(op._apply(x) - ys))
        norms = np.linalg.norm(x_next, axis=1)
        bad = ~np.all(np.isfinite(x_next), axis=1) | (norms > _DIVERGENCE_NORM)
        residual = np.linalg.norm(x_next - x, axis=1)
        done = running & (bad | (residual <= config.tol * (1.0 + norms)))
        iterations[done] = i + 1
        diverged[done] = bad[done]
        converged[done] = ~bad[done]
        running &= ~done
        if not running.any():
            break
        x = x_next
    return iterations, converged, diverged


class TestStopTest:
    def test_nan_inf_overflowing_and_large_rows_stop_as_before(self):
        op = Mask(np.array([True, False, False]))
        ys = np.zeros((6, 3))
        ys[:, 0] = [1.0, 2.0, 0.25, 3.0, 4.0, 5.0]
        base = _TaggedRows([0.0, 1.0, -2.0])
        denoiser = ScaledDenoiser(base, np.array([1.0, 1.0, 1.5, 1.0, 1.0, 1.0]))
        cfg = PnpConfig(tau=1.0, max_iters=200, tol=1e-9)
        with np.errstate(over="ignore", invalid="ignore"):
            batch = pnp_pgd_batch(op, ys, denoiser, cfg)
            iterations, converged, diverged = _old_stop_oracle(op, ys, denoiser, 1.0, cfg)
        np.testing.assert_array_equal(batch.iterations, iterations)
        np.testing.assert_array_equal(batch.converged, converged)
        np.testing.assert_array_equal(batch.diverged, diverged)
        assert list(batch.diverged) == [True, True, False, True, True, False]
        assert list(batch.iterations[[0, 1, 3, 4, 5]]) == [1, 1, 1, 1, 2]
        assert 2 < batch.iterations[2] < cfg.max_iters and batch.converged[2]
        assert np.all(np.isfinite(batch.x_star))


# The clock's width: a block is at most n iterations, so its few rows need this many
# entries for their blocks to grow past _STOP_BLOCK and reach their cap.
_CLOCK_DIM = 32


class _Clock(Denoiser):
    """A test denoiser on vectors of ``_CLOCK_DIM`` whose rows stop at iterations set by their data.

    Entry 0 counts: each call raises it by one, up to entry 1, so under a mask
    that observes entries 1 and 2 with ``tau = 1`` a row whose data holds ``s``
    in entry 1 converges at iteration ``s + 1``. A positive entry 2, ``d``,
    makes the row jump to entries of 1e13, past the divergence bound, at
    iteration ``d`` unless it converged first. A row that has jumped is
    multiplied by 1e150 on every later call, so its squares overflow one
    iteration after it diverged and its entries two iterations after. The
    entries past the third are copied, and the mask hides them, so they stay
    zero until the row jumps.
    """

    dim = _CLOCK_DIM

    def __call__(self, y):
        y = self._check(y)
        out = y.copy()
        out[:, 0] = np.minimum(y[:, 0] + 1.0, y[:, 1])
        out[(y[:, 2] > 0) & (y[:, 0] + 1.0 >= y[:, 2])] = 1e13
        blown = np.abs(y[:, 0]) >= 1e12
        out[blown] = 1e150 * y[blown]
        return out


_CLOCK_OP = Mask(np.isin(np.arange(_CLOCK_DIM), (1, 2)))


def _clock_point(count, s, d):
    """The clock's iterate holding ``count``, ``s`` and ``d`` in its first three entries."""
    return np.pad(np.array([count, s, d], dtype=float), (0, _CLOCK_DIM - 3))


def _assert_clock_rows_stop_as_before(stops, max_iters):
    """Rows given as (s, d) pairs stop as under the old stop test and as the serial solve."""
    ys = np.array([_clock_point(0.0, s, d) for s, d in stops])
    m = ys.shape[0]
    cfg = PnpConfig(tau=1.0, max_iters=max_iters, tol=1e-9)
    denoiser = ScaledDenoiser(_Clock(), np.ones(m))
    # No errstate here: iterates computed after a row stopped must not warn.
    batch = pnp_pgd_batch(_CLOCK_OP, ys, denoiser, cfg)
    with np.errstate(over="ignore", invalid="ignore"):
        iterations, converged, diverged = _old_stop_oracle(_CLOCK_OP, ys, denoiser, 1.0, cfg)
    np.testing.assert_array_equal(batch.iterations, iterations)
    np.testing.assert_array_equal(batch.converged, converged)
    np.testing.assert_array_equal(batch.diverged, diverged)
    serial = _serial_rows(_CLOCK_OP, ys, _Clock(), [1.0] * m, "tweedie", False, cfg)
    for row, (its, conv, div, x_star) in enumerate(serial):
        s, d = stops[row]
        assert (batch.iterations[row], batch.converged[row], batch.diverged[row]) == (its, conv, div)
        if div:
            # the last finite iterate: d - 1 iterations of counting from zero
            x_star = _clock_point(min(d - 1, s), s, d) if d > 1 else np.zeros(_CLOCK_DIM)
        assert np.array_equal(batch.x_star[row], x_star)
    return batch


def _whole_stack_oracle(op, ys, denoiser, tau, config):
    """The batched loop over the whole stack with a stop test after every
    iteration, each row recorded at its first stop: (x_star, iterations,
    converged, diverged)."""
    m = ys.shape[0]
    iterations = np.full(m, config.max_iters)
    converged = np.zeros(m, dtype=bool)
    diverged = np.zeros(m, dtype=bool)
    running = np.ones(m, dtype=bool)
    x = np.zeros((m, op.in_dim))
    xs = x.copy()
    for i in range(config.max_iters):
        x_next = denoiser(xs - tau * op._adjoint(op._apply(xs) - ys))
        norms = np.sqrt(np.add.reduce(np.square(x_next), axis=1))
        bad = ~(norms <= _DIVERGENCE_NORM)
        residual = np.sqrt(np.add.reduce(np.square(x_next - xs), axis=1))
        done = running & (bad | (residual <= config.tol * (1.0 + norms)))
        iterations[done] = i + 1
        diverged[done] = bad[done]
        converged[done] = ~bad[done]
        x[done] = np.where(bad[done, None], xs[done], x_next[done])
        running &= ~done
        if not running.any():
            break
        xs = x_next
    x[running] = xs[running]
    return x, iterations, converged, diverged


class TestStopBlocks:
    """The stop test runs once per block of ``_STOP_BLOCK`` iterations, or of an
    eighth of the iterations run, as far as the block fits its float budget."""

    @pytest.mark.parametrize("kind", ["mask", "conv1d", "dense"])
    def test_a_row_left_alone_runs_alone(self, kind):
        """Under homogeneous scaling of an affine base, a quarter of these stacks
        end with one row left running after the others stopped; it stays in
        the whole stack, whose matrix products round differently from those
        of a one-row stack, to the last iterate."""
        for seed in range(40):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 9))
            op = _operator(kind, n, rng)
            base = _random_nonexpansive_affine(rng, n, norm=0.95)
            scaled = ScaledDenoiser(base, rng.uniform(0.5, 30.0, 4), mode="homogeneous")
            ys = 2.0 * rng.standard_normal((4, op.out_dim))
            cfg = PnpConfig(tau=1.0 / op.op_norm_sq(), max_iters=150, tol=1e-9)
            batch = pnp_pgd_batch(op, ys, scaled, cfg)
            x_star, iterations, _, _ = _whole_stack_oracle(op, ys, scaled, cfg.tau, cfg)
            np.testing.assert_array_equal(batch.iterations, iterations)
            assert np.array_equal(batch.x_star, x_star)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        kind=st.sampled_from(["identity", "mask", "conv1d", "dense"]),
        base_kind=st.sampled_from(["affine", "mmse"]),
        mode=st.sampled_from(["tweedie", "homogeneous"]),
        norm=st.sampled_from([0.5, 0.95, 4.0]),
        max_iters=st.integers(1, 150),
        rows=st.integers(1, 8),
        step=st.one_of(st.just(1.0), st.floats(0.1, 1.0, exclude_min=True, exclude_max=True)),
        seed=st.integers(0, 2**16),
    )
    def test_equals_a_stop_test_after_every_iteration_bitwise(
        self, kind, base_kind, mode, norm, max_iters, rows, step, seed
    ):
        """Matrix products included: every row runs in the whole stack until
        the last row stops, as it does under a stop test after every
        iteration. ``step`` is the step's fraction of the certified
        ``1 / ||A^T A||``, so a mask or the identity also runs steps other than
        1 against the textbook ``x - tau A^T (A x - y)``."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        op = _operator(kind, n, rng)
        if base_kind == "affine":
            base = _random_nonexpansive_affine(rng, n, norm=norm)
        else:
            base = MmseDenoiser(GmmPrior([0.5, 0.5], rng.standard_normal((2, n)), [0.3, 0.6]), 0.2)
        scaled = ScaledDenoiser(base, rng.uniform(0.5, 30.0, rows), mode=mode)
        ys = 2.0 * rng.standard_normal((rows, op.out_dim))
        cfg = PnpConfig(tau=step / op.op_norm_sq(), max_iters=max_iters, tol=1e-9)
        batch = pnp_pgd_batch(op, ys, scaled, cfg)
        with np.errstate(over="ignore", invalid="ignore"):
            x_star, iterations, converged, diverged = _whole_stack_oracle(op, ys, scaled, cfg.tau, cfg)
        np.testing.assert_array_equal(batch.iterations, iterations)
        np.testing.assert_array_equal(batch.converged, converged)
        np.testing.assert_array_equal(batch.diverged, diverged)
        assert np.array_equal(batch.x_star, x_star)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_a_narrow_stack_stops_in_blocks_of_n_bitwise(self, n):
        """A block is at most n iterations, so these stacks run blocks of one to three
        iterations, and rows converge in many of them."""
        rng = np.random.default_rng(n)
        m = 40
        base = MmseDenoiser(GmmPrior([0.5, 0.5], rng.standard_normal((2, n)), [0.3, 0.6]), 0.2)
        scaled = ScaledDenoiser(base, np.geomspace(0.5, 40.0, m), mode="tweedie")
        op = Mask(np.arange(n) > 0)
        ys = 2.0 * rng.standard_normal((m, n))
        cfg = PnpConfig(tau=1.0, max_iters=3000, tol=1e-12)
        batch = pnp_pgd_batch(op, ys, scaled, cfg)
        with np.errstate(over="ignore", invalid="ignore"):
            x_star, iterations, converged, diverged = _whole_stack_oracle(op, ys, scaled, 1.0, cfg)
        np.testing.assert_array_equal(batch.iterations, iterations)
        np.testing.assert_array_equal(batch.converged, converged)
        np.testing.assert_array_equal(batch.diverged, diverged)
        assert np.array_equal(batch.x_star, x_star)
        assert len(np.unique(iterations[converged])) >= 10

    @pytest.mark.parametrize(
        "max_iters", [1, _STOP_BLOCK - 1, _STOP_BLOCK, _STOP_BLOCK + 1, 2 * _STOP_BLOCK + 3, 60]
    )
    def test_rows_stop_at_every_offset_of_a_block(self, max_iters):
        span = 3 * _STOP_BLOCK + 2
        converging = [(s, 0) for s in range(span)]
        diverging = [(span, d) for d in range(1, span + 1)]
        batch = _assert_clock_rows_stop_as_before(converging + diverging, max_iters)
        # every offset inside a block is a stop, by convergence and by divergence
        expected = np.minimum(np.arange(1, span + 1), max_iters)
        np.testing.assert_array_equal(batch.iterations[:span], expected)
        np.testing.assert_array_equal(batch.iterations[span:], expected)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        max_iters=st.integers(1, 4 * _STOP_BLOCK + 3),
        stops=st.lists(
            st.tuples(st.integers(0, 4 * _STOP_BLOCK), st.integers(0, 4 * _STOP_BLOCK)),
            min_size=1,
            max_size=9,
        ),
    )
    def test_random_stops_match_the_old_stop_test_and_the_serial_solve(self, max_iters, stops):
        _assert_clock_rows_stop_as_before(stops, max_iters)

    @pytest.mark.parametrize("stop", range(1, 2 * _STOP_BLOCK + 2))
    def test_one_row_reproduces_pnp_pgd_bitwise_at_each_stop(self, stop):
        """A unit step skips the step multiply and any other step keeps it;
        both stop where ``pnp_pgd`` does: at the cap ``stop`` or, past the
        fixture's own convergence, there."""
        rng = np.random.default_rng(9)
        n = 12
        prior = GmmPrior([0.4, 0.6], rng.standard_normal((2, n)), [0.3, 0.5])
        op = Mask.random(n, 0.25, seed=2)
        y = op.apply(rng.standard_normal(n))
        scaled = tweedie_scale(MmseDenoiser(prior, 0.2), 1.7, gamma_rescale=True)
        for tau in (1.0, 0.7):
            converges_at = pnp_pgd(op, y, scaled, PnpConfig(tau=tau, max_iters=10_000)).iterations
            cfg = PnpConfig(tau=tau, max_iters=stop, tol=1e-9)
            serial = pnp_pgd(op, y, scaled, cfg)
            batch = pnp_pgd_batch(op, y[None, :], scaled, cfg)
            assert serial.iterations == batch.iterations[0] == min(stop, converges_at)
            assert serial.converged == batch.converged[0] == (stop >= converges_at)
            assert np.array_equal(batch.x_star[0], serial.x_star)
        # the same stop reached by convergence
        _assert_clock_rows_stop_as_before([(stop - 1, 0)], 2 * _STOP_BLOCK + 2)

    def test_row_diverging_at_once_and_overflowing_later_raises_no_warning(self):
        # Row 0 jumps past the bound at iteration 1 and overflows at 2 and 3;
        # row 1 keeps the block running until it converges at iteration 6.
        batch = _assert_clock_rows_stop_as_before([(40, 1), (5, 0)], 50)
        assert list(batch.iterations) == [1, 6]
        assert list(batch.diverged) == [True, False]
        assert np.array_equal(batch.x_star[0], np.zeros(_CLOCK_DIM))

    @pytest.mark.parametrize(
        "m, n, max_iters, cap",
        [
            (32, 64, 300, 8),  # conv-reg's stack: the fixed blocks of 8
            (10, 64, 20000, 25),  # stability's stack
            (1, 12, 400, 12),  # a one-row stack: n caps its blocks
            (1, 3, 5, 3),  # never over n, so here under _STOP_BLOCK
            (29, 64, 10**6, _STOP_BLOCK),  # past m n = 1820 no larger block fits
            (4, _CLOCK_DIM, 10**6, _CLOCK_DIM),  # the clock's rows: n cuts the budget's 128
            (4, 100, 10**6, 40),  # the budget cuts n
            (10**4, 10**4, 10**6, _STOP_BLOCK),
        ],
    )
    def test_schedule_fits_the_budget_and_bounds_the_overshoot(self, m, n, max_iters, cap):
        assert _block_cap(m, n, max_iters) == cap
        # A block is at most n iterations, so each of the stop test's (block, m) arrays is one stack at most.
        assert cap <= n
        # A grown block's iterates after the first, and their squares, fit the budget.
        assert cap == min(_STOP_BLOCK, n) or 2 * cap * m * n <= _BLOCK_FLOATS
        starts, sizes = zip(*_stop_blocks(cap, min(max_iters, 50_000)))
        assert starts[0] == 0 and sum(sizes) == min(max_iters, 50_000)
        assert np.array_equal(np.cumsum(sizes)[:-1], starts[1:])
        for start, size in zip(starts, sizes):
            # A row stopping at the block's first iteration waits size - 1 more.
            assert 1 <= size <= cap and size - 1 <= max(_STOP_BLOCK - 1, start // 8)

    @pytest.mark.parametrize(
        "m, max_iters, last_stop, stop_tests, iterations",
        [(10, 20000, 2095, 94, 2104), (32, 300, 300, 38, 300)],
        ids=["stability", "conv-reg"],
    )
    def test_default_solves_stop_tests(self, m, max_iters, last_stop, stop_tests, iterations):
        """The default stability solve's last row stops at iteration 2095: 94
        stop tests over 2104 batched iterations, where fixed blocks of 8 made
        262 over 2096. conv-reg's 300-iteration solve keeps its 38."""
        blocks = []
        for start, size in _stop_blocks(_block_cap(m, 64, max_iters), max_iters):
            blocks.append(size)
            if start + size >= last_stop:
                break
        assert (len(blocks), sum(blocks)) == (stop_tests, iterations)

    @pytest.mark.parametrize("max_iters", [175, 400])
    def test_rows_stop_in_grown_and_capped_blocks(self, monkeypatch, max_iters):
        """A budget of 20 iterations for this 14-row stack: blocks of 8 up to
        iteration 72, then 9, 10, ... 18, then 20 from iteration 162 on."""
        monkeypatch.setattr(pnplab.solver, "_BLOCK_FLOATS", 2 * 20 * 14 * _CLOCK_DIM)
        assert _block_cap(14, _CLOCK_DIM, max_iters) == 20
        assert [size for start, size in _stop_blocks(20, 202) if start >= 64] == [
            8, 9, 10, 11, 12, 14, 16, 18, 20, 20,
        ]
        # Stops at both ends of the last block of 8, of grown blocks and of capped ones.
        converging = [(s - 1, 0) for s in (72, 73, 81, 90, 91, 128, 162, 163, 182, 183, 201)]
        diverging = [(500, d) for d in (80, 144, 174)]
        batch = _assert_clock_rows_stop_as_before(converging + diverging, max_iters)
        expected = np.minimum([72, 73, 81, 90, 91, 128, 162, 163, 182, 183, 201, 80, 144, 174], max_iters)
        np.testing.assert_array_equal(batch.iterations, expected)

    def test_rows_stop_in_blocks_grown_under_the_real_budget(self):
        """Four clock rows fit blocks of up to 128 iterations and n = 32 cuts that, so the
        blocks grow to an eighth of the iterations run, are held at 32 from iteration 257
        on, and ``max_iters`` cuts the last one."""
        assert _block_cap(4, _CLOCK_DIM, 397) == _CLOCK_DIM < _BLOCK_FLOATS // (2 * 4 * _CLOCK_DIM)
        assert [size for start, size in _stop_blocks(_CLOCK_DIM, 397)][-3:] == [32, 32, 12]
        batch = _assert_clock_rows_stop_as_before([(71, 0), (150, 0), (500, 300), (379, 0)], 397)
        assert list(batch.iterations) == [72, 151, 300, 380]

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(
        max_iters=st.integers(60, 300),
        stops=st.lists(
            st.tuples(st.integers(0, 300), st.integers(0, 300)), min_size=1, max_size=4
        ),
    )
    def test_random_late_stops_in_small_blocks(self, max_iters, stops):
        """Blocks capped at 12 iterations from iteration 96 on."""
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(pnplab.solver, "_BLOCK_FLOATS", 2 * 12 * len(stops) * _CLOCK_DIM)
            _assert_clock_rows_stop_as_before(stops, max_iters)

    @pytest.mark.parametrize("stop", [65, 72, 73, 81, 82, 91, 128, 163, 334, 400])
    def test_one_row_reproduces_pnp_pgd_bitwise_past_iteration_64(self, stop):
        """The fixture converges at iteration 334, in a grown block."""
        rng = np.random.default_rng(9)
        n = 12
        prior = GmmPrior([0.4, 0.6], rng.standard_normal((2, n)), [0.3, 0.5])
        op = Mask.random(n, 0.25, seed=2)
        y = op.apply(rng.standard_normal(n))
        scaled = tweedie_scale(MmseDenoiser(prior, 0.2), 5.0, gamma_rescale=True)
        for tau in (1.0, 0.7):
            cfg = PnpConfig(tau=tau, max_iters=stop, tol=1e-9)
            serial = pnp_pgd(op, y, scaled, cfg)
            batch = pnp_pgd_batch(op, y[None, :], scaled, cfg)
            assert serial.iterations == batch.iterations[0] == min(stop, 334)
            assert serial.converged == batch.converged[0] == (stop >= 334)
            assert np.array_equal(batch.x_star[0], serial.x_star)
        _assert_clock_rows_stop_as_before([(stop - 1, 0)], 400)


def _closed_form_fixed_point(observed, ys, mu, s, u, gamma):
    """The fixed point of :class:`TestClosedFormReferee`'s docstring, entry by entry."""
    g = 1.0 / (1.0 + u) if gamma else 1.0
    return np.where(
        observed,
        g * ((1.0 - u + u * s) * ys + u * (1.0 - s) * mu),
        ((1.0 - s) / (2.0 - s) if gamma else 1.0) * mu,
    )


class TestClosedFormReferee:
    """Under one Gaussian N(mu, vI), a mask, Tweedie scaling of the MMSE base
    and tau = 1 the fixed point is known coordinate by coordinate. With
    s = v / (v + sigma^2) and u = 1 / delta^2, an observed entry is
    (1 - u + us) y + u (1 - s) mu, divided by 1 + u under the gamma rescale,
    and an unobserved one is mu, or (1 - s) / (2 - s) mu under the rescale."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        n=st.integers(2, 10),
        v=st.floats(0.2, 2.0),
        sigma=st.floats(0.5, 1.5),
        gamma=st.booleans(),
        deltas=st.lists(st.floats(1.0, 2.0), min_size=1, max_size=6),
        tol=st.sampled_from([1e-8, 1e-10, 1e-12]),
        seed=st.integers(0, 2**16),
    )
    def test_batch_reaches_the_closed_form_fixed_point(self, n, v, sigma, gamma, deltas, tol, seed):
        rng = np.random.default_rng(seed)
        mu = 2.0 * rng.standard_normal(n)
        observed = rng.random(n) < 0.5
        observed[0], observed[-1] = True, False
        deltas = np.asarray(deltas)
        ys = np.where(observed, 3.0 * rng.standard_normal((deltas.size, n)), 0.0)
        base = MmseDenoiser(GmmPrior([1.0], [mu], [v]), sigma)
        scaled = ScaledDenoiser(base, deltas, mode="tweedie", gamma_rescale=gamma)
        batch = pnp_pgd_batch(Mask(observed), ys, scaled, PnpConfig(tau=1.0, max_iters=5000, tol=tol))
        assert batch.converged.all()

        s = v / (v + sigma**2)
        u = 1.0 / deltas[:, None] ** 2
        g = 1.0 / (1.0 + u) if gamma else 1.0
        fixed = _closed_form_fixed_point(observed, ys, mu, s, u, gamma)
        # Observed entries are fixed after one iteration; unobserved ones
        # contract by rate = g (1 - u (1 - s)), so the last step's residual,
        # at most tol (1 + |x|), bounds the distance to the fixed point by
        # rate / (1 - rate) times itself.
        rate = (g * (1.0 - u * (1.0 - s)))[:, 0]
        x = batch.x_star
        bound = tol * (1.0 + np.linalg.norm(x, axis=1)) * rate / (1.0 - rate)
        gap = np.linalg.norm(x - fixed, axis=1)
        assert np.all(gap <= 1.01 * bound + 1e-13 * (1.0 + np.linalg.norm(fixed, axis=1)))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        n=st.integers(2, 10),
        v=st.floats(0.2, 2.0),
        sigma=st.floats(0.05, 1.5),
        gamma=st.booleans(),
        log_delta=st.floats(0.0, 3.0),
        seed=st.integers(0, 2**16),
    )
    def test_linear_oracle_reaches_the_closed_form(self, n, v, sigma, gamma, log_delta, seed):
        """The MMSE base of one Gaussian is the affine map ``s y + (1 - s) mu``, so the dense oracle applies."""
        rng = np.random.default_rng(seed)
        mu = 2.0 * rng.standard_normal(n)
        observed = rng.random(n) < 0.5
        observed[0], observed[-1] = True, False
        y = np.where(observed, 3.0 * rng.standard_normal(n), 0.0)
        s = v / (v + sigma**2)
        mmse = MmseDenoiser(GmmPrior([1.0], [mu], [v]), sigma)
        affine = AffineDenoiser(s * np.eye(n), (1.0 - s) * mu)
        probes = 3.0 * rng.standard_normal((8, n))
        want = mmse(probes)
        assert np.all(np.linalg.norm(affine(probes) - want, axis=1) <= 1e-15 * np.linalg.norm(want, axis=1))

        delta = 10.0**log_delta
        scaled = ScaledDenoiser(affine, delta, mode="tweedie", gamma_rescale=gamma)
        x = linear_fixed_point_oracle(Mask(observed), y, scaled, PnpConfig(tau=1.0))
        fixed = _closed_form_fixed_point(observed, y, mu, s, 1.0 / delta**2, gamma)
        # The dense solve loses digits as the unobserved entries' rate nears 1, about 1 - (1 - s) / delta^2.
        assert np.linalg.norm(x - fixed) <= 1e-11 * delta**2 * np.linalg.norm(fixed)

    def test_fixed_points_approach_the_limit_at_rate_sigma_over_delta(self):
        """conv-reg's default operator, noise and scale grid under N(sin pattern, I) at sigma = 0.1.

        As delta grows the observed entries tend to the clean measurements and
        the unobserved ones stay at (1 - s) / (2 - s) mu, so the gamma-rescaled
        fixed point x_delta tends to that limit x+ as the noise sigma / delta
        added to the data vanishes: |x_delta - x+| / |x+| is 0.496 at delta = 1,
        1.125e-4 at delta = 1000, and delta / sigma times it lies in
        1.107-1.125 from delta = 30 up.
        """
        resolved = resolve_config("conv-reg")
        op = operator_from_config(resolved["operator"])
        n, sigma, v = op.in_dim, 0.1, 1.0
        mu = np.sin(2.0 * np.pi * np.arange(n) / n)
        prior = GmmPrior([1.0], [mu], [v])
        clean, _ = prior.sample_pairs(sigma, 1, resolved["seed"])
        noise = np.random.default_rng([resolved["seed"], 1]).standard_normal(n)
        y0 = op.apply(clean[0])
        s = v / (v + sigma**2)
        affine = AffineDenoiser(s * np.eye(n), (1.0 - s) * mu)
        limit = np.where(op.mask, y0, (1.0 - s) / (2.0 - s) * mu)
        grid = np.asarray(resolved["delta_grid"])
        rel = []
        for delta in grid:
            scaled = tweedie_scale(affine, delta, gamma_rescale=True)
            x = linear_fixed_point_oracle(op, y0 + sigma / delta * noise, scaled, PnpConfig(tau=1.0))
            rel.append(np.linalg.norm(x - limit) / np.linalg.norm(limit))
        rel = np.array(rel)
        assert rel[0] == pytest.approx(0.4963, abs=1e-4)
        assert rel[-1] == pytest.approx(1.1246e-4, rel=1e-3)
        band = grid * rel / sigma
        assert np.all((band[grid >= 30.0] > 1.10) & (band[grid >= 30.0] < 1.13))
        # Until then the bias of the scale-1 denoiser dominates and the ratio falls.
        assert np.all(np.diff(band[grid < 30.0]) < 0.0)


class TestSolveMemory:
    @pytest.mark.parametrize(
        "k, n, mode, gamma, per_row, shrink, out_dim",
        [
            (3, 64, "tweedie", True, True, False, None),  # conv-reg's shape
            (1, 64, "tweedie", False, False, True, None),  # stability's shape
            (64, 64, "homogeneous", True, True, False, None),
            (128, 16, "tweedie", True, True, True, None),  # more components than dims
            (3, 64, "tweedie", True, True, False, 512),  # a tall dense operator
            (3, 4, "tweedie", True, True, False, None),  # n = 4 cuts the blocks under _STOP_BLOCK
        ],
    )
    def test_one_solve_stays_within_its_counted_stacks(self, k, n, mode, gamma, per_row, shrink, out_dim):
        """The scaled denoiser's construction and one solve of m rows peak within
        ``_SOLVE_STACKS`` (m, max(n, K, out_dim)) float arrays, or a grown
        block's ``_BLOCK_FLOATS`` and the other stacks, whichever is larger,
        plus a fixed slack for small arrays and numpy's iteration buffers."""
        rng = np.random.default_rng(k)
        m, slack = 256, 256 * 1024
        prior = GmmPrior(np.full(k, 1.0 / k), rng.standard_normal((k, n)), np.full(k, 0.5))
        base = MmseDenoiser(prior, 0.3)
        if shrink:
            base = OutputShrink(base, 0.99)
        if out_dim is None:
            op = Mask(rng.random(n) < 0.8)
        else:
            # Orthonormal columns, so the step tau = 1 stays non-expansive.
            op = DenseOperator(np.linalg.qr(rng.standard_normal((out_dim, n)))[0])
        ys = rng.standard_normal((m, op.out_dim))
        deltas = rng.uniform(1.0, 3.0, m) if per_row else 1.5
        config = PnpConfig(tau=1.0, max_iters=2 * _STOP_BLOCK + 3, tol=1e-30)
        peak = _solve_peak(op, ys, base, deltas, mode, gamma, config)
        assert peak <= _counted_bytes(m * max(n, k, op.out_dim)) + slack

    @pytest.mark.parametrize("k, n, m", [(3, 64, 256), (64, 64, 256), (2, 1, 4096), (3, 3, 4096)])
    def test_a_solve_that_certifies_a_basin_stays_within_its_counted_stacks(self, monkeypatch, k, n, m):
        """Rows drawn from a well-separated mixture, so the solve certifies a basin and holds
        its anchor, component rows, rho_k and radii: three of the counted stacks."""
        certified = []
        certify = GmmPrior._certify
        monkeypatch.setattr(GmmPrior, "_certify", lambda self, *a: certified.append(1) or certify(self, *a))
        rng = np.random.default_rng(k)
        means = 4.0 * rng.standard_normal((k, n))
        means[:, 0] += 20.0 * np.arange(k)
        prior = GmmPrior(np.full(k, 1.0 / k), means, np.full(k, 0.5))
        ys = prior.sample_pairs(0.3, m, 1)[1]
        config = PnpConfig(tau=1.0, max_iters=2 * _STOP_BLOCK + 3, tol=1e-30)
        peak = _solve_peak(Identity(n), ys, MmseDenoiser(prior, 0.3), rng.uniform(1.0, 3.0, m), "tweedie", True, config)
        assert certified
        assert peak <= _counted_bytes(m * max(n, k)) + 256 * 1024

    @pytest.mark.parametrize("n, m", [(1, 256), (1, 1024), (2, 256)])
    def test_a_narrow_stack_stays_within_its_counted_stacks_without_slack(self, n, m):
        """2000 iterations that never meet ``tol``, on stacks one or two wide, where
        ``_BLOCK_FLOATS`` would fit longer blocks: a block is at most n iterations, so the
        stop test's (size, m) arrays stay within a stack each and the peak within the count
        itself, where blocks grown to the budget would pass it."""
        rng = np.random.default_rng(n)
        base = MmseDenoiser(GmmPrior([1.0], rng.standard_normal((1, n)), [0.5]), 0.3)
        ys = rng.standard_normal((m, n))
        config = PnpConfig(tau=1.0, max_iters=2000, tol=1e-30)
        assert _block_cap(m, n, config.max_iters) == n < _BLOCK_FLOATS // (2 * m * n)
        peak = _solve_peak(Mask(np.ones(n, dtype=bool)), ys, base, rng.uniform(1.0, 3.0, m), "tweedie", True, config)
        assert peak <= _counted_bytes(m * n)

    @pytest.mark.parametrize(
        "m, per_row, kind",
        [(10, False, "mask"), (1, False, "mask"), (256, True, "mask"), (256, False, "identity")],
        ids=["stability-shape", "one-row", "per-row-scale", "identity"],
    )
    @pytest.mark.parametrize("max_iters", [2 * _STOP_BLOCK + 3, 2000])
    def test_a_fused_solve_stays_within_its_counted_stacks_without_slack(self, m, per_row, kind, max_iters):
        """Stability's chain (one Gaussian, ``OutputShrink``, tweedie scale), whose gradient
        step folds into its multiply-add: the gain and shift stacks take the place of an
        iteration's temporaries, in short solves and in 2000 iterations
        whose blocks grow to ``_BLOCK_FLOATS``."""
        rng = np.random.default_rng(m)
        n = 64
        base = OutputShrink(MmseDenoiser(GmmPrior([1.0], rng.standard_normal((1, n)), [1.0]), 0.1), 0.999)
        op = Mask(rng.random(n) < 0.8) if kind == "mask" else Identity(n)
        deltas = rng.uniform(1.0, 3.0, m) if per_row else 1.09
        config = PnpConfig(tau=1.0, max_iters=max_iters, tol=1e-30)
        assert ScaledDenoiser(base, deltas)._diagonal() is not None
        peak = _solve_peak(op, rng.standard_normal((m, n)), base, deltas, "tweedie", False, config)
        assert peak <= _counted_bytes(m * n)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        m=st.integers(1, 2**15),
        n=st.integers(1, 64),
        k=st.sampled_from([1, 3]),
        kind=st.sampled_from(["mask", "identity", "dense"]),
        mode=st.sampled_from(ScaledDenoiser.MODES),
        gamma=st.booleans(),
        per_row=st.booleans(),
        max_iters=st.integers(1, 60),
        seed=st.integers(0, 2**16),
    )
    def test_any_drawn_solve_stays_within_its_counted_stacks(
        self, m, n, k, kind, mode, gamma, per_row, max_iters, seed
    ):
        """The documented peak, with one slack for small arrays and numpy's iteration
        buffers, holds for any stack: narrow or wide, few or many rows, a mixture or one
        Gaussian, every operator kind, both modes, and one scale or a scale per row."""
        rng = np.random.default_rng(seed)
        m = min(m, max(1, 2**15 // n))
        prior = GmmPrior(np.full(k, 1.0 / k), rng.standard_normal((k, n)), rng.uniform(0.2, 1.0, k))
        if kind == "mask":
            op = Mask((np.arange(n) == 0) | (rng.random(n) < 0.8))
        elif kind == "identity":
            op = Identity(n)
        else:
            op = DenseOperator(rng.standard_normal((int(rng.integers(1, 2 * n + 1)), n)))
        ys = rng.standard_normal((m, op.out_dim))
        deltas = rng.uniform(1.0, 3.0, m) if per_row else float(rng.uniform(1.0, 3.0))
        config = PnpConfig(max_iters=max_iters, tol=1e-30)
        peak = _solve_peak(op, ys, MmseDenoiser(prior, 0.3), deltas, mode, gamma, config)
        assert peak <= _counted_bytes(m * max(n, k, op.out_dim)) + 256 * 1024


def _solve_peak(op, ys, base, deltas, mode, gamma, config) -> int:
    """Traced peak bytes of scaling ``base`` and one batched solve of ``ys``."""
    tracemalloc.start()
    try:
        scaled = ScaledDenoiser(base, deltas, mode=mode, gamma_rescale=gamma)
        pnp_pgd_batch(op, ys, scaled, config)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _counted_bytes(stack: int) -> int:
    """The solve's documented peak: ``_SOLVE_STACKS`` stacks of ``stack`` floats, or a grown
    block's ``_BLOCK_FLOATS`` and the other stacks, whichever is larger."""
    fixed = (_SOLVE_STACKS - 2 * _STOP_BLOCK) * stack
    return max(_SOLVE_STACKS * stack, _BLOCK_FLOATS + fixed) * 8


class TestUncheckedRoutes:
    """``_apply`` is the denoisers' unchecked route, bitwise equal to the checked call."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        kind=st.sampled_from(["mmse1", "mmse3", "shrinkage", "affine"]),
        mode=st.sampled_from(["tweedie", "homogeneous"]),
        gamma=st.booleans(),
        shrink=st.sampled_from([None, 0.9]),
        per_row=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_apply_equals_call_bitwise(self, kind, mode, gamma, shrink, per_row, seed):
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(1, 9)), int(rng.integers(1, 6))
        if kind.startswith("mmse"):
            k = int(kind[-1])
            weights = np.full(k, 1.0 / k)
            base = MmseDenoiser(GmmPrior(weights, rng.standard_normal((k, n)), [0.5] * k), 0.3)
        elif kind == "shrinkage":
            base = ShrinkageDenoiser(0.7, n)
        else:
            base = _random_nonexpansive_affine(rng, n)
        if shrink is not None:
            base = OutputShrink(base, shrink)
        deltas = rng.uniform(0.8, 5.0, m) if per_row else float(rng.uniform(0.8, 5.0))
        scaled = ScaledDenoiser(base, deltas, mode=mode, gamma_rescale=gamma)
        y = rng.standard_normal((m, n))
        assert np.array_equal(scaled._apply(y), scaled(y))
        assert np.array_equal(base._apply(y), base(y))
        # the batched solver's route: the result written into its buffer
        buf = np.full((m, n), np.nan)
        assert scaled._apply(y, out=buf) is buf
        assert np.array_equal(buf, scaled._apply(y))

    def test_one_component_mmse_equals_the_prior_posterior_mean_bitwise(self):
        rng = np.random.default_rng(1)
        prior = GmmPrior([1.0], [rng.standard_normal(6)], [0.7])
        y = 3.0 * rng.standard_normal((20, 6))
        assert np.array_equal(MmseDenoiser(prior, 0.4)._apply(y), prior.posterior_mean(y, 0.4))

    def test_subclass_defining_only_call_runs_in_the_batch(self):
        class Halving(Denoiser):
            dim = 2

            def __call__(self, y):
                return 0.5 * self._check(y)

        scaled = tweedie_scale(Halving(), 1.0)
        res = pnp_pgd_batch(Identity(2), np.ones((3, 2)), scaled, PnpConfig(tau=1.0))
        assert res.converged.all()
        np.testing.assert_array_equal(res.x_star, np.full((3, 2), 0.5))

    def test_per_row_scale_checked_once_with_the_call_message(self):
        per_row = ScaledDenoiser(ShrinkageDenoiser(0.5, 3), np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match=r"expected a stack of 2 rows, got shape \(3, 3\)"):
            per_row(np.zeros((3, 3)))
        with pytest.raises(ValueError, match=r"expected a stack of 2 rows, got shape \(3, 3\)"):
            pnp_pgd_batch(Identity(3), np.zeros((3, 3)), per_row, PnpConfig(tau=1.0))

    @pytest.mark.parametrize("shape", [(3, 3), (1, 3), (3,)])
    def test_a_wrapper_over_a_per_row_scale_checks_its_rows(self, shape):
        shrunk = OutputShrink(ScaledDenoiser(ShrinkageDenoiser(0.5, 3), np.array([1.0, 2.0])), 0.9)
        message = rf"expected a stack of 2 rows, got shape {re.escape(str(shape))}"
        with pytest.raises(ValueError, match=message):
            shrunk(np.zeros(shape))
        with pytest.raises(ValueError, match=message):
            ScaledDenoiser(shrunk, 2.0)(np.zeros(shape))
        if len(shape) == 2:
            with pytest.raises(ValueError, match=message):
                pnp_pgd_batch(Identity(3), np.zeros(shape), shrunk, PnpConfig(tau=1.0))

    @pytest.mark.parametrize("k", [2, 1], ids=["mixture", "one-gaussian"])
    @pytest.mark.parametrize("kind", ["identity", "conv1d"])
    def test_a_wrapper_over_a_per_row_scale_runs_each_row_at_its_scale(self, k, kind):
        """Over one Gaussian the chain has a pair of (m, n) stacks, which the batch folds with
        the step over the identity; over a convolution every chain runs as written, so each
        row is bitwise its one-row solve."""
        rng = np.random.default_rng(7)
        prior = GmmPrior(np.full(k, 1.0 / k), rng.standard_normal((k, 3)), [0.4, 0.6][:k])
        op = Identity(3) if kind == "identity" else Convolve1d(np.array([0.6, 0.3]), 3)
        deltas = np.array([0.8, 1.5, 3.0])
        ys = rng.standard_normal((3, 3))
        cfg = PnpConfig(tau=1.0, max_iters=80, tol=1e-10)
        shrunk = OutputShrink(ScaledDenoiser(MmseDenoiser(prior, 0.3), deltas, gamma_rescale=True), 0.9)
        assert (shrunk._diagonal() is None) == (k > 1)
        batch = pnp_pgd_batch(op, ys, shrunk, cfg)
        for i, delta in enumerate(deltas):
            one = OutputShrink(ScaledDenoiser(MmseDenoiser(prior, 0.3), delta, gamma_rescale=True), 0.9)
            row = pnp_pgd_batch(op, ys[i : i + 1], one, cfg)
            assert batch.iterations[i] == row.iterations[0] and batch.converged[i] == row.converged[0]
            np.testing.assert_allclose(batch.x_star[i], row.x_star[0], rtol=1e-12, atol=1e-14)
            if kind == "conv1d":
                assert np.array_equal(batch.x_star[i], row.x_star[0])


def _wide_prior():
    """The benchmark's wide-prior mixture, K = 64 in n = 256, from ``perfbench/workloads.py``."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while the class is built
    spec.loader.exec_module(module)
    return module.wide_prior_config(0)["prior"]


def _mixing_stability():
    """ROADMAP item 4b's stability config: conv-reg's prior with its means scaled by 0.1,
    whose posterior mixes at the fixed point."""
    prior = resolve_config("conv-reg")["prior"]
    return {"prior": {**prior, "means": (0.1 * np.asarray(prior["means"])).tolist()}}


class TestBasinSolves:
    """A batched solve over a mixture skips the distances while its rows stay on their components."""

    @staticmethod
    def _solve(monkeypatch, experiment, config):
        """The protocol's one batched solve: its arguments, its result, and the calls that certified a basin."""
        import pnplab.experiments

        solves, certified = [], []
        certify = GmmPrior._certify
        monkeypatch.setattr(GmmPrior, "_certify", lambda self, *a: certified.append(1) or certify(self, *a))

        def recording(*args):
            solves.append((args, pnp_pgd_batch(*args)))
            return solves[-1][1]

        monkeypatch.setattr(pnplab.experiments, "pnp_pgd_batch", recording)
        run_experiment(experiment, config)
        ((args, result),) = solves
        return args, result, len(certified)

    @pytest.mark.parametrize(
        "experiment, config, certifies",
        [
            ("conv-reg", {}, True),
            ("conv-reg", {"prior": "wide", "operator": {"kind": "mask", "dim": 256, "mask_fraction": 0.2}}, True),
            ("stability", "mixing", False),
        ],
        ids=["conv-reg", "conv-reg-wide-prior", "stability-mixing"],
    )
    def test_a_solve_is_bitwise_the_solve_without_a_basin(self, monkeypatch, experiment, config, certifies):
        if config == "mixing":
            config = _mixing_stability()
        elif config.get("prior") == "wide":
            config = {**config, "prior": _wide_prior()}
        args, result, certified = self._solve(monkeypatch, experiment, config)
        assert (certified > 0) == certifies
        monkeypatch.setattr(pnplab.solver, "_solve_basin", lambda denoiser: None)
        without = pnp_pgd_batch(*args)
        for field in ("x_star", "iterations", "converged", "diverged"):
            assert np.array_equal(getattr(result, field), getattr(without, field))

    def test_the_default_solves_form_distances_on_few_calls(self, monkeypatch):
        """Tier-1 guard for the skip: conv-reg's 300 calls form distances on at most 3, and
        stability's folded one-Gaussian chain never reaches the prior."""
        calls = {"mean": 0, "dists": 0}
        monkeypatch.setattr(GmmPrior, "_posterior_mean", _counted(calls, "mean", GmmPrior._posterior_mean))
        monkeypatch.setattr(GmmPrior, "_half_sq_dists", _counted(calls, "dists", GmmPrior._half_sq_dists))
        run_experiment("conv-reg", {})
        assert calls["mean"] == 300 and calls["dists"] <= 3
        calls.update(mean=0, dists=0)
        run_experiment("stability", {})
        assert calls == {"mean": 0, "dists": 0}

    def test_the_default_solve_tests_its_basin_once_per_stop_block(self, monkeypatch):
        """Tier-1 guard for the block test: conv-reg's 300 calls form distances on at most 3,
        and its basin's radius test runs at most once per stop block, 38 of them, never once
        per call."""
        calls = {"mean": 0, "dists": 0, "tests": 0}
        monkeypatch.setattr(GmmPrior, "_posterior_mean", _counted(calls, "mean", GmmPrior._posterior_mean))
        monkeypatch.setattr(GmmPrior, "_half_sq_dists", _counted(calls, "dists", GmmPrior._half_sq_dists))
        monkeypatch.setattr(pnplab.prior._Basin, "first_miss", _counted(calls, "tests", pnplab.prior._Basin.first_miss))
        run_experiment("conv-reg", {})
        blocks = len(list(_stop_blocks(_block_cap(32, 64, 300), 300)))
        assert blocks == 38
        assert calls["mean"] == 300 and calls["dists"] <= 3 and 0 < calls["tests"] <= blocks

    def test_the_basin_lives_in_the_solve_only(self):
        """Nothing the caller keeps, the denoiser chain or the prior, holds a basin afterwards."""
        resolved = resolve_config("conv-reg")
        prior = GmmPrior.from_config(resolved["prior"])
        base = MmseDenoiser(prior, 0.1)
        scaled = ScaledDenoiser(OutputShrink(base, 0.99), np.array([1.5, 2.0, 4.0]), gamma_rescale=True)
        ys = prior.sample_pairs(0.1, 3, 0)[1]
        pnp_pgd_batch(Identity(64), ys, scaled, PnpConfig(tau=1.0, max_iters=40))
        for holder in (scaled, scaled.base, base, prior):
            assert not any(isinstance(v, pnplab.prior._Basin) for v in vars(holder).values())

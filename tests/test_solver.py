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
    homogeneous_scale,
    tweedie_scale,
)
from pnplab.linop import Convolve1d, DenseOperator, Identity, Mask
from pnplab.prior import GmmPrior
from pnplab.solver import (
    _DIVERGENCE_NORM,
    _STOP_BLOCK,
    DivergenceError,
    NoUniqueFixedPointError,
    PnpConfig,
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

    def test_boolean_max_iters_rejected(self):
        with pytest.raises(TypeError, match="max_iters"):
            PnpConfig(max_iters=True)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"tau": "1.0"}, "tau must be positive and finite, got '1.0'"),
            ({"tol": "1e-9"}, "tol must be positive and finite, got '1e-9'"),
            ({"tau": [1.0]}, r"tau must be positive and finite, got \[1.0\]"),
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
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        kind=st.sampled_from(["identity", "mask", "conv1d", "dense"]),
        base_kind=st.sampled_from(["affine", "mmse"]),
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
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        op = _operator(kind, n, rng)
        if base_kind == "affine":
            base = _random_nonexpansive_affine(rng, n, norm=norm)
        else:
            prior = GmmPrior([0.5, 0.5], rng.standard_normal((2, n)), [0.3, 0.6])
            base = MmseDenoiser(prior, 0.2)
        ys = 2.0 * rng.standard_normal((len(deltas), op.out_dim))
        cfg = PnpConfig(tau=tau_factor / op.op_norm_sq(), max_iters=120, tol=1e-9)
        _assert_batch_matches_serial(op, ys, base, deltas, mode, gamma, cfg)

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


class _Clock(Denoiser):
    """A test denoiser on 3-vectors whose rows stop at iterations set by their data.

    Entry 0 counts: each call raises it by one, up to entry 1, so under a mask
    that observes entries 1 and 2 with ``tau = 1`` a row whose data holds ``s``
    in entry 1 converges at iteration ``s + 1``. A positive entry 2, ``d``,
    makes the row jump to entries of 1e13, past the divergence bound, at
    iteration ``d`` unless it converged first. A row that has jumped is
    multiplied by 1e150 on every later call, so its squares overflow one
    iteration after it diverged and its entries two iterations after.
    """

    dim = 3

    def __call__(self, y):
        y = self._check(y)
        out = y.copy()
        out[:, 0] = np.minimum(y[:, 0] + 1.0, y[:, 1])
        out[(y[:, 2] > 0) & (y[:, 0] + 1.0 >= y[:, 2])] = 1e13
        blown = np.abs(y[:, 0]) >= 1e12
        out[blown] = 1e150 * y[blown]
        return out


_CLOCK_OP = Mask(np.array([False, True, True]))


def _assert_clock_rows_stop_as_before(stops, max_iters):
    """Rows given as (s, d) pairs stop as under the old stop test and as the serial solve."""
    ys = np.array([[0.0, s, d] for s, d in stops])
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
            x_star = np.array([min(d - 1, s), s, d]) if d > 1 else np.zeros(3)
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
    """The stop test runs once per block of ``_STOP_BLOCK`` iterations."""

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
        seed=st.integers(0, 2**16),
    )
    def test_equals_a_stop_test_after_every_iteration_bitwise(
        self, kind, base_kind, mode, norm, max_iters, rows, seed
    ):
        """Matrix products included: every row runs in the whole stack until
        the last row stops, as it does under a stop test after every
        iteration."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        op = _operator(kind, n, rng)
        if base_kind == "affine":
            base = _random_nonexpansive_affine(rng, n, norm=norm)
        else:
            base = MmseDenoiser(GmmPrior([0.5, 0.5], rng.standard_normal((2, n)), [0.3, 0.6]), 0.2)
        scaled = ScaledDenoiser(base, rng.uniform(0.5, 30.0, rows), mode=mode)
        ys = 2.0 * rng.standard_normal((rows, op.out_dim))
        cfg = PnpConfig(tau=1.0 / op.op_norm_sq(), max_iters=max_iters, tol=1e-9)
        batch = pnp_pgd_batch(op, ys, scaled, cfg)
        with np.errstate(over="ignore", invalid="ignore"):
            x_star, iterations, converged, diverged = _whole_stack_oracle(op, ys, scaled, cfg.tau, cfg)
        np.testing.assert_array_equal(batch.iterations, iterations)
        np.testing.assert_array_equal(batch.converged, converged)
        np.testing.assert_array_equal(batch.diverged, diverged)
        assert np.array_equal(batch.x_star, x_star)

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
        assert np.array_equal(batch.x_star[0], np.zeros(3))


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

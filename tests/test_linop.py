import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pnplab.linop import (
    Convolve1d,
    DenseOperator,
    Identity,
    LinearOperator,
    Mask,
    _row_dot,
    as_signal,
    operator_from_config,
)
from pnplab.solver import PnpConfig, _step_size


def _zoo(rng):
    return [
        Identity(5),
        Mask(np.array([True, False, True, True, False])),
        Convolve1d(np.array([0.6, 0.3, 0.1]), 8),
        DenseOperator(rng.standard_normal((3, 5))),
    ]


class TestApply:
    def test_identity(self):
        op = Identity(3)
        np.testing.assert_array_equal(op.apply(np.array([1.0, 2.0, 3.0])), [1.0, 2.0, 3.0])

    def test_mask_zeroes_hidden_entries(self):
        op = Mask(np.array([True, False, True]))
        np.testing.assert_array_equal(op.apply(np.array([5.0, 7.0, 9.0])), [5.0, 0.0, 9.0])

    def test_dense_matvec(self):
        op = DenseOperator([[1.0, 1.0], [0.0, 2.0]])
        np.testing.assert_allclose(op.apply(np.array([1.0, 1.0])), [2.0, 2.0])

    def test_linearity(self):
        rng = np.random.default_rng(0)
        for op in _zoo(rng):
            x = rng.standard_normal(op.in_dim)
            z = rng.standard_normal(op.in_dim)
            lhs = op.apply(2.5 * x - 1.25 * z)
            rhs = 2.5 * op.apply(x) - 1.25 * op.apply(z)
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Identity(3).apply(np.zeros(4))
        with pytest.raises(ValueError):
            DenseOperator([[1.0, 0.0]]).adjoint(np.zeros(2))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            Identity(2).apply(np.array([1.0, np.nan]))


class TestAdjoint:
    def test_identity_self_adjoint(self):
        np.testing.assert_array_equal(Identity(2).adjoint(np.array([4.0, 5.0])), [4.0, 5.0])

    def test_mask_self_adjoint(self):
        op = Mask(np.array([True, False]))
        np.testing.assert_array_equal(op.adjoint(np.array([3.0, 8.0])), [3.0, 0.0])

    def test_dense_transpose(self):
        op = DenseOperator([[1.0, 1.0], [0.0, 2.0]])
        np.testing.assert_allclose(op.adjoint(np.array([1.0, 1.0])), [1.0, 3.0])

    def test_adjoint_consistency_100_random_pairs(self):
        """<A x, y> must equal <x, A^T y> for every operator kind."""
        rng = np.random.default_rng(42)
        for op in _zoo(rng):
            for _ in range(100):
                x = rng.standard_normal(op.in_dim)
                y = rng.standard_normal(op.out_dim)
                lhs = float(op.apply(x) @ y)
                rhs = float(x @ op.adjoint(y))
                assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        kind=st.sampled_from(["identity", "mask", "conv1d", "dense"]),
        n=st.integers(1, 16),
        out_dim=st.integers(1, 16),
        scale=st.sampled_from([1e-3, 1.0, 1e3]),
        seed=st.integers(0, 2**16),
    )
    def test_adjoint_identity_over_kinds_dims_and_data(self, kind, n, out_dim, scale, seed):
        rng = np.random.default_rng(seed)
        if kind == "identity":
            op = Identity(n)
        elif kind == "mask":
            op = Mask(rng.random(n) < 0.6)
        elif kind == "conv1d":
            op = Convolve1d(rng.standard_normal(int(rng.integers(1, n + 1))), n)
        else:
            op = DenseOperator(rng.standard_normal((out_dim, n)))
        x = scale * rng.standard_normal(op.in_dim)
        y = rng.standard_normal(op.out_dim)
        ax, aty = op.apply(x), op.adjoint(y)
        lhs, rhs = float(ax @ y), float(x @ aty)
        # Both sides are sums of the same n * out_dim products, in another order.
        bound = 1e-13 * (np.abs(ax) @ np.abs(y) + np.abs(x) @ np.abs(aty) + 1e-300)
        assert abs(lhs - rhs) <= bound


class _Wrapped(LinearOperator):
    """An operator known only through ``_apply``/``_adjoint``, with no closed-form norm."""

    def __init__(self, matrix):
        self._matrix = np.asarray(matrix, dtype=np.float64)
        self.out_dim, self.in_dim = self._matrix.shape

    def _apply(self, x):
        return x @ self._matrix.T

    def _adjoint(self, y):
        return y @ self._matrix


class TestOpNormSq:
    """``op_norm_sq`` is exact and cached, for the closed forms and for any other operator."""

    def test_identity_is_one(self):
        assert Identity(7).op_norm_sq() == 1.0

    def test_mask_is_one(self):
        assert Mask(np.array([True, False, False, True])).op_norm_sq() == 1.0

    def test_fully_masked_is_zero(self):
        assert Mask(np.zeros(5, dtype=bool)).op_norm_sq() == 0.0

    def test_dense_against_eigensolver(self):
        op = DenseOperator([[2.0, 0.0], [0.0, 1.0]])
        # oracle: largest eigenvalue of A^T A by direct eigendecomposition
        oracle = float(np.linalg.eigvalsh(op.matrix.T @ op.matrix).max())
        assert oracle == pytest.approx(4.0)
        assert op.op_norm_sq() == pytest.approx(oracle, rel=1e-14)

    def test_random_dense_against_eigensolver(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((6, 4))
        oracle = float(np.linalg.eigvalsh(a.T @ a).max())
        assert DenseOperator(a).op_norm_sq() == pytest.approx(oracle, rel=1e-13)

    def test_convolution_against_fourier_oracle(self):
        """Circular convolution norm equals the largest squared DFT magnitude."""
        kernel = np.array([0.5, 0.25, -0.1, 0.05])
        op = Convolve1d(kernel, 16)
        padded = np.zeros(16)
        padded[: kernel.size] = kernel
        oracle = float(np.max(np.abs(np.fft.fft(padded)) ** 2))
        assert op.op_norm_sq() == pytest.approx(oracle, rel=1e-14)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(kind=st.sampled_from(["conv1d", "dense"]), seed=st.integers(0, 2**16))
    def test_closed_forms_match_the_eigensolver(self, kind, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 12))
        if kind == "conv1d":
            op = Convolve1d(rng.standard_normal(int(rng.integers(1, n + 1))), n)
        else:
            op = DenseOperator(rng.standard_normal((int(rng.integers(1, 12)), n)))
        oracle = float(np.linalg.eigvalsh(op.as_matrix().T @ op.as_matrix()).max())
        assert op.op_norm_sq() == pytest.approx(oracle, rel=1e-12, abs=1e-14)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        rows=st.integers(1, 16),
        cols=st.integers(1, 16),
        scale=st.sampled_from([1e-3, 1.0, 1e3]),
        seed=st.integers(0, 2**16),
    )
    def test_any_other_operator_matches_the_eigensolver(self, rows, cols, scale, seed):
        a = scale * np.random.default_rng(seed).standard_normal((rows, cols))
        oracle = float(np.linalg.eigvalsh(a.T @ a).max())
        assert _Wrapped(a).op_norm_sq() == pytest.approx(oracle, rel=1e-12)

    def test_close_top_singular_values_give_the_exact_step(self):
        """With sigma_2 / sigma_1 = 0.999 the default step is 1 / sigma_1^2, not a larger one."""
        rng = np.random.default_rng(0)
        n = 64
        u, _ = np.linalg.qr(rng.standard_normal((n, n)))
        v, _ = np.linalg.qr(rng.standard_normal((n, n)))
        sigma = np.concatenate([[1.0, 0.999], np.linspace(0.5, 0.1, n - 2)])
        op = _Wrapped((u * sigma) @ v.T)
        tau, warn = _step_size(op, PnpConfig())
        assert tau == pytest.approx(1.0 / sigma[0] ** 2, rel=1e-12)
        assert not warn

    def test_computed_once(self, monkeypatch):
        op = DenseOperator(np.random.default_rng(2).standard_normal((5, 3)))
        first = op.op_norm_sq()
        monkeypatch.setattr(op, "_norm_sq", lambda: pytest.fail("norm computed twice"))
        assert op.op_norm_sq() == first

    def test_other_operators_fall_back_to_the_exact_norm(self):
        class Doubling(LinearOperator):
            in_dim = out_dim = 3

            def _apply(self, x):
                return 2.0 * x

            def _adjoint(self, y):
                return 2.0 * y

        assert Doubling().op_norm_sq() == 4.0

    def test_zero_operator_is_zero(self):
        assert DenseOperator(np.zeros((3, 3))).op_norm_sq() == 0.0


class TestNormalResidual:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**16), rows=st.integers(1, 5))
    def test_equals_the_adjoint_of_the_residual_bitwise(self, seed, rows):
        rng = np.random.default_rng(seed)
        fully_masked = Mask(np.zeros(5, dtype=bool))
        for op in _zoo(rng) + [fully_masked]:
            x = rng.standard_normal((rows, op.in_dim))
            y = rng.standard_normal((rows, op.out_dim))
            want = LinearOperator._normal_residual(op, x, y)
            assert np.array_equal(op._normal_residual(x, y), want)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**16), rows=st.integers(1, 5))
    def test_a_given_buffer_holds_the_fresh_result(self, seed, rows):
        """Written into a buffer of stale NaNs or not, the gradient equals the
        fresh one and the generic adjoint route. array_equal counts -0.0 as
        0.0: a mask's hidden entry is (x - y) * 0.0, which may be -0.0 where
        the generic route gives 0.0."""
        rng = np.random.default_rng(seed)
        fully_masked = Mask(np.zeros(5, dtype=bool))
        for op in _zoo(rng) + [fully_masked]:
            x = rng.standard_normal((rows, op.in_dim))
            y = rng.standard_normal((rows, op.out_dim))
            buf = np.full_like(x, np.nan)
            got = op._normal_residual(x, y, out=buf)
            assert np.array_equal(got, op._normal_residual(x, y))
            assert np.array_equal(got, LinearOperator._normal_residual(op, x, y))
            if isinstance(op, (Identity, Mask)):
                assert got is buf


class TestRowDot:
    @pytest.mark.parametrize("shape", [(1, 1), (3, 5), (10, 64), (32, 64), (257, 3)])
    def test_equals_the_two_axis_form_bitwise(self, shape):
        rng = np.random.default_rng(shape[0])
        a, b = rng.standard_normal((2,) + shape)
        assert np.array_equal(_row_dot(a, b), np.einsum("ij,ij->i", a, b))
        # Leading axes: a stack of such arrays gives each one's row dots.
        stack = rng.standard_normal((4,) + shape)
        want = np.stack([np.einsum("ij,ij->i", s, s) for s in stack])
        assert np.array_equal(_row_dot(stack, stack), want)


class TestGradientStep:
    def test_fixed_point_when_residual_zero(self):
        op = Identity(3)
        x = np.array([1.0, -2.0, 0.5])
        np.testing.assert_allclose(op.gradient_step(x, 0.7, x), x)

    def test_identity_full_step_lands_on_data(self):
        op = Identity(3)
        y = np.array([2.0, 0.0, -1.0])
        x = np.array([9.0, 9.0, 9.0])
        np.testing.assert_allclose(op.gradient_step(y, 1.0, x), y)

    def test_hand_computed_dense_case(self):
        # A^T(Ax - y) = (-2, 0) so the step adds (2, 0)
        op = DenseOperator([[1.0, 0.0], [0.0, 0.0]])
        out = op.gradient_step(np.array([2.0, 0.0]), 1.0, np.array([0.0, 5.0]))
        np.testing.assert_allclose(out, [2.0, 5.0])

    def test_nonexpansive_with_certified_step(self):
        """With tau <= 1/||A^T A|| the step map cannot expand distances."""
        rng = np.random.default_rng(17)
        for op in _zoo(rng):
            tau = 1.0 / op.op_norm_sq()
            y = rng.standard_normal(op.out_dim)
            for _ in range(50):
                x1 = rng.standard_normal(op.in_dim)
                x2 = rng.standard_normal(op.in_dim)
                d_out = np.linalg.norm(op.gradient_step(y, tau, x1) - op.gradient_step(y, tau, x2))
                d_in = np.linalg.norm(x1 - x2)
                assert d_out <= d_in * (1.0 + 1e-9)

    def test_tau_validated(self):
        with pytest.raises(ValueError):
            Identity(2).gradient_step(np.zeros(2), 0.0, np.zeros(2))


class TestConfig:
    def test_identity_and_dense(self):
        assert isinstance(operator_from_config({"kind": "identity", "dim": 4}), Identity)
        op = operator_from_config({"kind": "dense", "matrix": [[1.0, 2.0]]})
        assert (op.out_dim, op.in_dim) == (1, 2)

    def test_mask_fraction_is_seeded_and_deterministic(self):
        cfg = {"kind": "mask", "dim": 50, "mask_fraction": 0.2, "seed": 3}
        a = operator_from_config(cfg)
        b = operator_from_config(cfg)
        np.testing.assert_array_equal(a.mask, b.mask)
        assert int(np.sum(~a.mask)) == 10

    def test_masked_operator_has_nontrivial_kernel(self):
        op = operator_from_config({"kind": "mask", "dim": 10, "mask_fraction": 0.2, "seed": 0})
        hidden = ~op.mask
        kernel_vec = np.where(hidden, 1.0, 0.0)
        assert np.linalg.norm(kernel_vec) > 0
        np.testing.assert_array_equal(op.apply(kernel_vec), np.zeros(10))

    def test_explicit_mask_and_conv1d(self):
        op = operator_from_config({"kind": "mask", "mask": [True, False, True]})
        np.testing.assert_array_equal(op.mask, [True, False, True])
        conv = operator_from_config({"kind": "conv1d", "dim": 8, "kernel": [0.5, 0.5]})
        assert isinstance(conv, Convolve1d) and conv.in_dim == 8

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown operator kind"):
            operator_from_config({"kind": "radon"})

    def test_missing_field_named(self):
        with pytest.raises(ValueError, match="dim"):
            operator_from_config({"kind": "identity"})


def test_as_signal_validation():
    with pytest.raises(ValueError):
        as_signal(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        as_signal(np.array([np.inf]))
    with pytest.raises(ValueError):
        as_signal(np.array([1.0, 2.0]), dim=3)

"""Linear forward operators: apply/adjoint pairs, exact norms, gradient steps.

Signals are plain 1-D float64 numpy arrays. Every operator is immutable after
construction and safe for concurrent read-only use.

The public methods validate their input. Each operator also has unchecked
``_apply``/``_adjoint`` methods acting on the last axis, so one call maps an
(m, n) stack of signals, and an unchecked ``_normal_residual`` for the
gradient of the data term; the batched solver calls those after validating
its inputs once. The identity is a mask that hides nothing, and a mask's
``A = A^T = A^T A = diag(keep)``, a 0/1 row the batched solver reads to
write the gradient step itself.

``op_norm_sq`` is exact and computed once per operator: in closed form for
the identity, a mask and a circular convolution, and as the largest squared
singular value of :meth:`LinearOperator.as_matrix` for any other operator,
a dense matrix among them. A power iteration would read it low, and so
certify a step ``1 / ||A^T A||`` that is too large.
"""

from __future__ import annotations

import numpy as np

from .config import FRACTION, POSITIVE, count, flag_array, real, real_array, require

__all__ = [
    "as_signal",
    "LinearOperator",
    "Identity",
    "Mask",
    "Convolve1d",
    "DenseOperator",
    "operator_from_config",
]


def as_signal(x, dim: int | None = None) -> np.ndarray:
    """Coerce ``x`` to a finite 1-D float64 vector, optionally of length ``dim``."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size < 1:
        raise ValueError(f"signal must be a nonempty 1-D vector, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("signal contains non-finite entries")
    if dim is not None and x.size != dim:
        raise ValueError(f"signal has dim {x.size}, expected {dim}")
    return x


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Inner products along the last axis of two same-shape arrays, in one pass
    and without a temporary of their shape."""
    return np.einsum("...i,...i->...", a, b)


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=np.float64 if a.dtype != bool else bool, copy=True)
    a.setflags(write=False)
    return a


class LinearOperator:
    """A linear map with an adjoint.

    Subclasses set ``in_dim``/``out_dim`` and implement the unchecked
    ``_apply`` and ``_adjoint`` on the last axis of their argument; they may
    give ``||A^T A||`` in closed form by overriding ``_norm_sq``, which
    otherwise takes the exact spectral norm of the materialized matrix.
    """

    in_dim: int
    out_dim: int
    _norm_sq_cache: float | None = None

    def apply(self, x: np.ndarray) -> np.ndarray:
        """``A x`` for one vector of length ``in_dim``."""
        return self._apply(as_signal(x, self.in_dim))

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        """``A^T y`` for one vector of length ``out_dim``."""
        return self._adjoint(as_signal(y, self.out_dim))

    def _apply(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _adjoint(self, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _normal_residual(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Unchecked ``A^T (A x - y)`` on the last axis, the gradient of the data term."""
        return self._adjoint(self._apply(x) - y)

    def gradient_step(self, y: np.ndarray, tau: float, x: np.ndarray) -> np.ndarray:
        """One explicit step on the quadratic data term: ``x - tau * A^T (A x - y)``."""
        tau = real(tau, "tau", POSITIVE)
        x = as_signal(x, self.in_dim)
        y = as_signal(y, self.out_dim)
        return x - tau * self._normal_residual(x, y)

    def op_norm_sq(self) -> float:
        """``||A^T A||``, the largest eigenvalue of ``A^T A``, computed on the first call."""
        if self._norm_sq_cache is None:
            self._norm_sq_cache = float(self._norm_sq())
        return self._norm_sq_cache

    def _norm_sq(self) -> float:
        return np.linalg.norm(self.as_matrix(), 2) ** 2

    def as_matrix(self) -> np.ndarray:
        """Materialize the operator as a dense ``out_dim x in_dim`` matrix."""
        return np.ascontiguousarray(self._apply(np.eye(self.in_dim)).T)


class Mask(LinearOperator):
    """Coordinate projection: observed entries pass through, masked ones are zeroed.

    Self-adjoint; maps R^n to R^n so inpainting keeps image and data in one
    space. Any masked entry makes the kernel nontrivial.
    """

    def __init__(self, mask):
        mask = np.asarray(mask, dtype=bool)
        if mask.ndim != 1 or mask.size < 1:
            raise ValueError("mask must be a nonempty 1-D boolean vector")
        self.mask = _frozen(mask)
        self.in_dim = self.out_dim = int(mask.size)
        # The mask as 0/1 floats, A = A^T = A^T A = diag(keep): the batched
        # solver's gradient step multiplies by it in place of np.where.
        self.keep = _frozen(mask.astype(np.float64))

    def _apply(self, x):
        return np.where(self.mask, x, 0.0)

    def _adjoint(self, y):
        return np.where(self.mask, y, 0.0)

    def _norm_sq(self):
        return 1.0 if self.mask.any() else 0.0

    @staticmethod
    def random(dim: int, mask_fraction: float, seed: int = 0) -> "Mask":
        """Mask with ``round(mask_fraction * dim)`` seeded random entries hidden."""
        dim = count(dim, "dim", POSITIVE)
        mask_fraction = real(mask_fraction, "mask_fraction", FRACTION)
        n_masked = int(round(mask_fraction * dim))
        rng = np.random.default_rng(seed)
        hidden = rng.choice(dim, size=n_masked, replace=False)
        mask = np.ones(dim, dtype=bool)
        mask[hidden] = False
        return Mask(mask)


class Identity(Mask):
    """The identity map on vectors of a fixed length: a mask that hides nothing."""

    def __init__(self, dim: int):
        super().__init__(np.ones(count(dim, "dim", POSITIVE), dtype=bool))


class Convolve1d(LinearOperator):
    """Circular (periodic) convolution with a fixed kernel.

    The adjoint is circular correlation. Periodic boundaries make the exact
    operator norm the largest squared magnitude of the kernel's DFT.
    """

    def __init__(self, kernel, dim: int):
        kernel = as_signal(kernel)
        dim = count(dim, "dim", POSITIVE)
        if dim < kernel.size:
            raise ValueError("dim must be >= kernel length")
        self.kernel = _frozen(kernel)
        self.in_dim = self.out_dim = dim
        padded = np.zeros(dim)
        padded[: kernel.size] = kernel
        self._kernel_f = np.fft.rfft(padded)
        self._kernel_f.setflags(write=False)

    def _apply(self, x):
        return np.fft.irfft(np.fft.rfft(x) * self._kernel_f, n=self.in_dim)

    def _adjoint(self, y):
        return np.fft.irfft(np.fft.rfft(y) * np.conj(self._kernel_f), n=self.in_dim)

    def _norm_sq(self):
        # The real kernel's full DFT repeats the rfft's magnitudes.
        return np.max(np.square(np.abs(self._kernel_f)))


class DenseOperator(LinearOperator):
    """An explicit m x n matrix."""

    def __init__(self, matrix):
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.size == 0:
            raise ValueError("matrix must be a nonempty 2-D array")
        if not np.all(np.isfinite(matrix)):
            raise ValueError("matrix contains non-finite entries")
        self.matrix = _frozen(matrix)
        self.out_dim, self.in_dim = matrix.shape

    def _apply(self, x):
        return x @ self.matrix.T

    def _adjoint(self, y):
        return y @ self.matrix

    def as_matrix(self):
        return np.array(self.matrix)


def operator_from_config(config: dict) -> LinearOperator:
    """Build an operator from a JSON-style config dict.

    Recognised forms::

        {"kind": "identity", "dim": n}
        {"kind": "mask", "dim": n, "mask_fraction": f, "seed": s}
        {"kind": "mask", "mask": [true, false, ...]}
        {"kind": "conv1d", "dim": n, "kernel": [...]}
        {"kind": "dense", "matrix": [[...], ...]}
    """
    kind = config.get("kind")
    if kind == "identity":
        return Identity(require(config, "dim", where="operator"))
    if kind == "mask":
        if "mask" in config:
            return Mask(flag_array(config["mask"], "mask"))
        dim, fraction = require(config, "dim", "mask_fraction", where="operator")
        seed = count(config.get("seed", 0), "seed")
        # Read as a float first, so that an integer past the float range is named as one.
        return Mask.random(dim, real(fraction, "mask_fraction"), seed=seed)
    if kind == "conv1d":
        kernel, dim = require(config, "kernel", "dim", where="operator")
        return Convolve1d(real_array(kernel, "kernel"), dim)
    if kind == "dense":
        matrix = require(config, "matrix", where="operator")
        return DenseOperator(real_array(matrix, "matrix", ndim=2))
    raise ValueError(
        f"unknown operator kind {kind!r}; expected one of identity, mask, conv1d, dense"
    )

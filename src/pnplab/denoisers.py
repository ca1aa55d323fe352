"""The denoiser zoo and its scaling wrappers.

Bases: the exact posterior-mean denoiser for a mixture prior, the same
formula evaluated at a mismatched noise level, plain coordinate shrinkage,
and general affine maps. Wrappers: residual scaling (interpolation toward the
identity), input/output scaling, and an optional multiplicative rescale
``delta^2 / (1 + delta^2)`` that turns a non-expansive family into a
contractive one.

All denoisers are immutable callables on 1-D vectors or (m, n) batches.
"""

from __future__ import annotations

import numpy as np

from .prior import GmmPrior

__all__ = [
    "Denoiser",
    "MmseDenoiser",
    "ShrinkageDenoiser",
    "AffineDenoiser",
    "OutputShrink",
    "ScaledDenoiser",
    "tweedie_scale",
    "homogeneous_scale",
    "gamma_factor",
    "estimate_lipschitz",
    "denoiser_from_config",
    "scaling_from_config",
]


class Denoiser:
    """Base class: a map from noisy signals to estimates on a fixed dimension."""

    dim: int

    def __call__(self, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _check(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=np.float64)
        if y.shape[-1:] != (self.dim,) or y.ndim not in (1, 2):
            raise ValueError(f"expected signals of dim {self.dim}, got shape {y.shape}")
        return y


class MmseDenoiser(Denoiser):
    """Exact posterior mean for a mixture prior at a fixed noise level.

    Evaluating at the same sigma the data was generated with gives the
    L2-optimal denoiser; evaluating at a different sigma models an
    imperfectly trained one.

    The solvers' hot path: the noise-level constants are computed once, and a
    call checks its input once and runs the prior's unchecked score route,
    bitwise equal to :meth:`GmmPrior.mmse_denoise`. A Monte-Carlo pass that
    runs several of these over one prior passes ``half_sq``, the prior's
    (K, m) half squared distances to the rows of ``y``
    (``GmmPrior._half_sq_dists``), formed once for all of them.
    """

    def __init__(self, prior: GmmPrior, sigma: float):
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        self.prior = prior
        self.sigma = float(sigma)
        self.dim = prior.dim
        self._smoothed = prior._smoothed(self.sigma)
        self._sigma_sq = self.sigma * self.sigma

    def __call__(self, y, half_sq=None):
        y = self._check(y)
        points = y.reshape(-1, self.dim)
        out = self.prior._score(points, *self._smoothed, half_sq)
        out *= self._sigma_sq
        out += points
        return out.reshape(y.shape)


class ShrinkageDenoiser(Denoiser):
    """Multiply by a constant ``alpha`` in (0, 1]; ``alpha = 1`` is the identity."""

    def __init__(self, alpha: float, dim: int):
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must lie in (0, 1]")
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self.alpha = float(alpha)
        self.dim = int(dim)

    def __call__(self, y):
        return self.alpha * self._check(y)


class AffineDenoiser(Denoiser):
    """``y -> W y + b`` for a fixed square matrix and offset."""

    def __init__(self, matrix, offset):
        matrix = np.asarray(matrix, dtype=np.float64)
        offset = np.asarray(offset, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("matrix must be square")
        if offset.shape != (matrix.shape[0],):
            raise ValueError("offset must match the matrix dimension")
        if not (np.all(np.isfinite(matrix)) and np.all(np.isfinite(offset))):
            raise ValueError("affine parameters must be finite")
        self.matrix = matrix.copy()
        self.offset = offset.copy()
        self.matrix.setflags(write=False)
        self.offset.setflags(write=False)
        self.dim = matrix.shape[0]

    def __call__(self, y):
        y = self._check(y)
        return y @ self.matrix.T + self.offset


class OutputShrink(Denoiser):
    """Compose a base denoiser with output shrinkage: ``y -> alpha * base(y)``.

    Used to force strict contraction (alpha < 1) where a stability run needs
    it: a non-expansive base becomes alpha-Lipschitz.
    """

    def __init__(self, base: Denoiser, alpha: float):
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must lie in (0, 1]")
        self.base = base
        self.alpha = float(alpha)
        self.dim = base.dim

    def __call__(self, y):
        return self.alpha * self.base(y)


def gamma_factor(delta: float) -> float:
    """The admissibility rescale ``delta^2 / (1 + delta^2)``, in (0, 1)."""
    d2 = delta * delta
    return d2 / (1.0 + d2)


class ScaledDenoiser:
    """A base denoiser modulated by a positive scale ``delta``.

    mode ``"tweedie"``
        Interpolate toward the identity with weight ``u = 1/delta^2``:
        ``(1 - u) * y + u * base(y)``. ``delta = 1`` reproduces the base
        exactly, and the residual shrinks as ``|D(y) - y| / delta^2``.

    mode ``"homogeneous"``
        Scale the argument and undo it on the output: ``base(delta*y)/delta``.
        A no-op for linear bases, which is why this scaling cannot modulate
        them.

    ``gamma_rescale`` additionally multiplies the output by
    ``delta^2 / (1 + delta^2)``, making the family strictly contractive when
    the base is non-expansive.

    ``delta`` may also be a 1-D vector with one scale per row; the wrapper
    then maps (m, n) stacks with ``m == delta.size``, row i at scale
    ``delta[i]``, which is how the batched solver runs a whole scale grid.
    """

    MODES = ("tweedie", "homogeneous")

    def __init__(
        self,
        base: Denoiser,
        delta,
        mode: str = "tweedie",
        gamma_rescale: bool = False,
    ):
        scales = np.asarray(delta, dtype=np.float64)
        if scales.ndim > 1 or scales.size < 1 or not np.all(scales > 0):
            raise ValueError("delta must be positive (a scalar or a nonempty 1-D vector)")
        if mode not in self.MODES:
            raise ValueError(f"mode must be one of {self.MODES}, got {mode!r}")
        self.base = base
        self.mode = mode
        self.gamma_rescale = bool(gamma_rescale)
        self.dim = base.dim
        if scales.ndim == 0:
            self.delta = float(scales)
            self._n_rows = None
            self._scale = self.delta
        else:
            self.delta = scales.copy()
            self.delta.setflags(write=False)
            self._n_rows = scales.size
            self._scale = self.delta[:, None]
        self._u = 1.0 / (self._scale * self._scale)
        self._keep = 1.0 - self._u
        self._gamma = gamma_factor(self._scale) if self.gamma_rescale else None

    def __call__(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=np.float64)
        if self._n_rows is not None and (y.ndim != 2 or y.shape[0] != self._n_rows):
            raise ValueError(f"expected a stack of {self._n_rows} rows, got shape {y.shape}")
        if self.mode == "tweedie":
            out = self._keep * y + self._u * self.base(y)
        else:
            out = self.base(self._scale * y) / self._scale
        if self._gamma is not None:
            out = self._gamma * out
        return out

    def rows(self, index) -> "ScaledDenoiser":
        """The same wrapper restricted to the rows ``index`` of a per-row scale."""
        if self._n_rows is None:
            return self
        return ScaledDenoiser(self.base, self.delta[index], self.mode, self.gamma_rescale)


def tweedie_scale(base: Denoiser, delta: float, gamma_rescale: bool = False) -> ScaledDenoiser:
    """Residual scaling ``y + (base(y) - y) / delta^2`` as a wrapper object."""
    return ScaledDenoiser(base, delta, mode="tweedie", gamma_rescale=gamma_rescale)


def homogeneous_scale(base: Denoiser, delta: float, gamma_rescale: bool = False) -> ScaledDenoiser:
    """Argument/output scaling ``base(delta * y) / delta`` as a wrapper object."""
    return ScaledDenoiser(base, delta, mode="homogeneous", gamma_rescale=gamma_rescale)


# Floats per block of pairwise differences in estimate_lipschitz.
_PAIR_BLOCK_FLOATS = 1 << 16


def _pair_distances(rows: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Distances from rows ``start:stop`` to rows ``start:``, as a (stop - start, m - start) array."""
    diff = rows[start:stop, None, :] - rows[None, start:, :]
    return np.sqrt(np.sum(diff * diff, axis=2))


def estimate_lipschitz(denoiser, points) -> float:
    """Largest pairwise ratio ``|D(y1) - D(y2)| / |y1 - y2|`` over a point cloud.

    Duplicate points are skipped; at least one distinct pair is required. For
    a plain affine denoiser the estimate is cross-checked against the spectral
    norm of its matrix, which it can never exceed. Pairs are formed one block
    of rows at a time, so memory grows with the cloud, not with its pairs.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] < 2:
        raise ValueError("need at least two points")
    outputs = np.asarray(denoiser(pts), dtype=np.float64)
    m, n = pts.shape
    step = max(1, _PAIR_BLOCK_FLOATS // (m * n))
    estimate = None
    for start in range(0, m - 1, step):
        stop = min(start + step, m - 1)
        # Each row i of the block against every later point j > i.
        later = np.arange(start, m)[None, :] > np.arange(start, stop)[:, None]
        dist_in = _pair_distances(pts, start, stop)[later]
        dist_out = _pair_distances(outputs, start, stop)[later]
        valid = dist_in > 0.0
        if np.any(valid):
            block_max = np.max(dist_out[valid] / dist_in[valid])
            estimate = block_max if estimate is None else np.maximum(estimate, block_max)
    if estimate is None:
        raise ValueError("all point pairs are duplicates; no valid pair")
    estimate = float(estimate)
    if isinstance(denoiser, AffineDenoiser):
        exact = float(np.linalg.norm(denoiser.matrix, 2))
        if estimate > exact + 1e-8:
            raise RuntimeError(
                f"pairwise Lipschitz estimate {estimate} exceeds the exact "
                f"spectral norm {exact} of the affine map"
            )
    return estimate


def denoiser_from_config(config: dict, prior: GmmPrior | None = None, sigma: float | None = None) -> Denoiser:
    """Build a zoo member from a JSON-style config dict.

    ``exact_mmse`` takes the data noise level ``sigma`` from context;
    ``mismatched_mmse`` reads its own ``sigma_train``. ``shrinkage`` needs
    ``alpha`` (and ``dim`` unless a prior provides it); ``affine`` needs
    ``matrix`` and ``offset``. Given a prior, a denoiser of another dim is
    rejected.
    """
    kind = config.get("kind")
    if kind == "exact_mmse":
        if prior is None or sigma is None:
            raise ValueError("exact_mmse requires a prior and the data noise level")
        return MmseDenoiser(prior, sigma)
    if kind == "mismatched_mmse":
        if prior is None:
            raise ValueError("mismatched_mmse requires a prior")
        if "sigma_train" not in config:
            raise ValueError("denoiser config missing required field 'sigma_train'")
        return MmseDenoiser(prior, config["sigma_train"])
    if kind == "shrinkage":
        if "alpha" not in config:
            raise ValueError("denoiser config missing required field 'alpha'")
        dim = config.get("dim", prior.dim if prior is not None else None)
        if dim is None:
            raise ValueError("shrinkage requires a dim (explicit or via prior)")
        denoiser = ShrinkageDenoiser(config["alpha"], dim)
    elif kind == "affine":
        for key in ("matrix", "offset"):
            if key not in config:
                raise ValueError(f"denoiser config missing required field {key!r}")
        denoiser = AffineDenoiser(config["matrix"], config["offset"])
    else:
        raise ValueError(
            f"unknown denoiser kind {kind!r}; expected one of exact_mmse, "
            "mismatched_mmse, shrinkage, affine"
        )
    if prior is not None and denoiser.dim != prior.dim:
        raise ValueError(f"denoiser has dim {denoiser.dim}, but the prior has dim {prior.dim}")
    return denoiser


def scaling_from_config(base: Denoiser, config: dict) -> ScaledDenoiser:
    """Wrap ``base`` per ``{"mode": ..., "delta": ..., "gamma_rescale": ...}``."""
    mode = config.get("mode", "tweedie")
    if "delta" not in config:
        raise ValueError("scaling config missing required field 'delta'")
    return ScaledDenoiser(
        base, config["delta"], mode=mode, gamma_rescale=config.get("gamma_rescale", False)
    )

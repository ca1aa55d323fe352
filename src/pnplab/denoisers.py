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

from .config import count, is_number, real_array, require
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
]


class Denoiser:
    """Base class: a map from noisy signals to estimates on a fixed dimension.

    ``__call__`` is the one checked entry point: it takes a 1-D vector or an
    (m, n) batch, checks it, and runs ``_apply`` on it as an (m, n) stack of
    float64 rows, returning the result in the input's shape. ``_apply`` is
    the unchecked route, which callers that validated their stack once (the
    batched solver) run in their loops, so both routes give bitwise the same
    output. A subclass that defines only ``__call__`` still works there:
    ``_apply`` then falls back to the call.
    """

    dim: int

    def __call__(self, y, *args) -> np.ndarray:
        y = self._check(y)
        return self._apply(y.reshape(-1, self.dim), *args).reshape(y.shape)

    def _apply(self, y, *args) -> np.ndarray:
        if type(self).__call__ is Denoiser.__call__:
            raise NotImplementedError(f"{type(self).__name__} defines neither __call__ nor _apply")
        return self(y, *args)

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

    The solvers' hot path: the noise-level constants are computed once, and
    ``_apply`` runs the prior's unchecked direct route, bitwise equal to
    :meth:`GmmPrior.posterior_mean`; the score route,
    :meth:`GmmPrior.mmse_denoise`, is its oracle. A Monte-Carlo pass that
    runs several of these over one prior passes ``half_sq``, the prior's
    (K, m) half squared distances to the rows of ``y``
    (``GmmPrior._half_sq_dists``), formed once for all of them.
    """

    def __init__(self, prior: GmmPrior, sigma: float):
        if not is_number(sigma) or not 0.0 < sigma < np.inf:
            raise ValueError(f"sigma must be positive and finite, got {sigma!r}")
        self.prior = prior
        self.sigma = float(sigma)
        if self.sigma * self.sigma == np.inf:
            raise ValueError(f"sigma must have a finite square, got {self.sigma!r}")
        self.dim = prior.dim
        self._constants = prior._posterior_constants(self.sigma)

    def _apply(self, y, half_sq=None):
        return self.prior._posterior_mean(y, *self._constants, half_sq)


class ShrinkageDenoiser(Denoiser):
    """Multiply by a constant ``alpha`` in (0, 1]; ``alpha = 1`` is the identity."""

    def __init__(self, alpha: float, dim: int):
        if not is_number(alpha) or not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must lie in (0, 1], got {alpha!r}")
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self.alpha = float(alpha)
        self.dim = int(dim)

    def _apply(self, y):
        return self.alpha * y


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

    def _apply(self, y):
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

    def _apply(self, y):
        return self.alpha * self.base._apply(y)


def gamma_factor(delta: float) -> float:
    """The admissibility rescale ``delta^2 / (1 + delta^2)``, in (0, 1)."""
    d2 = delta * delta
    return d2 / (1.0 + d2)


class ScaledDenoiser(Denoiser):
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
    ``delta[i]``, which is how the batched solver runs a whole scale grid,
    every row on every iteration. The call checks that row count; ``_apply``
    does not, so a caller of the unchecked route checks it once with
    :meth:`check_rows`. ``_apply`` takes an optional ``out`` array, into
    which its last operation writes the result, bitwise the fresh one; the
    batched solver passes its iterate buffer there.

    Every scale's square and inverse square must be finite nonzero doubles
    (about ``1e-154 < delta < 1e154``), so that ``1/delta^2`` and the gamma
    rescale are; any other scale is rejected by value.
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
        if scales.ndim > 1 or scales.size < 1 or not np.all((scales > 0) & (scales < np.inf)):
            raise ValueError("delta must be positive and finite (a scalar or a nonempty 1-D vector)")
        with np.errstate(over="ignore", divide="ignore"):
            inverse = 1.0 / (scales * scales)
        # A finite nonzero inverse square comes only from a finite nonzero square.
        usable = (inverse > 0) & (inverse < np.inf)
        if not np.all(usable):
            bad = float(scales.flat[np.argmin(usable)])
            raise ValueError(f"delta must have a finite nonzero square and inverse square, got {bad!r}")
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
        self.check_rows(np.shape(y))
        return super().__call__(y)

    def _apply(self, y, out=None):
        """The unchecked map; its last ufunc writes into ``out`` when one is given."""
        last = out if self._gamma is None else None
        if self.mode == "tweedie":
            result = np.add(self._keep * y, self._u * self.base._apply(y), out=last)
        else:
            result = np.divide(self.base._apply(self._scale * y), self._scale, out=last)
        if self._gamma is not None:
            result = np.multiply(self._gamma, result, out=out)
        return result

    def check_rows(self, shape) -> None:
        """Reject a stack of ``shape`` whose row count a per-row scale does not match."""
        if self._n_rows is not None and (len(shape) != 2 or shape[0] != self._n_rows):
            raise ValueError(f"expected a stack of {self._n_rows} rows, got shape {shape}")


def tweedie_scale(base: Denoiser, delta: float, gamma_rescale: bool = False) -> ScaledDenoiser:
    """Residual scaling ``y + (base(y) - y) / delta^2`` as a wrapper object."""
    return ScaledDenoiser(base, delta, mode="tweedie", gamma_rescale=gamma_rescale)


def homogeneous_scale(base: Denoiser, delta: float, gamma_rescale: bool = False) -> ScaledDenoiser:
    """Argument/output scaling ``base(delta * y) / delta`` as a wrapper object."""
    return ScaledDenoiser(base, delta, mode="homogeneous", gamma_rescale=gamma_rescale)


# Floats per block in estimate_lipschitz: of pairwise differences, and of the
# (K, rows) distances a K-component mixture denoiser forms on a block of rows.
_PAIR_BLOCK_FLOATS = 1 << 16


def _pair_distances(rows: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Distances from rows ``start:stop`` to rows ``start:``, as a (stop - start, m - start) array."""
    diff = rows[start:stop, None, :] - rows[None, start:, :]
    return np.sqrt(np.sum(diff * diff, axis=2))


def _check_spread(points: np.ndarray, what: str) -> np.ndarray:
    """``points``, rejected unless every squared pair distance is a finite double.

    The bound ``n (2 max|x|)^2`` on those distances must be finite, so no
    difference, square or sum of squares overflows.
    """
    reach = float(np.max(np.abs(points)))
    if not points.shape[1] * (4.0 * reach * reach) < np.inf:
        raise ValueError(f"{what} reach {reach:g}, so their squared pair distances overflow")
    return points


def estimate_lipschitz(denoiser, points) -> float:
    """Largest pairwise ratio ``|D(y1) - D(y2)| / |y1 - y2|`` over a point cloud.

    Duplicate points are skipped; at least one distinct pair is required. For
    a plain affine denoiser the estimate is cross-checked against the spectral
    norm of its matrix, which it can never exceed. The denoiser runs on
    blocks of rows sized by the larger of the dimension and a mixture
    denoiser's component count, and pairs are formed one block of rows at a
    time, so memory grows with the cloud, not with its pairs or the prior's
    components. Points or outputs whose squared pair distances may overflow
    are rejected.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] < 2:
        raise ValueError("need at least two points")
    m, n = _check_spread(pts, "points").shape
    components = denoiser.prior.n_components if isinstance(denoiser, MmseDenoiser) else 1
    rows = max(1, _PAIR_BLOCK_FLOATS // max(n, components))
    outputs = np.empty_like(pts)
    for start in range(0, m, rows):
        outputs[start : start + rows] = denoiser(pts[start : start + rows])
    _check_spread(outputs, "outputs")
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
    rejected. ``sigma_train`` and ``alpha`` are checked, booleans and
    strings included, by the denoiser they build.
    """
    kind = config.get("kind")
    if kind == "exact_mmse":
        if prior is None or sigma is None:
            raise ValueError("exact_mmse requires a prior and the data noise level")
        return MmseDenoiser(prior, sigma)
    if kind == "mismatched_mmse":
        if prior is None:
            raise ValueError("mismatched_mmse requires a prior")
        return MmseDenoiser(prior, require(config, "sigma_train", where="denoiser"))
    if kind == "shrinkage":
        alpha = require(config, "alpha", where="denoiser")
        explicit = prior is None or "dim" in config
        dim = require(config, "dim", where="denoiser") if explicit else prior.dim
        denoiser = ShrinkageDenoiser(alpha, count(dim, "dim"))
    elif kind == "affine":
        matrix, offset = require(config, "matrix", "offset", where="denoiser")
        denoiser = AffineDenoiser(real_array(matrix, "matrix", ndim=2), real_array(offset, "offset"))
    else:
        raise ValueError(
            f"unknown denoiser kind {kind!r}; expected one of exact_mmse, "
            "mismatched_mmse, shrinkage, affine"
        )
    if prior is not None and denoiser.dim != prior.dim:
        raise ValueError(f"denoiser has dim {denoiser.dim}, but the prior has dim {prior.dim}")
    return denoiser

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

from .config import FACTOR, POSITIVE, count, real, real_array, require
from .prior import GmmPrior, _Basin, _check_sigma

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
    (m, n) batch, checks its row count (:meth:`check_rows`) and its shape,
    and runs ``_apply`` on it as an (m, n) stack of float64 rows, returning
    the result in the input's shape. ``_apply`` is the unchecked route,
    which callers that validated their stack once (the batched solver) run
    in their loops, so both routes give bitwise the same output. A subclass
    that defines only ``__call__`` still works there: ``_apply`` then falls
    back to the call.
    """

    dim: int

    def __call__(self, y) -> np.ndarray:
        self.check_rows(np.shape(y))
        y = self._check(y)
        return self._apply(y.reshape(-1, self.dim)).reshape(y.shape)

    def _apply(self, y) -> np.ndarray:
        if type(self).__call__ is Denoiser.__call__:
            raise NotImplementedError(f"{type(self).__name__} defines neither __call__ nor _apply")
        return self(y)

    def check_rows(self, shape) -> None:
        """Reject a stack of ``shape`` whose row count this denoiser is not built for; any stack here."""

    def _diagonal(self):
        """``(a, b)`` when ``_apply`` is the elementwise affine map ``a * y + b``, else None.

        ``a`` and ``b`` are floats, 0-d arrays or (n,) rows, or (m, n) stacks
        for a map tied to m rows. A scaling wrapper over a base with such a
        pair forms its own from it (see :class:`_OutputMap`). Only the batched
        solve folds a chain into its pair, over a mask; every ``_apply`` runs
        its own formula.
        """
        return None

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
    (``GmmPrior._half_sq_dists``), formed once for all of them, and a
    batched solve passes its ``basin`` (see :func:`_solve_basin`); both go
    by keyword, and the checked call takes the points only.
    """

    def __init__(self, prior: GmmPrior, sigma: float):
        self.prior = prior
        self.sigma = _check_sigma(sigma, POSITIVE)
        self.dim = prior.dim
        t, log_norm, rho, shrunk = prior._posterior_constants(self.sigma)
        if rho.size == 1:
            # Indexed once here: each call then multiplies by a 0-d factor and adds an (n,) row.
            rho, shrunk = rho.reshape(()), shrunk[0]
        self._constants = (t, log_norm, rho, shrunk)

    def _apply(self, y, half_sq=None, basin=None):
        return self.prior._posterior_mean(y, *self._constants, half_sq, basin)

    def _diagonal(self):
        """One Gaussian's ``(rho, (1 - rho) mu)``; a mixture of more is not affine."""
        return self._constants[2:] if self.prior.n_components == 1 else None


class ShrinkageDenoiser(Denoiser):
    """Multiply by a constant ``alpha`` in (0, 1]; ``alpha = 1`` is the identity."""

    def __init__(self, alpha: float, dim: int):
        self.dim = count(dim, "dim", POSITIVE)
        self.alpha = real(alpha, "alpha", FACTOR)

    def _apply(self, y):
        return self.alpha * y

    def _diagonal(self):
        return self.alpha, 0.0


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


def gamma_factor(delta: float) -> float:
    """The admissibility rescale ``delta^2 / (1 + delta^2)``, in (0, 1)."""
    d2 = delta * delta
    return d2 / (1.0 + d2)


def _spread(value, shape):
    """``value``, a float or an (m, 1) column, spread over a new read-only float64 array of
    ``shape``, () or (m, n); None stays None."""
    if value is None:
        return None
    out = np.empty(shape)
    out[...] = value
    out.setflags(write=False)
    return out


class _OutputMap(Denoiser):
    """``keep * y + weight * base(inner * y)``, with coefficients fixed when it is built.

    ``keep`` and ``inner`` may be None, for no identity term and no argument
    scaling. Each coefficient is a float, or an (m, 1) column for a map of
    ``rows`` = m rows, row i at row i's value. The scaling wrappers only choose
    them; this class forms their output, in ``_apply``, which evaluates that
    formula over any base and takes an optional ``out`` array that its last
    operation writes the result into, bitwise the fresh one. The base term is
    formed first, so ``out`` may alias ``y``. The call checks a stack's row
    count against ``rows`` and then against the base's (:meth:`check_rows`);
    ``_apply`` checks nothing.

    The coefficients are stored in the form the ufuncs take fastest: a 0-d
    float64 array for one map on every row, and a contiguous (m, n) stack for
    ``rows`` = m, which costs m n floats per coefficient but spares every call
    the broadcast of a column. Their values, and so the outputs, are those of
    the coefficients given.

    Over a base whose map is elementwise affine, ``_diagonal() = (a, b)``, the
    whole map is ``(keep + weight * inner * a) * y + weight * b``.
    :meth:`_diagonal` forms that pair when it is asked, for the batched solve
    over a mask to fold; it equals the map as written to round-off, not bitwise.
    """

    def __init__(self, base: Denoiser, weight, keep=None, inner=None, rows=None):
        self.base = base
        self.dim = base.dim
        self._n_rows = rows
        shape = () if rows is None else (rows, self.dim)
        self._keep, self._weight, self._inner = (_spread(v, shape) for v in (keep, weight, inner))

    def check_rows(self, shape) -> None:
        """Reject a stack of ``shape`` whose row count this map's, or its base's, does not match."""
        if self._n_rows is not None and (len(shape) != 2 or shape[0] != self._n_rows):
            raise ValueError(f"expected a stack of {self._n_rows} rows, got shape {shape}")
        self.base.check_rows(shape)

    def _apply(self, y, out=None, basin=None):
        """The unchecked map; its result is written into ``out`` when one is given.

        A solve's ``basin`` (see :func:`_solve_basin`) is passed on to the base by keyword.
        """
        x = y if self._inner is None else self._inner * y
        term = self.base._apply(x) if basin is None else self.base._apply(x, basin=basin)
        if self._keep is None:
            return np.multiply(self._weight, term, out=out)
        term = self._weight * term
        result = np.multiply(self._keep, y, out=out)
        result += term
        return result

    def _diagonal(self):
        """``(keep + weight * inner * a, weight * b)`` from the base's pair ``(a, b)``, or None.

        Formed on each call, at any row count: over a map of m rows the pair
        is two (m, n) stacks. An overflowing coefficient is left infinite,
        with numpy's warning unless the caller silences it.
        """
        pair = self.base._diagonal()
        if pair is None:
            return None
        a, b = pair
        coef = self._weight * a if self._inner is None else self._weight * self._inner * a
        return (coef if self._keep is None else self._keep + coef), self._weight * b


class OutputShrink(_OutputMap):
    """Compose a base denoiser with output shrinkage: ``y -> alpha * base(y)``.

    Used to force strict contraction (alpha < 1) where a stability run needs
    it: a non-expansive base becomes alpha-Lipschitz.
    """

    def __init__(self, base: Denoiser, alpha: float):
        self.alpha = real(alpha, "alpha", FACTOR)
        super().__init__(base, self.alpha)


class ScaledDenoiser(_OutputMap):
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
    ``g = delta^2 / (1 + delta^2)``, making the family strictly contractive
    when the base is non-expansive.

    Both modes are one :class:`_OutputMap`, ``keep * y + weight * base(inner
    * y)``: tweedie mode takes ``keep = g (1 - u)`` and ``weight = g u``, and
    homogeneous mode ``weight = g / delta`` and ``inner = delta``, with ``g =
    1`` when the rescale is off. The call and ``_apply`` evaluate that
    formula over any base: tweedie mode without the rescale is the
    interpolation above bitwise, and the other maps equal their formulas to
    round-off. Over an elementwise-affine base (a one-component
    :class:`MmseDenoiser`, a :class:`ShrinkageDenoiser`, or any wrapper of
    either, with one scale or one per row) the map also has a pair
    (:meth:`_diagonal`), which only :func:`~pnplab.solver.pnp_pgd_batch`
    folds, over a mask, into one multiply-add with its gradient step; mixtures of more components,
    :class:`AffineDenoiser` (a full matrix) and any other base have none.

    ``delta`` may also be a 1-D vector with one scale per row; the wrapper
    then maps (m, n) stacks with ``m == delta.size``, row i at scale
    ``delta[i]``, which is how the batched solver runs a whole scale grid,
    every row on every iteration, and holds its two coefficients as (m, n)
    stacks. The call checks that row count; ``_apply`` does not, so a caller
    of the unchecked route checks it once with :meth:`check_rows`.

    A ``delta`` given as a list, tuple or array is read with
    :func:`~pnplab.config.real_array`, any other with
    :func:`~pnplab.config.real`, both positive and finite. Every
    scale's square and inverse square must also be finite nonzero doubles
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
        read = real_array if isinstance(delta, (list, tuple, np.ndarray)) else real
        scales = np.asarray(read(delta, "delta", rule=POSITIVE))
        with np.errstate(over="ignore", divide="ignore"):
            inverse = 1.0 / (scales * scales)
        # A finite nonzero inverse square comes only from a finite nonzero square.
        usable = (inverse > 0) & (inverse < np.inf)
        if not np.all(usable):
            bad = float(scales.flat[np.argmin(usable)])
            raise ValueError(f"delta must have a finite nonzero square and inverse square, got {bad!r}")
        if mode not in self.MODES:
            raise ValueError(f"mode must be one of {self.MODES}, got {mode!r}")
        self.mode = mode
        self.gamma_rescale = bool(gamma_rescale)
        if scales.ndim == 0:
            self.delta = float(scales)
            rows, scale = None, self.delta
        else:
            self.delta = scales.copy()
            self.delta.setflags(write=False)
            rows, scale = scales.size, self.delta[:, None]
        g = gamma_factor(scale) if self.gamma_rescale else 1.0
        if mode == "tweedie":
            u = 1.0 / (scale * scale)
            super().__init__(base, g * u, keep=g * (1.0 - u), rows=rows)
        else:
            super().__init__(base, g / scale, inner=scale, rows=rows)


def tweedie_scale(base: Denoiser, delta: float, gamma_rescale: bool = False) -> ScaledDenoiser:
    """Residual scaling ``y + (base(y) - y) / delta^2`` as a wrapper object."""
    return ScaledDenoiser(base, delta, mode="tweedie", gamma_rescale=gamma_rescale)


def homogeneous_scale(base: Denoiser, delta: float, gamma_rescale: bool = False) -> ScaledDenoiser:
    """Argument/output scaling ``base(delta * y) / delta`` as a wrapper object."""
    return ScaledDenoiser(base, delta, mode="homogeneous", gamma_rescale=gamma_rescale)


def _innermost(denoiser):
    """The base at the end of ``denoiser``'s chain of output maps, or ``denoiser`` if it is none,
    and the maps' argument factors (``inner``), outermost first."""
    scales = []
    while isinstance(denoiser, _OutputMap):
        if denoiser._inner is not None:
            scales.append(denoiser._inner)
        denoiser = denoiser.base
    return denoiser, scales


def _solve_basin(denoiser):
    """A new basin (``prior._Basin``) for one batched solve of ``denoiser``, or None.

    Only a chain of output maps that ends at a mixture denoiser of more than
    one component gets one (such a chain has no pair); each map passes it on
    to its base by keyword, down to the prior's posterior mean. The basin
    keeps the maps' argument factors (``inner``), outermost first, which
    carry a solve's denoiser inputs to the points the prior sees.
    """
    base, scales = _innermost(denoiser)
    return _Basin(scales) if isinstance(base, MmseDenoiser) and base.prior.n_components > 1 else None


# Floats per block of rows that a Monte-Carlo pass or estimate_lipschitz runs
# its denoisers on, and per block of estimate_lipschitz's pair differences:
# 128 rows at n = 256, 4096 rows at n = 8. A row of work costs _row_width
# floats, which bounds both the (rows, n) blocks and the (K, rows) distance and
# responsibility temporaries of a K-component mixture denoiser.
_BLOCK_FLOATS = 1 << 15


def _row_width(denoiser, dim: int) -> int:
    """Floats one row of ``dim`` costs ``denoiser``: ``max(dim, K)``.

    K is the component count of the mixture denoiser at the end of
    ``denoiser``'s chain of output maps (:func:`_innermost`), and 1 if there is none.
    """
    base = _innermost(denoiser)[0]
    return max(dim, base.prior.n_components if isinstance(base, MmseDenoiser) else 1)


def _block_rows(denoisers, dim: int) -> int:
    """Rows of a block of about ``_BLOCK_FLOATS`` floats, a row as wide as the widest of ``denoisers``."""
    return max(1, _BLOCK_FLOATS // max(_row_width(d, dim) for d in denoisers))


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
    norm of its matrix, which it can never exceed by more than its rounding:
    an output of ``W y + b`` is rounded by at most ``(n + 1) eps / 2`` times
    ``|W| |y| + |b|`` entrywise, so a pair's ratio by about twice that over
    that pair's own distance. Each pair's ratio, less its own allowance, is
    held to the norm, so a near-duplicate pair loosens no other pair's
    check. The denoiser runs on
    blocks of rows sized by its row width (:func:`_row_width`, which finds a
    mixture's component count through its chain of output maps),
    and pairs are formed one block of rows at a time, so memory grows with
    the cloud, not with its pairs or the prior's components: beyond the
    points it holds the (m, n) outputs, at most ``2 max(_BLOCK_FLOATS, m n)``
    floats of one block's pair differences and their squares, and four
    blocks of ``_BLOCK_FLOATS`` floats. Points or outputs whose squared pair
    distances may overflow are rejected.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] < 2:
        raise ValueError("need at least two points")
    m, n = _check_spread(pts, "points").shape
    rows = _block_rows([denoiser], n)
    outputs = np.empty_like(pts)
    for start in range(0, m, rows):
        outputs[start : start + rows] = denoiser(pts[start : start + rows])
    _check_spread(outputs, "outputs")
    affine = isinstance(denoiser, AffineDenoiser)
    if affine:
        # An output rounds by at most (n + 1) eps / 2 (|W| |y| + |b|), whose norm is at most
        # `largest`, so a pair's output distance by (n + 1) eps largest; the distances and
        # their ratio round by about (n + 4) eps / 2 of the ratio. Each allowance is doubled.
        exact = float(np.linalg.norm(denoiser.matrix, 2))
        largest = float(np.linalg.norm(denoiser.matrix)) * float(np.max(np.linalg.norm(pts, axis=1)))
        largest += float(np.linalg.norm(denoiser.offset))
        margin = 2.0 * (n + 4) * 2.0**-52 * largest
    step = max(1, _BLOCK_FLOATS // (m * n))
    estimate, floor, paired = 0.0, 0.0, False
    for start in range(0, m - 1, step):
        stop = min(start + step, m - 1)
        # Each row i of the block against every later point j > i.
        later = np.arange(start, m)[None, :] > np.arange(start, stop)[:, None]
        dist_in = _pair_distances(pts, start, stop)[later]
        dist_out = _pair_distances(outputs, start, stop)[later]
        valid = dist_in > 0.0
        if np.any(valid):
            paired = True
            estimate = max(estimate, float(np.max(dist_out[valid] / dist_in[valid])))
            if affine:
                # Each pair's ratio less its own rounding allowance.
                floor = max(floor, float(np.max((dist_out[valid] - margin) / dist_in[valid])))
    if not paired:
        raise ValueError("all point pairs are duplicates; no valid pair")
    if affine and floor > exact * (1.0 + 2.0 * (n + 4) * 2.0**-52):
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
    rejected. ``sigma_train``, ``alpha`` and ``dim`` are read by the
    denoiser they build.
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
        denoiser = ShrinkageDenoiser(alpha, dim)
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

"""Monte-Carlo estimators for denoising loss and the optimal scale.

Every comparison runs on one shared sample set (common random numbers), which
is what makes near-equal losses distinguishable at desk-scale sample counts.
On a fixed sample set the loss of a residual-scaled denoiser is an exact
quadratic in ``u = 1/delta^2``, so the optimal scale is a ratio of two sample
moments; its standard error comes from the first-order delta method for a
ratio of correlated means. :class:`ResidualMoments` holds the three per-sample
moments of one denoiser pass, from which every loss on the scale family
follows without evaluating the denoiser again.

A denoiser pass runs over blocks of rows sized to a fixed element budget, so
its temporaries stay cache-sized and no full (samples, n) array is built
beyond the samples themselves; the per-sample arrays still cover every
sample, and every mean, standard error and ratio is taken over all of them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .denoisers import Denoiser, MmseDenoiser
from .prior import GmmPrior

__all__ = [
    "L2Estimate",
    "DeltaOptEstimate",
    "SandwichReport",
    "DegenerateDenoiserError",
    "ResidualMoments",
    "estimate_l2",
    "estimate_delta_opt",
    "verify_sandwich",
    "delta_sweep",
]


class DegenerateDenoiserError(RuntimeError):
    """The denoiser is indistinguishable from the identity; no optimal scale."""


@dataclass(frozen=True)
class L2Estimate:
    """Sample mean and standard error of the squared denoising error."""

    value: float
    stderr: float
    samples: int
    seed: int


@dataclass(frozen=True)
class DeltaOptEstimate:
    """Moment estimates behind the optimal squared scale.

    ``delta_opt_sq`` is exactly ``-numerator / denominator``. A shrinking
    denoiser makes the denominator negative; a nonnegative one is flagged
    here rather than rejected.
    """

    numerator: float
    denominator: float
    delta_opt_sq: float
    stderr_delta_opt_sq: float
    samples: int
    seed: int
    nonnegative_denominator: bool = False

    @property
    def delta_opt(self) -> float:
        return float(np.sqrt(self.delta_opt_sq))


@dataclass(frozen=True)
class SandwichReport:
    """Three losses sharing one sample set, with the pass/fail verdict."""

    delta_opt: DeltaOptEstimate
    l2_mmse: L2Estimate
    l2_scaled: L2Estimate
    l2_base: L2Estimate
    margin_lower: float
    margin_upper: float
    combined_stderr_lower: float
    combined_stderr_upper: float
    passed: bool


# Floats per block of a denoiser pass: 256 rows at n = 256, 8192 rows at n = 8.
_BLOCK_FLOATS = 1 << 16


def _row_blocks(rows: int, dim: int):
    """Consecutive row slices holding about ``_BLOCK_FLOATS`` floats each."""
    step = max(1, _BLOCK_FLOATS // max(dim, 1))
    for start in range(0, rows, step):
        yield slice(start, min(start + step, rows))


# Most floats one (samples, n) array may hold; 20000 x 256 is 5.1e6.
_MAX_SAMPLE_FLOATS = 1 << 25


def _check_samples(samples: int, dim: int = 1):
    if samples < 2:
        raise ValueError("samples must be >= 2")
    if samples * dim > _MAX_SAMPLE_FLOATS:
        raise ValueError(
            f"samples x dim = {samples} x {dim} exceeds the cap of {_MAX_SAMPLE_FLOATS} floats"
        )


def _l2_of(sq: np.ndarray, seed: int) -> L2Estimate:
    """Mean and standard error of per-sample squared errors."""
    m = sq.size
    return L2Estimate(
        value=float(sq.mean()),
        stderr=float(np.std(sq, ddof=1) / np.sqrt(m)),
        samples=m,
        seed=seed,
    )


def _l2_on_samples(denoiser, clean: np.ndarray, noisy: np.ndarray, seed: int) -> L2Estimate:
    """Loss of ``denoiser`` on (clean, noisy) pairs of shape (m, n), block by block."""
    sq = np.empty(len(noisy))
    for rows in _row_blocks(*noisy.shape):
        diff = np.asarray(denoiser(noisy[rows]), dtype=np.float64) - clean[rows]
        sq[rows] = np.sum(diff * diff, axis=1)
    return _l2_of(sq, seed)


def estimate_l2(denoiser, prior: GmmPrior, sigma: float, samples: int, seed: int) -> L2Estimate:
    """Monte-Carlo squared denoising error ``E |D(x + sigma xi) - x|^2``."""
    _check_samples(samples, prior.dim)
    clean, noisy = prior.sample_pairs(sigma, samples, seed)
    return _l2_on_samples(denoiser, clean, noisy, seed)


def _delta_opt_of(a: np.ndarray, b: np.ndarray, seed: int) -> DeltaOptEstimate:
    """Optimal squared scale from per-sample ``|r|^2`` (a) and ``e . r`` (b)."""
    m = a.size
    num = float(a.mean())
    den = float(b.mean())
    if abs(den) < 1e-12 * (1.0 + num):
        raise DegenerateDenoiserError(
            "denoiser is numerically indistinguishable from the identity; "
            "the optimal scale is undefined"
        )
    cov = np.cov(a, b, ddof=1)
    var = (
        cov[0, 0] / den**2
        - 2.0 * num * cov[0, 1] / den**3
        + num**2 * cov[1, 1] / den**4
    ) / m
    return DeltaOptEstimate(
        numerator=num,
        denominator=den,
        delta_opt_sq=-num / den,
        stderr_delta_opt_sq=float(np.sqrt(max(var, 0.0))),
        samples=m,
        seed=seed,
        nonnegative_denominator=den >= 0.0,
    )


def _scale_grid(values, name: str = "delta grid") -> np.ndarray:
    """A nonempty 1-D grid of positive values, as floats; ``name`` is its config field."""
    grid = np.asarray(values, dtype=np.float64)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError(f"{name} must be a nonempty 1-D sequence")
    if not np.all(grid > 0):
        raise ValueError(f"every value of {name} must be positive")
    return grid


@dataclass(frozen=True)
class ResidualMoments:
    """Per-sample moments of one denoiser pass over a fixed sample set.

    With noise ``e = noisy - clean`` and residual ``r = D(noisy) - noisy``,
    the residual-scaled denoiser ``y + u r`` (``u = 1/delta^2``) errs by
    ``e + u r``, whose squared norm is ``|e|^2 + 2 u e.r + u^2 |r|^2``. The
    three arrays ``ee``, ``er`` and ``rr`` therefore give the loss at any
    scale and the optimal scale. The expansion loses relative accuracy only
    where ``|e + u r|`` is far below ``|e|``, i.e. for a near-perfect denoiser.
    """

    ee: np.ndarray
    er: np.ndarray
    rr: np.ndarray
    seed: int

    @classmethod
    def from_samples(cls, denoiser, clean, noisy, seed: int) -> "ResidualMoments":
        """One denoiser pass over (clean, noisy) pairs of shape (m, n), m >= 2."""
        _check_samples(len(noisy))
        ee, er, rr = (np.empty(len(noisy)) for _ in range(3))
        for rows in _row_blocks(*noisy.shape):
            y = noisy[rows]
            noise = y - clean[rows]
            residual = np.asarray(denoiser(y), dtype=np.float64) - y
            ee[rows] = np.sum(noise * noise, axis=1)
            er[rows] = np.sum(noise * residual, axis=1)
            rr[rows] = np.sum(residual * residual, axis=1)
        return cls(ee=ee, er=er, rr=rr, seed=seed)

    def l2(self, delta: float) -> L2Estimate:
        """Loss of the residual-scaled denoiser at scale ``delta``."""
        u = 1.0 / (delta * delta)
        return _l2_of(self.ee + 2.0 * u * self.er + (u * u) * self.rr, self.seed)

    def sweep(self, delta_grid) -> list[tuple[float, L2Estimate]]:
        """:meth:`l2` at each scale of a nonempty grid of positive scales."""
        return [(float(d), self.l2(float(d))) for d in _scale_grid(delta_grid)]

    def delta_opt(self) -> DeltaOptEstimate:
        """The loss-minimising squared scale; see :func:`estimate_delta_opt`."""
        return _delta_opt_of(self.rr, self.er, self.seed)


def estimate_delta_opt(
    denoiser, prior: GmmPrior, sigma: float, samples: int, seed: int
) -> DeltaOptEstimate:
    """Estimate the loss-minimising squared scale of the residual family.

    Both moments (mean squared residual, mean noise/residual inner product)
    come from the same sample set, and the returned standard error accounts
    for their correlation.
    """
    _check_samples(samples, prior.dim)
    clean, noisy = prior.sample_pairs(sigma, samples, seed)
    return ResidualMoments.from_samples(denoiser, clean, noisy, seed).delta_opt()


def verify_sandwich(
    denoiser, prior: GmmPrior, sigma: float, samples: int, seed: int
) -> SandwichReport:
    """Check that the optimally scaled denoiser sits between the optimum and the base.

    Computes the exact-posterior-mean loss, the loss of the base rescaled at
    its estimated optimal scale, and the base loss, all on one sample set.
    Passing means both orderings hold within three combined standard errors.

    Two denoiser passes in all: one of the base, whose
    :class:`ResidualMoments` give the optimal scale and both base-family
    losses (the base itself is the family member at ``delta = 1``), and one of
    the exact posterior mean.
    """
    _check_samples(samples, prior.dim)
    clean, noisy = prior.sample_pairs(sigma, samples, seed)
    moments = ResidualMoments.from_samples(denoiser, clean, noisy, seed)
    opt = moments.delta_opt()
    l2_mmse = _l2_on_samples(MmseDenoiser(prior, sigma), clean, noisy, seed)
    l2_scaled = moments.l2(opt.delta_opt)
    l2_base = moments.l2(1.0)
    se_lower = float(np.hypot(l2_mmse.stderr, l2_scaled.stderr))
    se_upper = float(np.hypot(l2_scaled.stderr, l2_base.stderr))
    margin_lower = l2_scaled.value - l2_mmse.value
    margin_upper = l2_base.value - l2_scaled.value
    passed = margin_lower >= -3.0 * se_lower and margin_upper >= -3.0 * se_upper
    return SandwichReport(
        delta_opt=opt,
        l2_mmse=l2_mmse,
        l2_scaled=l2_scaled,
        l2_base=l2_base,
        margin_lower=margin_lower,
        margin_upper=margin_upper,
        combined_stderr_lower=se_lower,
        combined_stderr_upper=se_upper,
        passed=passed,
    )


def delta_sweep(
    denoiser: Denoiser,
    prior: GmmPrior,
    sigma: float,
    delta_grid,
    samples: int,
    seed: int,
) -> list[tuple[float, L2Estimate]]:
    """Loss of the residual-scaled denoiser at each grid scale, on shared samples.

    One denoiser pass serves the whole grid (see :class:`ResidualMoments`);
    the direct evaluation through :func:`tweedie_scale` is its test oracle.
    """
    _check_samples(samples, prior.dim)
    clean, noisy = prior.sample_pairs(sigma, samples, seed)
    return ResidualMoments.from_samples(denoiser, clean, noisy, seed).sweep(delta_grid)

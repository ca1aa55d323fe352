"""Monte-Carlo estimators for denoising loss and the optimal scale.

Every comparison runs on one shared sample set (common random numbers), which
is what makes near-equal losses distinguishable at desk-scale sample counts.
On a fixed sample set the loss of a residual-scaled denoiser is an exact
quadratic in ``u = 1/delta^2``, so the optimal scale is a ratio of two sample
moments; its standard error comes from the first-order delta method for a
ratio of correlated means. :class:`ResidualMoments` holds three per-sample
moments of one denoiser pass, in the basis of the denoiser's error and
residual, with their means and 3x3 covariance; the loss and standard error
at every scale, and the optimal scale, are closed forms in those statistics,
so a whole scale grid costs one pass plus O(1) per scale.

Every estimate runs one block loop, :func:`_one_pass`: it traverses a sample
set once, in blocks of rows sized to a fixed element budget, and evaluates
every denoiser of the comparison on each block, so temporaries stay
cache-sized. Sample sets drawn here come from :meth:`GmmPrior.pair_blocks`,
so the noisy rows are drawn block by block and never held whole. MMSE
denoisers over one prior share each block's distances to its components.
The per-sample arrays still cover every sample, and every mean, standard
error and ratio is taken over all of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import denoisers as _zoo
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


# Floats per block of a denoiser pass: 128 rows at n = 256, 4096 rows at n = 8.
# A pass holds every denoiser's per-sample moments at once, so its block
# temporaries are kept small enough that its peak memory does not grow.
_BLOCK_FLOATS = 1 << 15


def _block_rows(dim: int) -> int:
    """Rows of a block holding about ``_BLOCK_FLOATS`` floats."""
    return max(1, _BLOCK_FLOATS // max(dim, 1))


def _array_blocks(clean: np.ndarray, noisy: np.ndarray):
    """Consecutive ``(rows, clean, noisy)`` blocks of two (m, n) arrays, as ``pair_blocks`` yields them."""
    step = _block_rows(noisy.shape[1])
    for start in range(0, len(noisy), step):
        rows = slice(start, min(start + step, len(noisy)))
        yield rows, clean[rows], noisy[rows]


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


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-row inner products of two (m, n) arrays, without an (m, n) temporary."""
    return np.einsum("ij,ij->i", a, b)


def _l2_on_samples(denoiser, clean: np.ndarray, noisy: np.ndarray, seed: int) -> L2Estimate:
    """Loss of ``denoiser`` on (clean, noisy) pairs of shape (m, n), m >= 2."""
    return _l2_of(ResidualMoments.from_samples(denoiser, clean, noisy, seed).aa, seed)


def estimate_l2(denoiser, prior: GmmPrior, sigma: float, samples: int, seed: int) -> L2Estimate:
    """Monte-Carlo squared denoising error ``E |D(x + sigma xi) - x|^2``."""
    (moments,) = _moments_on_prior([denoiser], prior, sigma, samples, seed)
    return _l2_of(moments.aa, seed)


def _check_denominator(num, den) -> None:
    if abs(den) < 1e-12 * (1.0 + num):
        raise DegenerateDenoiserError(
            "denoiser is numerically indistinguishable from the identity; "
            "the optimal scale is undefined"
        )


def _delta_opt_estimate(num: float, den: float, var, samples: int, seed: int) -> DeltaOptEstimate:
    """``-num / den`` with ``var``, the delta-method variance of that ratio of means."""
    return DeltaOptEstimate(
        numerator=num,
        denominator=den,
        delta_opt_sq=-num / den,
        stderr_delta_opt_sq=float(np.sqrt(max(var, 0.0))),
        samples=samples,
        seed=seed,
        nonnegative_denominator=den >= 0.0,
    )


def _delta_opt_of(a: np.ndarray, b: np.ndarray, seed: int) -> DeltaOptEstimate:
    """Optimal squared scale from per-sample ``|r|^2`` (a) and ``e . r`` (b).

    The noise-basis route, kept as the test oracle of
    :meth:`ResidualMoments.delta_opt`. For a near-perfect denoiser its
    variance is a small difference of large terms, so it is evaluated in the
    precision of ``a`` and ``b``: given extended-precision arrays it is a
    referee for the float64 closed form.
    """
    num, den = a.mean(), b.mean()
    _check_denominator(num, den)
    cov = np.cov(a, b, ddof=1)
    var = (
        cov[0, 0] / den**2
        - 2.0 * num * cov[0, 1] / den**3
        + num**2 * cov[1, 1] / den**4
    ) / a.size
    return _delta_opt_estimate(float(num), float(den), var, a.size, seed)


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

    With the denoiser's error ``a = D(noisy) - clean`` and residual
    ``r = D(noisy) - noisy``, the residual-scaled denoiser ``y + u r``
    (``u = 1/delta^2``) errs by ``a + s r`` with ``s = u - 1``, whose squared
    norm is ``|a|^2 + 2 s a.r + s^2 |r|^2``. The arrays ``aa``, ``ar`` and
    ``rr`` hold those three moments per sample; ``mean`` (3,) and ``cov``
    (3x3, ddof 1) are computed from them once, and every loss, standard
    error and optimal scale is a closed form in ``mean`` and ``cov``.

    The closed form is accurate while ``|a + s r|`` is not far below ``|a|``.
    At ``delta = 1`` it is the direct evaluation, and for a near-perfect
    denoiser ``|a|`` is already small, which is why the basis is the error
    and not the noise ``e = a - r``: in the noise basis a near-perfect
    denoiser is the case ``|e + u r| << |e|``, and its standard errors lose
    relative accuracy (4e-8 on a prior of variance 1e-6 at sigma 0.1).
    """

    aa: np.ndarray
    ar: np.ndarray
    rr: np.ndarray
    seed: int
    mean: np.ndarray = field(init=False, repr=False)
    cov: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        centred = np.stack((self.aa, self.ar, self.rr))
        mean = centred.mean(axis=1)
        centred -= mean[:, None]
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", centred @ centred.T / (centred.shape[1] - 1))

    @classmethod
    def from_samples(cls, denoiser, clean, noisy, seed: int) -> "ResidualMoments":
        """One denoiser pass over (clean, noisy) pairs of shape (m, n), m >= 2."""
        _check_samples(len(noisy))
        return _one_pass([denoiser], _array_blocks(clean, noisy), len(noisy), seed)[0]

    def _losses(self, deltas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Loss and standard error at each scale, elementwise, so one scale reads the same alone."""
        s = 1.0 / (deltas * deltas) - 1.0
        w = (np.ones_like(s), 2.0 * s, s * s)
        value = sum(self.mean[i] * w[i] for i in range(3))
        var = sum(self.cov[i, j] * (w[i] * w[j]) for i in range(3) for j in range(3))
        return value, np.sqrt(np.maximum(var, 0.0)) / np.sqrt(self.aa.size)

    def _estimate(self, value, stderr) -> L2Estimate:
        return L2Estimate(float(value), float(stderr), self.aa.size, self.seed)

    def l2(self, delta: float) -> L2Estimate:
        """Loss of the residual-scaled denoiser at scale ``delta``."""
        value, stderr = self._losses(np.array([delta], dtype=np.float64))
        return self._estimate(value[0], stderr[0])

    def sweep(self, delta_grid) -> list[tuple[float, L2Estimate]]:
        """:meth:`l2` at each scale of a nonempty grid of positive scales."""
        grid = _scale_grid(delta_grid)
        values, stderrs = self._losses(grid)
        return [(float(d), self._estimate(v, e)) for d, v, e in zip(grid, values, stderrs)]

    def delta_opt(self) -> DeltaOptEstimate:
        """The loss-minimising squared scale; see :func:`estimate_delta_opt`.

        It is ``-mean(|r|^2) / mean(e.r)`` with ``e.r = a.r - |r|^2``. Its
        delta-method variance is taken in the error basis, as the gradient of
        ``rr / (rr - ar)`` against ``cov``: no large terms cancel there for a
        near-perfect denoiser, as they do in the noise basis.
        """
        (_, ar, rr), c = self.mean, self.cov
        num, den = float(rr), float(ar - rr)
        _check_denominator(num, den)
        var = (ar * ar * c[2, 2] - 2.0 * ar * rr * c[1, 2] + rr * rr * c[1, 1]) / den**4
        return _delta_opt_estimate(num, den, var / self.aa.size, self.aa.size, self.seed)


def _one_pass(denoisers: list, blocks, samples: int, seed: int) -> list[ResidualMoments]:
    """Traverse ``blocks`` once and return the :class:`ResidualMoments` of each denoiser.

    ``blocks`` yields ``(rows, clean, noisy)`` triples covering ``samples``
    rows. On each block, the MMSE denoisers over one mixture prior of more
    than one component share the block's distances to its components, formed
    once, and their residual is formed in place of their fresh output. Every
    other denoiser is called on the block, and its output, which may be the
    block itself or an array the denoiser keeps, is only read.
    """
    # The class is looked up on its module, so that rebinding the name
    # ``analysis.MmseDenoiser`` does not change which denoisers share distances.
    keys = [
        id(d.prior) if isinstance(d, _zoo.MmseDenoiser) and d.prior.n_components > 1 else None
        for d in denoisers
    ]
    mixtures = {key: d.prior for key, d in zip(keys, denoisers) if key is not None}
    stats = np.empty((len(denoisers), 3, samples))
    for rows, clean, noisy in blocks:
        dists = {key: prior._half_sq_dists(noisy) for key, prior in mixtures.items()}
        for d, key, (aa, ar, rr) in zip(denoisers, keys, stats):
            if key is not None:
                out = d(noisy, dists[key])
                error = out - clean
                residual = out
                residual -= noisy
            else:
                out = np.asarray(d(noisy), dtype=np.float64)
                error = out - clean
                residual = out - noisy
            aa[rows] = _row_dot(error, error)
            ar[rows] = _row_dot(error, residual)
            rr[rows] = _row_dot(residual, residual)
    return [ResidualMoments(aa=aa, ar=ar, rr=rr, seed=seed) for aa, ar, rr in stats]


def _moments_on_prior(denoisers: list, prior: GmmPrior, sigma: float, samples: int, seed: int):
    """:func:`_one_pass` of ``denoisers`` over ``samples`` pairs drawn from ``prior`` at ``sigma``."""
    _check_samples(samples, prior.dim)
    blocks = prior.pair_blocks(sigma, samples, seed, _block_rows(prior.dim))
    return _one_pass(denoisers, blocks, samples, seed)


def estimate_delta_opt(
    denoiser, prior: GmmPrior, sigma: float, samples: int, seed: int
) -> DeltaOptEstimate:
    """Estimate the loss-minimising squared scale of the residual family.

    Both moments (mean squared residual, mean noise/residual inner product)
    come from the same sample set, and the returned standard error accounts
    for their correlation.
    """
    (moments,) = _moments_on_prior([denoiser], prior, sigma, samples, seed)
    return moments.delta_opt()


def verify_sandwich(
    denoiser, prior: GmmPrior, sigma: float, samples: int, seed: int
) -> SandwichReport:
    """Check that the optimally scaled denoiser sits between the optimum and the base.

    Computes the exact-posterior-mean loss, the loss of the base rescaled at
    its estimated optimal scale, and the base loss, all on one sample set.
    Passing means both orderings hold within three combined standard errors.

    One pass over the samples runs the base, whose
    :class:`ResidualMoments` give the optimal scale and both base-family
    losses (the base itself is the family member at ``delta = 1``), and the
    exact posterior mean. A base with no positive optimal scale (a
    nonnegative mean noise/residual inner product, as for an expanding map)
    raises :class:`DegenerateDenoiserError`.
    """
    moments, exact = _moments_on_prior(
        [denoiser, MmseDenoiser(prior, sigma)], prior, sigma, samples, seed
    )
    opt = moments.delta_opt()
    if opt.nonnegative_denominator:
        raise DegenerateDenoiserError(
            "no positive optimal scale exists: the mean inner product of the noise "
            f"and the denoiser's residual is {opt.denominator!r}, not negative"
        )
    l2_mmse = _l2_of(exact.aa, seed)
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
    (moments,) = _moments_on_prior([denoiser], prior, sigma, samples, seed)
    return moments.sweep(delta_grid)

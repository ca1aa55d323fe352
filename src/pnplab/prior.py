"""Gaussian-mixture priors with closed-form smoothed densities and scores.

A mixture with isotropic per-component covariance stays a mixture after
Gaussian smoothing (the component variances just grow by sigma^2), so the
smoothed log-density, its gradient, and the exact posterior mean under
additive Gaussian noise are all available in closed form. That gives two
independent routes to the optimal denoiser: the score route
``y + sigma^2 * grad log p(y)`` and the direct posterior-mean route, which
the test suite holds against each other.

Each public method checks ``sigma`` and its points once, then runs one
unchecked private route on an (m, n) batch with the per-noise-level
constants from ``_smoothed``; :class:`~pnplab.denoisers.MmseDenoiser` computes
those once and calls the route directly. With one component the
responsibilities are ones, as the softmax gives wherever ``|y|^2`` is finite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["GmmPrior"]

_LOG_2PI = float(np.log(2.0 * np.pi))


def _as_points(y, dim: int):
    """View ``y`` as an (m, dim) batch; report whether it was a single vector."""
    y = np.asarray(y, dtype=np.float64)
    if y.ndim == 1:
        if y.size != dim:
            raise ValueError(f"point has dim {y.size}, expected {dim}")
        return y[None, :], True
    if y.ndim == 2:
        if y.shape[1] != dim:
            raise ValueError(f"points have dim {y.shape[1]}, expected {dim}")
        return y, False
    raise ValueError(f"points must be 1-D or 2-D, got shape {y.shape}")


@dataclass(frozen=True)
class GmmPrior:
    """Finite Gaussian mixture with isotropic per-component covariance.

    Parameters
    ----------
    weights : (K,) positive reals summing to 1.
    means : (K, n) component means.
    variances : (K,) positive per-component variances (covariance ``v_k * I``).
    """

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        mu = np.asarray(self.means, dtype=np.float64)
        v = np.asarray(self.variances, dtype=np.float64)
        if mu.ndim == 1:
            mu = mu[:, None]
        if w.ndim != 1 or w.size < 1:
            raise ValueError("weights must be a nonempty 1-D vector")
        if np.any(w <= 0):
            raise ValueError("all mixture weights must be positive")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1, got {w.sum()!r}")
        if mu.ndim != 2 or mu.shape[0] != w.size:
            raise ValueError("means must be a (K, n) array matching the weights")
        if v.shape != w.shape or np.any(v <= 0):
            raise ValueError("variances must be positive, one per component")
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(mu)) and np.all(np.isfinite(v))):
            raise ValueError("prior parameters must be finite")
        for name, arr in (
            ("weights", w),
            ("means", mu),
            ("variances", v),
            ("_log_weights", np.log(w)),
            ("_means_sq", np.sum(mu * mu, axis=1)),
        ):
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_components(self) -> int:
        return self.weights.size

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    @property
    def mean(self) -> np.ndarray:
        """Mixture mean ``sum_k w_k mu_k``."""
        return self.weights @ self.means

    @classmethod
    def from_config(cls, config: dict) -> "GmmPrior":
        for key in ("weights", "means", "variances"):
            if key not in config:
                raise ValueError(f"prior config missing required field {key!r}")
        return cls(config["weights"], config["means"], config["variances"])

    # -- densities ---------------------------------------------------------

    def _smoothed(self, sigma: float) -> tuple[np.ndarray, np.ndarray]:
        """Smoothed variances ``t = v + sigma^2``, log normalisers ``log w - n/2 log(2 pi t)``."""
        t = self.variances + sigma * sigma
        return t, self._log_weights - 0.5 * self.dim * (_LOG_2PI + np.log(t))

    def _component_logpdf(self, points, t, log_norm) -> np.ndarray:
        """(m, K) array of ``log w_k + log N(y; mu_k, t_k I)``."""
        sq = points @ self.means.T
        sq *= 2.0
        np.subtract(np.sum(points * points, axis=1)[:, None] + self._means_sq, sq, out=sq)
        np.maximum(sq, 0.0, out=sq)
        sq *= 0.5
        sq /= t
        return np.subtract(log_norm, sq, out=sq)

    def _responsibilities(self, points, t, log_norm) -> np.ndarray:
        """(m, K) log-space softmax of the component log-terms; ones for one component."""
        if self.n_components == 1:
            return np.ones((points.shape[0], 1))
        r = self._component_logpdf(points, t, log_norm)
        r -= r.max(axis=1, keepdims=True)
        np.exp(r, out=r)
        r /= r.sum(axis=1, keepdims=True)
        return r

    def _score(self, points, t, log_norm) -> np.ndarray:
        """(m, n) gradient of the smoothed log-density."""
        r = self._responsibilities(points, t, log_norm)
        r /= t
        out = r @ self.means
        out -= points * r.sum(axis=1)[:, None]
        return out

    def log_density(self, y, sigma: float = 0.0):
        """Log-density of the noise-smoothed mixture at noise level ``sigma``.

        ``sigma = 0`` gives the prior itself. Evaluated with log-sum-exp so
        points far from every component stay finite.
        """
        if sigma < 0:
            raise ValueError("sigma must be nonnegative")
        points, single = _as_points(y, self.dim)
        logs = self._component_logpdf(points, *self._smoothed(sigma))
        top = logs.max(axis=1)
        out = top + np.log(np.sum(np.exp(logs - top[:, None]), axis=1))
        return float(out[0]) if single else out

    def responsibilities(self, y, sigma: float = 0.0):
        """Posterior component probabilities at noise level ``sigma``.

        Computed as a log-space softmax; when every component underflows the
        max-shift leaves a hard assignment to the nearest component.
        """
        if sigma < 0:
            raise ValueError("sigma must be nonnegative")
        points, single = _as_points(y, self.dim)
        r = self._responsibilities(points, *self._smoothed(sigma))
        return r[0] if single else r

    def score(self, y, sigma: float = 0.0):
        """Gradient of the smoothed log-density with respect to ``y``."""
        if sigma < 0:
            raise ValueError("sigma must be nonnegative")
        points, single = _as_points(y, self.dim)
        out = self._score(points, *self._smoothed(sigma))
        return out[0] if single else out

    # -- denoising ---------------------------------------------------------

    def mmse_denoise(self, y, sigma: float):
        """Posterior mean via the score route: ``y + sigma^2 * score(y, sigma)``."""
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        points, single = _as_points(y, self.dim)
        out = self.score(points, sigma)
        out *= sigma * sigma
        out += points
        return out[0] if single else out

    def posterior_mean(self, y, sigma: float):
        """Posterior mean by direct mixture algebra, independent of the score.

        Each component contributes its Wiener-shrunk estimate
        ``mu_k + v_k / (v_k + sigma^2) * (y - mu_k)`` weighted by the
        responsibilities. Agrees with :meth:`mmse_denoise` to round-off; the
        two are kept as separate code paths on purpose.
        """
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        points, single = _as_points(y, self.dim)
        t, log_norm = self._smoothed(sigma)
        rho = self.variances / t
        r = self._responsibilities(points, t, log_norm)
        out = (r * (1.0 - rho)[None, :]) @ self.means + points * (r @ rho)[:, None]
        return out[0] if single else out

    # -- sampling ----------------------------------------------------------

    def sample_pairs(self, sigma: float, count: int, seed: int):
        """Draw ``count`` (clean, noisy) pairs, noisy = clean + sigma * xi.

        Deterministic given ``seed``: same seed, bitwise-identical arrays.
        Returns two (count, n) arrays.
        """
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        if count < 1:
            raise ValueError("count must be >= 1")
        rng = np.random.default_rng(seed)
        comps = rng.choice(self.n_components, size=count, p=self.weights)
        clean = rng.standard_normal((count, self.dim))
        clean *= np.sqrt(self.variances[comps])[:, None]
        clean += self.means[comps]
        noisy = rng.standard_normal((count, self.dim))
        noisy *= sigma
        noisy += clean
        return clean, noisy

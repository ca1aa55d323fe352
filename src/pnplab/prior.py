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
constants from ``_smoothed``. The posterior mean's route, ``_posterior_mean``,
is the hot path: :class:`~pnplab.denoisers.MmseDenoiser` computes its
constants (``_posterior_constants``) once and calls it directly, and the
score route is its oracle. Every route builds on one distance kernel,
``_half_sq_dists``, the only place ``|y - mu_k|^2`` is formed. It is laid out
component-major, (K, m), so the softmax reduces over the contiguous axis, and
it expands the squared distance about the mean of the component means, so
that it stays accurate for a mixture far from the origin. Callers that
evaluate several noise levels on the same points pass the distances in once.
With one component the responsibilities are ones and no distance is formed,
and the posterior mean is the Gaussian's ``rho * y + (1 - rho) * mu``.

:meth:`GmmPrior.pair_blocks` draws a (clean, noisy) sample set and hands the
noisy rows out block by block, so a Monte-Carlo pass never holds them whole.
The seeded stream is serial (the labels, then every clean row, then each
block's noise), so it cannot be split; instead, while its caller evaluates
one block, a worker thread draws the next into the other of two buffers.
"""

from __future__ import annotations

import contextvars
import queue
import threading
from dataclasses import dataclass

import numpy as np

from .config import real_array, require

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


def _drawn_ahead(draw, starts, buffers):
    """Yield ``draw(start, buffer)`` for each of ``starts``, one block ahead on a worker thread.

    The buffers go round a ring: the worker takes a free one, draws into it
    and hands the block back, and the caller frees a block's buffer when it
    asks for the next block. With one start, the block is drawn inline.
    """
    if len(starts) == 1:
        yield draw(starts[0], buffers[0])
        return
    free, filled = queue.SimpleQueue(), queue.SimpleQueue()
    for buffer in buffers:
        free.put(buffer)

    def work():
        try:
            for start in starts:
                buffer = free.get()
                if buffer is None:  # the caller stopped early
                    return
                filled.put((buffer, draw(start, buffer)))
        except Exception as exc:
            filled.put((None, exc))

    # A daemon, so that a generator left unclosed at exit does not hold the interpreter.
    worker = threading.Thread(
        target=contextvars.copy_context().run, args=(work,), name="pair_blocks", daemon=True
    )
    worker.start()
    try:
        for _ in starts:
            buffer, drawn = filled.get()
            if buffer is None:
                raise drawn
            yield drawn
            free.put(buffer)
    finally:
        free.put(None)
        worker.join()


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
        centre = mu.mean(axis=0)
        centred = mu - centre
        for name, arr in (
            ("weights", w),
            ("means", mu),
            ("variances", v),
            ("_log_weights", np.log(w)),
            ("_centre", centre),
            ("_centred_means", centred),
            ("_centred_half_sq", 0.5 * np.sum(centred * centred, axis=1)),
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
        weights, means, variances = require(config, "weights", "means", "variances", where="prior")
        means = real_array(means, "means", ndim=2)
        return cls(real_array(weights, "weights"), means, real_array(variances, "variances"))

    # -- densities ---------------------------------------------------------

    def _smoothed(self, sigma: float) -> tuple[np.ndarray, np.ndarray]:
        """Smoothed variances ``t = v + sigma^2``, log normalisers ``log w - n/2 log(2 pi t)``."""
        t = self.variances + sigma * sigma
        return t, self._log_weights - 0.5 * self.dim * (_LOG_2PI + np.log(t))

    def _posterior_constants(self, sigma: float) -> tuple:
        """``_smoothed``'s ``(t, log_norm)``, Wiener weights ``rho = v / t``, and ``(1 - rho) mu``."""
        t, log_norm = self._smoothed(sigma)
        rho = self.variances / t
        return t, log_norm, rho, (1.0 - rho)[:, None] * self.means

    def _half_sq_dists(self, points) -> np.ndarray:
        """(K, m) array of ``|y - mu_k|^2 / 2``, clamped at 0.

        Expanded as ``|y - c|^2 / 2 + |mu_k - c|^2 / 2 - (mu_k - c).(y - c)``
        about the mean ``c`` of the component means, so that one gemm forms
        every cross term and the expansion cancels on the scale of the
        mixture's spread, not of its distance from the origin.
        """
        y = points - self._centre
        half = self._centred_means @ y.T
        half_y_sq = 0.5 * np.einsum("ij,ij->i", y, y)
        np.subtract(self._centred_half_sq[:, None] + half_y_sq, half, out=half)
        return np.maximum(half, 0.0, out=half)

    def _component_logpdf(self, points, t, log_norm, half_sq=None) -> np.ndarray:
        """(K, m) array of ``log w_k + log N(y; mu_k, t_k I)``; ``half_sq`` as from ``_half_sq_dists``."""
        if half_sq is None:
            logs = self._half_sq_dists(points)
            logs /= t[:, None]
        else:
            logs = half_sq / t[:, None]
        return np.subtract(log_norm[:, None], logs, out=logs)

    def _responsibilities(self, points, t, log_norm, half_sq=None) -> np.ndarray:
        """(K, m) log-space softmax of the component log-terms; ones for one component."""
        if self.n_components == 1:
            return np.ones((1, points.shape[0]))
        r = self._component_logpdf(points, t, log_norm, half_sq)
        r -= r.max(axis=0)
        np.exp(r, out=r)
        r /= r.sum(axis=0)
        return r

    def _score(self, points, t, log_norm, half_sq=None) -> np.ndarray:
        """(m, n) gradient of the smoothed log-density.

        ``half_sq``, the (K, m) distances of ``_half_sq_dists``, may be passed
        in when several noise levels share the points; with one component
        none are needed.
        """
        r = self._responsibilities(points, t, log_norm, half_sq)
        r /= t[:, None]
        out = r.T @ self.means
        out -= points * r.sum(axis=0)[:, None]
        return out

    def _posterior_mean(self, points, t, log_norm, rho, shrunk, half_sq=None) -> np.ndarray:
        """(m, n) posterior mean ``sum_k r_k (rho_k y + (1 - rho_k) mu_k)``.

        ``rho`` and ``shrunk`` are from ``_posterior_constants``, and
        ``half_sq`` is as for ``_score``. The sums over K run elementwise, so
        a row's output does not depend on the stack's height. With one
        component it is ``rho y + (1 - rho) mu``, bitwise the general formula
        with unit responsibilities.
        """
        if self.n_components == 1:
            return points * rho[0] + shrunk[0]
        r = self._responsibilities(points, t, log_norm, half_sq)
        out = r.T @ shrunk
        out += points * (r * rho[:, None]).sum(axis=0)[:, None]
        return out

    def log_density(self, y, sigma: float = 0.0):
        """Log-density of the noise-smoothed mixture at noise level ``sigma``.

        ``sigma = 0`` gives the prior itself. Evaluated with log-sum-exp so
        points far from every component stay finite.
        """
        if not sigma >= 0:
            raise ValueError("sigma must be nonnegative")
        points, single = _as_points(y, self.dim)
        logs = self._component_logpdf(points, *self._smoothed(sigma))
        top = logs.max(axis=0)
        out = top + np.log(np.sum(np.exp(logs - top), axis=0))
        return float(out[0]) if single else out

    def responsibilities(self, y, sigma: float = 0.0):
        """Posterior component probabilities at noise level ``sigma``.

        Computed as a log-space softmax; when every component underflows the
        max-shift leaves a hard assignment to the nearest component.
        """
        if not sigma >= 0:
            raise ValueError("sigma must be nonnegative")
        points, single = _as_points(y, self.dim)
        r = self._responsibilities(points, *self._smoothed(sigma)).T
        return r[0] if single else r

    def score(self, y, sigma: float = 0.0):
        """Gradient of the smoothed log-density with respect to ``y``."""
        if not sigma >= 0:
            raise ValueError("sigma must be nonnegative")
        points, single = _as_points(y, self.dim)
        out = self._score(points, *self._smoothed(sigma))
        return out[0] if single else out

    # -- denoising ---------------------------------------------------------

    def mmse_denoise(self, y, sigma: float):
        """Posterior mean via the score route, ``y + sigma^2 * score(y, sigma)``.

        Kept as the oracle of :meth:`posterior_mean`, with which it agrees to
        round-off while ``sigma^2`` is not far above the variances.
        """
        if not sigma > 0:
            raise ValueError("sigma must be positive")
        points, single = _as_points(y, self.dim)
        out = self.score(points, sigma)
        out *= sigma * sigma
        out += points
        return out[0] if single else out

    def posterior_mean(self, y, sigma: float):
        """Posterior mean by direct mixture algebra, independent of the score.

        Each component contributes its Wiener-shrunk estimate
        ``rho_k y + (1 - rho_k) mu_k``, ``rho_k = v_k / (v_k + sigma^2)``,
        weighted by the responsibilities. It keeps its digits when
        ``sigma^2 >> v_k``, where the score route cancels. This is the route
        :class:`~pnplab.denoisers.MmseDenoiser` runs; :meth:`mmse_denoise`
        agrees with it to round-off and is kept as its oracle.
        """
        if not sigma > 0:
            raise ValueError("sigma must be positive")
        points, single = _as_points(y, self.dim)
        out = self._posterior_mean(points, *self._posterior_constants(sigma))
        return out[0] if single else out

    # -- sampling ----------------------------------------------------------

    def pair_blocks(self, sigma: float, count: int, seed, rows: int):
        """Draw ``count`` (clean, noisy) pairs, noisy = clean + sigma * xi, in blocks of rows.

        Returns a generator of ``(rows, clean_block, noisy_block)``: a slice
        of the sample index and that slice's (clean, noisy) rows, at most
        ``rows`` of them. The component labels and every clean row's standard
        normal draw come first; each block's clean rows are then scaled and
        shifted onto their components, and its noisy rows drawn into one of
        two reused buffers, so each noisy block is valid only until the next
        one is requested. The stream is that of :meth:`sample_pairs` for any
        ``rows``.

        With more than one block, the next block is drawn on a worker thread,
        in a copy of the context of the first request (so numpy's
        ``errstate`` holds there), while the caller holds the current one. An
        error raised in the draw reaches the caller at its next request, and
        closing the generator, or running it out, stops and joins the worker.
        A one-block draw runs inline and starts no thread.
        """
        if not sigma > 0:
            raise ValueError("sigma must be positive")
        if count < 1:
            raise ValueError("count must be >= 1")
        if rows < 1:
            raise ValueError("rows must be >= 1")
        rng = np.random.default_rng(seed)
        comps = rng.choice(self.n_components, size=count, p=self.weights)
        clean = rng.standard_normal((count, self.dim))
        scales = np.sqrt(self.variances[comps])[:, None]
        starts = range(0, count, rows)

        def draw(start, buffer):
            index = slice(start, min(start + rows, count))
            block = clean[index]
            block *= scales[index]
            block += self.means[comps[index]]
            noisy = buffer[: len(block)]
            rng.standard_normal(out=noisy)
            noisy *= sigma
            noisy += block
            return index, block, noisy

        buffers = [np.empty((min(rows, count), self.dim)) for _ in range(min(len(starts), 2))]
        return _drawn_ahead(draw, starts, buffers)

    def sample_pairs(self, sigma: float, count: int, seed):
        """Draw ``count`` (clean, noisy) pairs, noisy = clean + sigma * xi.

        Deterministic given ``seed``: same seed, bitwise-identical arrays.
        Returns two (count, n) arrays: :meth:`pair_blocks` in one block.
        """
        ((_, clean, noisy),) = self.pair_blocks(sigma, count, seed, count)
        return clean, noisy

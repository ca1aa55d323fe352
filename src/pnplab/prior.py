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
and the posterior mean is the Gaussian's ``rho * y + (1 - rho) * mu``
(``_component_rows``, the one place that formula is written).

The posterior mean applies that formula row by row wherever a row's
posterior sits on one component: every other component's log-term lies at
least ``G = 53 ln 2 + ln K`` below the row's best. Each other component then
weighs at most ``2^-53 / K`` of the best, so together they weigh less than
``2^-53``, half an ulp of 1: the softmax's normaliser rounds to 1 and the
best component's responsibility is exactly 1. Such a *concentrated* row's
mean is ``m_k = rho_k y + (1 - rho_k) mu_k`` for its component k, and it
lies within ``2^-53 max_j |m_j - m_k|`` of the mixture's weighted sum of
the components' estimates ``m_j``. A block whose rows are all concentrated
skips the exponentials, the normalisation, the (m x K)(K x n) mixing gemm
and the rho-weighted reduce. Any other block runs them and then overwrites
its concentrated rows, so each row's output depends on that row alone. ``G``
follows from K; it is not a setting. The score, the responsibilities and
:meth:`GmmPrior.mmse_denoise` stay dense, as the oracle.

A batched solve skips even the distances while its stack provably stays on
its components. :func:`~pnplab.solver.pnp_pgd_batch` creates one
``_Basin`` per solve over a mixture and passes it down, by keyword, to
``_posterior_mean``. When the full route finds a whole stack concentrated,
``_certify`` keeps a copy of it (the anchor), each row's ``rho_k`` and
``(1 - rho_k) mu_k`` and a radius per row: by a Lipschitz bound on the
log-terms' gaps, less a rounding margin that grows with their size, every
row within its radius of the anchor is concentrated on the same component
in the computed log-terms. While the basin holds, every call returns those
rows' formula with no distance formed and no test; at the end of each stop
block the solver tests the held calls' inputs together
(``_Basin.first_miss``). Where every row of every one lies within its
radius, their outputs are bitwise the full route's. At the first that does
not, the basin drops the anchor and the solver runs the block again from
that call on the full route; after misses in a row the basin certifies
again only after a growing wait, at most ``_BACKOFF`` calls. Nothing else
forms a basin, and none is kept on the prior or on a denoiser.

:meth:`GmmPrior.pair_blocks` draws a (clean, noisy) sample set and hands the
noisy rows out block by block, so a Monte-Carlo pass never holds them whole.
The seeded stream is serial: the labels, then every clean row, then each
block's noise. While its caller evaluates one block, a worker thread draws
the next into the other of two buffers. A clean draw of ``_SPLIT_NORMALS``
values or more is also split in two, on two threads, and stays bitwise the
serial stream (``_standard_normals``): each normal takes one or more raw
draws, so a copy of the generator advanced by the first half's count starts
at or before the midpoint, its ziggurat decode falls into step with the true
stream within a few values, and the midpoint is then found in it by value.
Smaller clean draws stay one call on the caller's thread. Both workers are
one-thread ``concurrent.futures`` pools from ``_worker_pool``, which hand
back each call's result or its error, and are imported only when a draw
first needs one.
"""

from __future__ import annotations

import contextvars
import copy
import math
from dataclasses import dataclass

import numpy as np

from .config import NONNEGATIVE, POSITIVE, real, real_array, require
from .config import count as _count
from .linop import _row_dot

__all__ = ["GmmPrior"]

_LOG_2PI = float(np.log(2.0 * np.pi))
_EPS = float(np.finfo(np.float64).eps)
# A clean draw of at least this many normals is split across two threads;
# below it the thread and the re-decoded overlap cost more than they save.
_SPLIT_NORMALS = 1 << 18
# How many of the first half's last values locate the midpoint in the second.
_SYNC = 8
# Most calls a solve's basin passes up certifying after misses (see _Basin):
# a stack that leaves its radius on every call pays one certification, and
# runs the rest of one stop block twice, per this many calls.
_BACKOFF = 32


def _check_sigma(sigma, rule=NONNEGATIVE) -> float:
    """The noise level ``sigma`` read as a float under ``rule``, rejected if its square overflows."""
    sigma = real(sigma, "sigma", rule)
    if sigma * sigma == np.inf:
        raise ValueError(f"sigma must have a finite square, got {sigma!r}")
    return sigma


def _standard_normals(rng, count: int, dim: int) -> np.ndarray:
    """``rng.standard_normal((count, dim))``, bitwise, drawn on two threads when it is large.

    Below ``_SPLIT_NORMALS`` values it is that one call. Above it, the caller
    draws the first half while a worker draws the second from a copy of the
    bit generator advanced by the first half's count. Every ziggurat normal
    takes at least one raw draw, so the copy starts at or before the true
    midpoint, and once its decode falls into step with the true stream it
    repeats the first half's last values. Found there, in the second half's
    first eighth, they mark the midpoint: the synced values are moved down in
    place, the copy draws the last few, and ``rng`` takes over its state, so
    ``rng`` ends where the serial draw would leave it. If they are not found,
    the second half is drawn again from ``rng``, which stands at the midpoint.
    An error on the worker reaches the caller once the worker is joined. A bit
    generator that cannot ``advance`` (MT19937, SFC64) draws serially.
    """
    if count * dim < _SPLIT_NORMALS or not hasattr(rng.bit_generator, "advance"):
        return rng.standard_normal((count, dim))
    out = np.empty((count, dim))
    flat = out.reshape(-1)
    head, tail = flat[: flat.size // 2], flat[flat.size // 2 :]
    ahead = np.random.Generator(copy.deepcopy(rng.bit_generator).advance(head.size))
    with _worker_pool("pair_blocks.clean") as pool:
        drawn = pool.submit(ahead.standard_normal, out=tail)
        rng.standard_normal(out=head)
    drawn.result()
    window = head[-_SYNC:]
    for end in np.flatnonzero(tail[: tail.size // 8] == window[-1]) + 1:
        if end >= _SYNC and np.array_equal(tail[end - _SYNC : end], window):
            # One dimension, moving down: numpy copies within the array, with no temporary.
            tail[: tail.size - end] = tail[end:]
            ahead.standard_normal(out=tail[tail.size - end :])
            rng.bit_generator.state = ahead.bit_generator.state
            return out
    rng.standard_normal(out=tail)
    return out


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


def _worker_pool(name: str):
    """A one-thread pool that runs a call beside the caller and hands back its result or error.

    ``concurrent.futures`` is imported here, not with the module: it loads
    ``logging``, which a process that never draws on a worker does not need.
    """
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(max_workers=1, thread_name_prefix=name)


def _drawn_ahead(draw, starts, buffers):
    """Yield ``draw(start, buffer)`` for each of ``starts``, one block ahead on a worker thread.

    Block i goes into ``buffers[i % 2]``. The next block is queued before
    the wait on the current one, so that the worker goes straight on to it;
    queued after the wait, it would idle for one round trip on every block.
    Its buffer held the block before the current one, which the caller gave
    up by asking for more. The worker never waits on the caller, so a
    generator left open at exit does not hold the interpreter. With one
    start, the block is drawn inline.
    """
    if len(starts) == 1:
        yield draw(starts[0], buffers[0])
        return
    run = contextvars.copy_context().run
    pool = _worker_pool("pair_blocks")
    try:
        drawn = pool.submit(run, draw, starts[0], buffers[0])
        for i, start in enumerate(starts[1:], 1):
            ahead = pool.submit(run, draw, start, buffers[i % 2])
            yield drawn.result()
            drawn = ahead
        yield drawn.result()
    finally:
        pool.shutdown(cancel_futures=True)


def _softmax(logs) -> tuple[np.ndarray, np.ndarray]:
    """The (K, m) component log-terms ``logs``, already less their column maxima, softmaxed in
    place, and the (m,) sums of their exponentials that normalised them."""
    np.exp(logs, out=logs)
    total = np.add.reduce(logs, axis=0)
    logs /= total
    return logs, total


def _mixture_mean(points, r, rho, shrunk) -> np.ndarray:
    """(m, n) ``sum_k r_k (rho_k y + (1 - rho_k) mu_k)`` of the (K, m) responsibilities ``r``."""
    out = r.T @ shrunk
    out += points * np.add.reduce(r * rho[:, None], axis=0)[:, None]
    return out


def _component_rows(points, rho_k, shrunk_k) -> np.ndarray:
    """``rho_k y + (1 - rho_k) mu_k`` of one component per row, or of one for all rows.

    ``rho_k`` is an (m, 1) column or a 0-d array, and ``shrunk_k`` an (m, n)
    stack or an (n,) row, so a row's output does not depend on how its
    component's constants were gathered.
    """
    out = points * rho_k
    out += shrunk_k
    return out


class _Basin:
    """One batched solve's certified stack, which lets its calls skip the distances.

    ``held`` is None or ``(anchor, radius_sq, rho_k, shrunk_k)``: a copy of
    the last stack whose every row the full route found concentrated, each
    on its component k, a squared radius per row (see
    ``GmmPrior._certify``), and each row's ``rho_k``, an (m, 1) column, and
    ``(1 - rho_k) mu_k``, an (m, n) stack. While it holds, every call
    returns those rows' one-component formula untested and counts itself in
    ``pending``. A call whose every row lies within its radius of the anchor
    is concentrated on the same components, so that formula is its output;
    :meth:`first_miss` tests a stop block's pending calls at once, and the
    solver runs the block again from the first that missed. Any call made
    while nothing is held runs the full route, which certifies a new anchor
    when it finds the whole stack concentrated and ``wait`` is 0. After
    ``misses`` misses in a row the basin passes up the next ``min(2^misses,
    _BACKOFF) - 1`` calls before it certifies again, so a stack that keeps
    leaving its radius pays one certification, and runs the rest of one
    stop block twice, per ``min(2^misses, _BACKOFF)`` calls; a hit resets
    the count. ``scales`` are the factors by which the solve's chain of
    output maps multiplies its input before the prior sees it, outermost
    first. The solver creates one per solve and passes it down to the
    prior; nothing else holds one.
    """

    __slots__ = ("held", "misses", "wait", "pending", "scales")

    def __init__(self, scales=()):
        self.held, self.misses, self.wait, self.pending, self.scales = None, 0, 0, 0, scales

    def held_rows(self):
        """``(rho_k, shrunk_k)`` while a stack is held, the call then pending its test;
        else None, and the call counts the wait down."""
        if self.held is not None:
            self.pending += 1
            return self.held[2:]
        self.wait = max(self.wait - 1, 0)
        return None

    def first_miss(self, inputs) -> int:
        """Index of the first of ``inputs``, a block's (size, m, n) denoiser inputs, whose
        held call had a row outside its radius of the anchor, or ``size`` if none had.

        The last ``pending`` inputs are the held calls', the only ones tested, in one
        pass, and they are overwritten. A miss drops the held rows and sets the wait;
        the calls from the missed one on are then to be made again, and the first of
        them counts the wait down. A NaN or inf row is never within its radius.
        """
        size, pending, self.pending = len(inputs), self.pending, 0
        if not pending:
            return size
        offsets = inputs[size - pending :]
        for scale in self.scales:
            np.multiply(scale, offsets, out=offsets)
        offsets -= self.held[0]
        inside = np.all(_row_dot(offsets, offsets) <= self.held[1], axis=1)
        hits = pending if inside.all() else int(np.argmin(inside))
        self.misses = 0 if hits else self.misses
        if hits < pending:
            # A hit before the miss has reset the count; the wait is 2^misses of the new count.
            self.held, self.misses, self.wait = None, self.misses + 1, min(2 << self.misses, _BACKOFF)
        return size - pending + hits


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
        with np.errstate(over="ignore", invalid="ignore"):
            centre = mu.mean(axis=0)
            # Near the float maximum the sum overflows; the mean offset from mu[0] does not.
            centre = np.where(np.isfinite(centre), centre, mu[0] + (mu - mu[0]).mean(axis=0))
            centred = mu - centre
            half_sq = 0.5 * np.sum(centred * centred, axis=1)[:, None]
        if not np.all(np.isfinite(half_sq)):
            raise ValueError("means are too large: their squared distances from their mean overflow")
        for name, arr in (
            ("weights", w),
            ("means", mu),
            ("variances", v),
            ("_log_weights", np.log(w)),
            ("_centre", centre),
            ("_centred_means", centred),
            ("_centred_half_sq", half_sq),
            ("_component_index", np.arange(float(w.size))),
        ):
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        # A row's posterior sits on one component when every other lies at
        # least this gap below it (see _posterior_mean).
        object.__setattr__(self, "_gap", 53.0 * math.log(2.0) + math.log(w.size))

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
        half_y_sq = 0.5 * _row_dot(y, y)
        np.subtract(self._centred_half_sq + half_y_sq, half, out=half)
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
        r -= np.maximum.reduce(r, axis=0)
        return _softmax(r)[0]

    def _score(self, points, t, log_norm) -> np.ndarray:
        """(m, n) gradient of the smoothed log-density."""
        r = self._responsibilities(points, t, log_norm)
        r /= t[:, None]
        out = r.T @ self.means
        out -= points * r.sum(axis=0)[:, None]
        return out

    def _posterior_mean(self, points, t, log_norm, rho, shrunk, half_sq=None, basin=None) -> np.ndarray:
        """(m, n) posterior mean ``sum_k r_k (rho_k y + (1 - rho_k) mu_k)``.

        ``rho`` and ``shrunk`` are from ``_posterior_constants``, and
        ``half_sq``, the (K, m) distances of ``_half_sq_dists``, may be passed
        in when several noise levels share the points; with one component
        none are needed. A row's output depends on that row's values alone,
        and is the same in any stack of two rows or more; a one-row stack's
        matrix products (the distances' cross terms and the dense mixing
        product) go through gemv, which may round them differently from
        gemm. With one component it is ``rho y + (1 - rho) mu``, bitwise
        the general formula with unit responsibilities; there ``rho`` may
        also come indexed, as a 0-d array, and ``shrunk`` as an (n,) row,
        which the ufuncs take without broadcasting a length-one axis.

        With more, a row whose other components' log-terms all lie at least
        ``_gap`` (``G = 53 ln 2 + ln K``) below its best is concentrated and
        gets its one component's ``m_k = rho_k y + (1 - rho_k) mu_k``. The
        gap makes each of the K - 1 others weigh at most ``e^-G = 2^-53 / K``
        of the best, so together they weigh less than half an ulp of 1 and
        the dense softmax would give the best a responsibility of exactly
        1. The output lies within ``2^-53 max_j |m_j - m_k|`` of the
        mixture's ``sum_j r_j m_j``, and equals the dense formula's output
        when the other weights underflow to 0. A row with a NaN log-term, or
        with none finite, is never concentrated. A block of concentrated
        rows runs no exponential, no normalisation, no mixing gemm and no
        rho-weighted reduce; any other block runs the dense formula
        (``_mixture_mean``) on every row and then writes its concentrated
        rows over it. Only rows whose exponentials sum to exactly 1 are
        tested for that, since every concentrated row's do.

        ``basin`` is a batched solve's ``_Basin``, passed down by keyword
        from :func:`~pnplab.solver.pnp_pgd_batch`; no other caller gives one.
        While it holds an anchor, a call returns the anchor's one-component
        rows on ``points`` without forming a distance or testing them; the
        solver tests them at its stop block's end (``_Basin.first_miss``),
        and where every row lies within its certified radius they are
        bitwise what the full route returns (see ``_certify``). Any other
        call runs the full route, and a stack it finds wholly concentrated
        becomes the new anchor, unless the basin is backing off after misses.
        """
        if rho.size == 1:
            return _component_rows(points, rho, shrunk)
        if basin is not None:
            held = basin.held_rows()
            if held is not None:
                return _component_rows(points, *held)
        logs = self._component_logpdf(points, t, log_norm, half_sq)
        logs -= np.maximum.reduce(logs, axis=0)
        # A row has at most K - 1 components this far below its best (none if
        # its best is NaN or -inf), so the count reaches (K - 1) m only when
        # every row is concentrated.
        far = logs <= -self._gap
        others = far.shape[0] - 1
        if np.count_nonzero(far) == others * far.shape[1]:
            if basin is None or basin.wait:
                return self._one_component_rows(points, far, rho, shrunk)
            return self._certify(basin, points, logs, far, t, log_norm, rho, shrunk)
        r, total = _softmax(logs)
        out = _mixture_mean(points, r, rho, shrunk)
        # A concentrated row's exponentials sum to exactly 1, so only those rows are counted.
        exact = total == 1.0
        if np.count_nonzero(exact):
            rows = np.flatnonzero(exact)
            rows = rows[np.add.reduce(far[:, rows], axis=0) == others]
            out[rows] = self._one_component_rows(points[rows], far[:, rows], rho, shrunk)
        return out

    def _one_component_rows(self, points, far, rho, shrunk) -> np.ndarray:
        """``rho_k y + (1 - rho_k) mu_k`` on each row, for the one component ``k`` its column of ``far`` leaves out."""
        k = (self._component_index @ ~far).astype(np.intp)
        return _component_rows(points, rho[k][:, None], shrunk[k])

    def _certify(self, basin, points, logs, far, t, log_norm, rho, shrunk) -> np.ndarray:
        """Anchor ``basin`` at a stack whose every row is concentrated, and return its output.

        ``logs`` are the stack's (K, m) log-terms less their column maxima,
        which are overwritten, and ``far`` those at least ``G`` below; the
        distances are formed again here, bitwise those of the route. Each
        row z, on its component k, gets the radius

            r = min(1, min_{j != k} (g_j - G - e_j) / (D_k / t_k + D_j / t_j + 1 / (2 t_k))),

        where ``g_j = -logs_j`` is its computed gap to component j,
        ``D_i`` bounds ``|z - mu_i|`` and ``e_j`` is a rounding margin. Within
        it the full route would find every row concentrated on the same k:

        - Let ``L_i(y) = log_norm_i - |y - mu_i|^2 / (2 t_i)`` in exact
          arithmetic, with ``mu_i = c + (mu_i - c)`` from the stored centred
          means. For ``|Delta| <= r <= 1`` the gap ``L_k - L_j`` at ``z +
          Delta`` is at least its value at z less ``|Delta| (D_k / t_k + D_j
          / t_j) + |Delta|^2 / (2 t_k)``, and ``|Delta|^2 <= |Delta|``; so it
          stays ``G + e_j`` or more.
        - The computed half squared distances, expanded about the centre c
          (``_half_sq_dists``), differ from the exact ones by less than
          ``(n + 5) eps (|mu_i - c|^2 + |y - c|^2) / 2``, a dot product's
          ``n eps`` and a few roundings of terms no larger. So with ``A =
          max_i |mu_i - c|^2 / 2 + (|z - c| + 1)^2 / 2``, which bounds those
          terms at z and anywhere within the radius, and ``E = 4 (n + 8)
          eps``, each distance errs by less than ``E A / 4``. Near a mean
          that error is relatively large: the computed ``D = sqrt(2 h)``
          are raised by ``sqrt(2 E A)``, since ``sqrt(2 (h + E A)) <=
          sqrt(2 h) + sqrt(2 E A)``.
        - A log-term's division and subtraction round by ``eps`` of ``A /
          t_min`` and of ``max |log_norm|`` more. Summed over the two
          components and the two points, with the rounding of ``g_j``
          itself, of the radius and of the test ``|y - z|^2 <= r^2``, all
          relative to ``g_j`` or ``G``, the error stays below ``e_j = E (8 A
          / t_min + 2 max |log_norm| + 2 g_j + G)``. So the margin grows
          with the log-terms' size, wherever the stack lies.
        - Computed log-terms at least ``G`` apart give a shifted term at or
          below ``-G``, since rounding keeps order, so the full route takes
          its all-concentrated branch with the same k and returns
          ``_component_rows`` of the same constants: a call within the radius
          is bitwise that route.

        A row whose room is not positive gets radius 0, and one whose room is
        NaN never passes the test.
        """
        unit = 4.0 * (points.shape[1] + 8) * _EPS
        # A, which bounds |mu_i - c|^2 / 2 and |y - c|^2 / 2 for every y within 1 of a row.
        reach = np.sqrt(_row_dot(points - self._centre, points - self._centre)) * (1.0 + unit) + 1.0
        size = 0.5 * reach * reach + float(np.max(self._centred_half_sq)) * (1.0 + unit)
        # The one component each column of far leaves out.
        k = np.argmax(~far, axis=0)
        # Each component's D_i / t_i, then each other one's slope D_k / t_k + D_j / t_j + 1 / (2 t_k).
        slope = self._half_sq_dists(points)
        np.sqrt(np.multiply(slope, 2.0, out=slope), out=slope)
        slope += np.sqrt(2.0 * unit * size)
        slope /= t[:, None]
        slope += slope[k, np.arange(k.size)] + 0.5 / t[k]
        # The room g_j - G - e_j, with e_j = E (8 A / t_min + 2 max |log_norm| + 2 g_j + G).
        margin = unit * (8.0 * size / float(np.min(t)) + 2.0 * float(np.max(np.abs(log_norm))))
        room = np.multiply(logs, -(1.0 - 2.0 * unit), out=logs)
        room -= (1.0 + unit) * self._gap + margin
        room /= slope
        radius = np.maximum(np.min(room, axis=0, where=far, initial=1.0), 0.0)
        basin.held = (points.copy(), radius * radius, rho[k][:, None], shrunk[k])
        return _component_rows(points, *basin.held[2:])

    def log_density(self, y, sigma: float = 0.0):
        """Log-density of the noise-smoothed mixture at noise level ``sigma``.

        ``sigma = 0`` gives the prior itself. Evaluated with log-sum-exp so
        points far from every component stay finite.
        """
        sigma = _check_sigma(sigma)
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
        sigma = _check_sigma(sigma)
        points, single = _as_points(y, self.dim)
        r = self._responsibilities(points, *self._smoothed(sigma)).T
        return r[0] if single else r

    def score(self, y, sigma: float = 0.0):
        """Gradient of the smoothed log-density with respect to ``y``."""
        sigma = _check_sigma(sigma)
        points, single = _as_points(y, self.dim)
        out = self._score(points, *self._smoothed(sigma))
        return out[0] if single else out

    # -- denoising ---------------------------------------------------------

    def mmse_denoise(self, y, sigma: float):
        """Posterior mean via the score route, ``y + sigma^2 * score(y, sigma)``.

        Kept as the oracle of :meth:`posterior_mean`, with which it agrees to
        round-off while ``sigma^2`` is not far above the variances.
        """
        sigma = _check_sigma(sigma, POSITIVE)
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
        sigma = _check_sigma(sigma, POSITIVE)
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

        The clean draw is made when this is called, and its worker joined
        before this returns. From ``_SPLIT_NORMALS`` values up it is split in
        two: this thread draws the first half while a worker draws the rest
        from an advanced copy of the generator, and the second half is then
        aligned with the serial stream by value (see ``_standard_normals``),
        so the samples are bitwise those of one ``standard_normal`` call.
        Smaller draws, such as a solve's one clean row or a Lipschitz cloud,
        stay that one call on this thread.

        With more than one block, the next block is drawn on a worker thread,
        in a copy of the context of the first request (so numpy's
        ``errstate`` holds there), while the caller holds the current one. An
        error raised in the draw reaches the caller, with its own type, at its
        next request. Closing the generator, or running it out, cancels the
        queued draw and joins the worker; one left open at exit does not hold
        the interpreter, since the worker never waits on the caller. A
        one-block draw runs inline and starts no thread past the clean draw.
        """
        sigma = real(sigma, "sigma", POSITIVE)
        count = _count(count, "count", POSITIVE)
        rows = _count(rows, "rows", POSITIVE)
        rng = np.random.default_rng(seed)
        comps = rng.choice(self.n_components, size=count, p=self.weights)
        clean = _standard_normals(rng, count, self.dim)
        scales = np.sqrt(self.variances)
        starts = range(0, count, rows)

        def draw(start, buffer):
            index = slice(start, min(start + rows, count))
            labels, block = comps[index], clean[index]
            block *= scales[labels, None]
            block += self.means[labels]
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

"""Fixed-point solver for denoiser-regularised least squares.

The iteration composes a gradient step on the quadratic data term with a
scaled denoiser and runs it to a fixed point. For non-expansive bases and
scales above one the composition is an averaged operator, so the iteration
converges whenever a fixed point exists; the averagedness arithmetic lives
here too, next to an exact linear-algebra oracle for affine denoisers that
the iterative path is tested against.

:func:`pnp_pgd` runs one problem through the checked public routes and is
the reference. :func:`pnp_pgd_batch` runs a stack of problems that share
the operator, the base denoiser and the start and differ in the data and the
scale. It checks its inputs once and then runs the unchecked routes: over a
mask (the identity among them, a mask that hides nothing) it writes the
gradient step ``x - (x - y) tau keep`` itself, with ``tau keep`` spread once
over a contiguous (m, n) stack; over any other operator it takes the
operator's ``_normal_residual``. It is the one place that folds:
over a mask, a denoiser chain with a pair ``(coef, off)``
(``Denoiser._diagonal``) is fused with the step, so an iteration is one
multiply and one add; every other solve runs the chain's ``_apply`` after
the step. It tests for a stop once per block of iterations rather than
once per iteration, every block one size of at most n iterations, runs the
whole stack until its last row stops and records each row where
:func:`pnp_pgd` would have stopped on it.
Its stop norms are row dots, one pass over the block each, and round
differently from ``np.linalg.norm``; its iterates are bitwise those of a
loop that tests every iteration, and those of :func:`pnp_pgd` wherever the
solve is not fused, up to the sign of a zero. Over a mixture prior it also
holds a per-solve basin (``prior._Basin``). While every row provably stays
on one component, proved by one test per stop block and certified at most
once per block, the chain is the elementwise affine map of those
components' constants, and the solve folds its pair over them as it folds
a permanent one: over a mask one multiply and one add, over any other
operator those two after its step, with no distance formed and no call
into the prior, equal to the full route to round-off.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import POSITIVE, count, real
from .denoisers import _BLOCK_FLOATS, AffineDenoiser, Denoiser, ScaledDenoiser, _OutputMap, _solve_basin, gamma_factor
from .linop import LinearOperator, Mask, _row_dot, as_signal

__all__ = [
    "PnpConfig",
    "FixedPointResult",
    "BatchResult",
    "DivergenceError",
    "NoUniqueFixedPointError",
    "averagedness_theta",
    "compose_averaged",
    "pnp_pgd",
    "pnp_pgd_batch",
    "scaled_affine_map",
    "linear_fixed_point_oracle",
]

# Iterate norms beyond this abort the run as a divergence; expansive effective
# maps (e.g. homogeneous scaling of the wrong base) must be recorded, not crash.
_DIVERGENCE_NORM = 1e12

# Fewest iterations per stop test in pnp_pgd_batch, or n if fewer. Every
# block of a solve but a shorter last one is as long as the block's iterates
# and their differences, 2 m n floats per iteration, fit the _BLOCK_FLOATS
# budget that sizes every Monte-Carlo and Lipschitz block, but at most n and
# never under this, so a solve runs at most one block less one iteration
# past its last stop: blocks of 25 on stability's 10 x 64 stack, and of
# _STOP_BLOCK on any stack of m n >= 2048, conv-reg's 32 x 64 among them.
# Blocks of 128 slowed conv-reg.
_STOP_BLOCK = 8

# Stacks of m rows a batched solve holds at once, at most: the block buffer
# (_STOP_BLOCK + 1 iterates), the differences buffer (_STOP_BLOCK), which
# holds a block's denoiser inputs, each gradient step written in place with
# three ufuncs, before the stop test writes its successive differences
# there, the measurements, the recorded iterates, a per-row scale's two
# coefficient stacks (see ScaledDenoiser), a mask's step factor tau keep
# spread over one stack, six for an iteration's temporaries, to which a
# masked step adds none, and three for either the solve's basin over a
# mixture (see prior._Basin: its anchor and its held (1 - rho_k) mu_k, each
# a stack, and its rho_k column and squared radii, 2 m floats, at most one
# stack, since K >= 2 makes a mixture's stack at least two wide) or a
# folding chain's pair (coef, off), at most two stacks; a chain has one or
# the other. A pair, the chain's own or its pair over a held basin, is
# formed over a mask only while the solve builds its gain and shift stacks;
# those, or over any other operator the pair itself, are then held in place
# of an iteration's temporaries: a fused iteration over a mask makes none,
# and one over any other operator makes only its step's, at most four. The
# held calls' inputs are formed, and the basin's test at a block's end
# works, in place on the block's inputs, with one (block, m) array of row
# dots, and the stop test runs after an iteration's temporaries are freed,
# over a block of at most n iterations: its norms, residuals and thresholds
# take at most four (block, m) arrays at once, each at most one stack, and
# with its byte masks they stay within the six. Iterates are n wide,
# measurements and their residuals out_dim, and a mixture denoiser's
# distances and responsibilities K, so each stack is counted at the widest
# of the three, as the solve protocols cap their grids
# (experiments._solve_grid). A block longer than _STOP_BLOCK keeps its
# iterates after the first, and their differences, within _BLOCK_FLOATS
# floats in place of those 2 * _STOP_BLOCK stacks.
_SOLVE_STACKS = (_STOP_BLOCK + 1) + _STOP_BLOCK + 2 + 2 + 1 + 6 + 3


def _block_cap(m: int, n: int, max_iters: int) -> int:
    """Iterations of every stop block of an (m, n) stack but a shorter last one: at most n and
    ``max_iters``, its iterates and differences within ``_BLOCK_FLOATS`` floats, never under
    ``min(_STOP_BLOCK, n)``."""
    return max(min(_STOP_BLOCK, n), min(n, max_iters, _BLOCK_FLOATS // (2 * m * n)))


class DivergenceError(RuntimeError):
    """Raised when an iterate leaves the trust region; carries the iteration."""

    def __init__(self, iteration: int):
        super().__init__(f"iterate diverged (norm > {_DIVERGENCE_NORM:g}) at iteration {iteration}")
        self.iteration = iteration


class NoUniqueFixedPointError(RuntimeError):
    """Raised by the affine oracle when the iteration map is not a contraction."""


@dataclass
class PnpConfig:
    """Solver parameters.

    ``tau`` is the gradient step size; ``None`` means the certified default
    ``1 / ||A^T A||``, estimated from the operator at solve time. The
    convergence certificate needs ``tau <= 1 / ||A^T A||``. ``tol`` is the
    relative successive-iterate threshold, and ``max_iters`` caps the run
    (experiment parity uses 300; library callers may raise it). All three
    are read by :mod:`pnplab.config`'s readers, so booleans and strings are
    rejected; ``tau`` and ``tol`` are stored as Python floats, and an integer
    beyond the float range is rejected.
    """

    tau: float | None = None
    max_iters: int = 300
    tol: float = 1e-9

    def __post_init__(self):
        if self.tau is not None:
            self.tau = real(self.tau, "tau", POSITIVE)
        self.tol = real(self.tol, "tol", POSITIVE)
        self.max_iters = count(self.max_iters, "max_iters", POSITIVE)


@dataclass
class FixedPointResult:
    """Outcome of a fixed-point run."""

    x_star: np.ndarray
    iterations: int
    converged: bool
    residual_history: np.ndarray
    step_size_warning: bool = False


@dataclass
class BatchResult:
    """Outcome of a batched fixed-point run, one entry per row.

    ``iterations`` counts the iterations a row ran; for a diverged row it is
    the iteration that left the trust region (``DivergenceError.iteration``
    of the serial run), and ``x_star`` holds the row's last finite iterate.
    """

    x_star: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    diverged: np.ndarray
    step_size_warning: bool = False


def averagedness_theta(delta: float) -> float:
    """Averagedness constant ``delta^2 / (2 delta^2 - 1)`` of the composed map.

    Defined for ``delta^2 > 1/2``; lies in (1/2, 1) exactly when
    ``delta^2 > 1``, which is the regime with a convergence guarantee.
    """
    d2 = delta * delta
    if 2.0 * d2 - 1.0 <= 0:
        raise ValueError("delta^2 must exceed 1/2")
    return d2 / (2.0 * d2 - 1.0)


def compose_averaged(theta1: float, theta2: float) -> float:
    """Averagedness constant of a composition of averaged operators."""
    if not (0.0 < theta1 < 1.0 and 0.0 < theta2 < 1.0):
        raise ValueError("averagedness constants must lie in (0, 1)")
    return (theta1 + theta2 - 2.0 * theta1 * theta2) / (1.0 - theta1 * theta2)


def pnp_pgd(
    op: LinearOperator,
    y: np.ndarray,
    denoiser: ScaledDenoiser,
    config: PnpConfig,
    x0: np.ndarray | None = None,
) -> FixedPointResult:
    """Iterate ``x <- D(x - tau * A^T (A x - y))`` to a fixed point.

    Parameters
    ----------
    op : forward operator A.
    y : measurement vector of length ``op.out_dim``.
    denoiser : scaled denoiser applied after each gradient step.
    config : step size, tolerance, iteration cap.
    x0 : starting iterate; defaults to the zero vector.

    Returns a :class:`FixedPointResult`, whose ``residual_history`` holds
    every iteration's successive-iterate residual. ``converged`` means the last
    successive-iterate residual fell below ``tol * (1 + |x|)``. A step size
    above ``1 / ||A^T A||`` voids the convergence certificate and is recorded
    as ``step_size_warning`` rather than raised. Iterates whose norm exceeds
    1e12, or overflows, raise :class:`DivergenceError` carrying the iteration
    index.
    """
    y = as_signal(y, op.out_dim)
    if x0 is None:
        x = np.zeros(op.in_dim)
    else:
        x = as_signal(x0, op.in_dim).copy()
    if denoiser.dim != op.in_dim:
        raise ValueError(
            f"denoiser dim {denoiser.dim} does not match operator in_dim {op.in_dim}"
        )
    tau, warn = _step_size(op, config)

    residuals: list[float] = []
    converged = False
    for i in range(config.max_iters):
        # An overflowing step, iterate or norm diverges without a warning, as in pnp_pgd_batch.
        with np.errstate(over="ignore", invalid="ignore"):
            x_next = denoiser(op.gradient_step(y, tau, x))
            if not np.all(np.isfinite(x_next)) or np.linalg.norm(x_next) > _DIVERGENCE_NORM:
                raise DivergenceError(i + 1)
        residual = float(np.linalg.norm(x_next - x))
        residuals.append(residual)
        x = x_next
        if residual <= config.tol * (1.0 + float(np.linalg.norm(x))):
            converged = True
            break
    return FixedPointResult(
        x_star=x,
        iterations=len(residuals),
        converged=converged,
        residual_history=np.asarray(residuals),
        step_size_warning=bool(warn),
    )


def _step_size(op: LinearOperator, config: PnpConfig) -> tuple[float, bool]:
    """The configured (or certified) step size, and whether it voids the certificate."""
    certified = 1.0 / max(op.op_norm_sq(), 1e-300)
    tau = certified if config.tau is None else config.tau
    return tau, bool(tau > certified * (1.0 + 1e-9))


def pnp_pgd_batch(
    op: LinearOperator,
    ys: np.ndarray,
    denoiser: Denoiser,
    config: PnpConfig,
) -> BatchResult:
    """Run :func:`pnp_pgd` from the zero start on every row of an (m, out_dim) stack.

    ``denoiser`` is any :class:`~pnplab.denoisers.Denoiser`: a
    :class:`ScaledDenoiser` or an :class:`OutputShrink`, with one scale for
    all rows or one per row (see :class:`ScaledDenoiser`), or a plain base,
    which runs as the output map ``1 * base(y)``. The stack, the dimensions
    and a per-row scale's row count are checked once here, ``||A^T A||`` is
    taken once for the batch, and the loop runs the operator's and the
    denoiser's unchecked routes. Each row is recorded where the serial solve
    would stop: at convergence, at divergence (recorded in ``diverged``
    instead of raised) or at ``max_iters``. Histories are not recorded.

    Over a mask the step factor ``tau keep`` is spread once over a
    contiguous (m, n) stack, which the unfused step and the fused ``gain``
    and ``shift`` read with no broadcast. The denoiser's pair ``(coef,
    off)`` (``Denoiser._diagonal``) is formed once, and the iteration takes
    one of two paths, or the fused one while a basin holds (below):

    - over a mask, whose ``A^T A = diag(d)`` with ``d`` its 0/1 row
      ``keep``, a chain with a pair is fused with the step: the contiguous
      (m, n) stacks ``gain = coef (1 - tau d)`` and ``shift = coef (tau d
      ys) + off`` are built once (:func:`_fold`), in place of an iteration's
      temporaries, and each iteration is one multiply into the
      block buffer and one add. On a hidden coordinate (d = 0) this is
      ``coef x + off``. On an observed one it is ``coef (1 - tau) x + (coef
      tau y + off)``, which equals the map as written to round-off; at
      ``tau`` = 1 it is exactly ``coef y + off``. The pair itself is not
      kept;
    - any other solve, a chain with no pair or an operator that is not a
      mask, runs the chain's ``_apply`` after the step, writing into the
      block buffer, so no iterate is copied.

    Each unfused iteration writes its step, the denoiser's input, into its
    slot of the block's differences buffer: over a mask, ``x - y``, times
    the (m, n) stack ``tau keep``, then subtracted from ``x``, three in-place
    ufuncs for every ``tau``; over any other operator, ``tau`` times the
    operator's ``_normal_residual``, then subtracted from ``x``. The whole
    loop runs under one ``np.errstate``, entered once per solve, and every
    operand the iteration passes to numpy is built before it. At its peak
    the solve holds at most ``_SOLVE_STACKS`` stacks of m rows, each as wide
    as the widest of n, the operator's ``out_dim`` and a mixture denoiser's
    component count K, or ``_BLOCK_FLOATS`` floats of block iterates and
    differences plus the ``_SOLVE_STACKS - 2 * _STOP_BLOCK`` other stacks,
    whichever is larger. That count holds on any stack, however narrow: a
    block is at most n iterations, so the stop test's (block, m) arrays, at
    most one stack each, stand in for an iteration's freed temporaries.

    Every iteration runs the whole stack, in stop blocks of one size (see
    :func:`_block_cap`): as many iterations as n and the block's iterates
    and differences in ``_BLOCK_FLOATS`` allow, but never under
    ``_STOP_BLOCK``, or n if fewer; only the last block may be shorter. A
    block's stop test gives the same records at any size. A block's iterates
    fill one buffer; row-dot norms of its iterates and of their successive
    differences, one pass over the block each, then find each running row's
    first stopping iterate and record the row there, and the loop ends after
    the first block in which every row has stopped.
    Iterates a row computes after it stopped are thrown away, and so are
    any overflow or invalid-value warnings, which a row that stops on them
    records as a divergence. So every row's iterates are bitwise those of
    the whole stack run with a stop test after every iteration, matrix
    products included, and a one-row stack's are those of :func:`pnp_pgd`
    wherever the solve is not fused, up to the sign of a zero (the serial
    step over a mask takes ``+0.0`` where the batched one takes ``(x - y)
    0``); a fused solve's equal them to round-off. Only the stop norms'
    rounding differs from ``np.linalg.norm``.

    A chain that ends at a mixture :class:`~pnplab.denoisers.MmseDenoiser`
    of more than one component has no pair and gets one basin for the solve
    (``denoisers._solve_basin``), passed to ``_apply`` on every call of the
    full route, ``denoiser._apply(step, slot, basin)``, and dropped with the
    solve. After a call that finds every row's posterior concentrated on one
    component, the basin holds that stack (the anchor), each row's
    component constants, ``rho_k`` as an (m, 1) column and ``(1 - rho_k)
    mu_k`` as an (m, n) stack, and a radius per row from a Lipschitz bound
    on the log-terms' gaps, less a rounding margin (``GmmPrior._certify``).
    While the basin holds, the chain is the elementwise affine map of those
    constants under its maps, and its pair over them,
    ``denoiser._diagonal(held)``, is folded once as a permanent pair is
    (:func:`_fold`): the held iterations run the fused loop, over a mask
    ``gain x + shift`` and over any other operator ``coef step + off``
    after the operator's step, forming no distance and calling neither the
    mixture denoiser nor the prior. At the block's end the held calls'
    inputs are formed over a mask in one vectorised pass, ``x - (x - y) tau
    keep`` over the block's held iterates, bitwise the per-call steps, and
    one vectorised test (``_Basin.first_miss``) checks them against the
    anchor: if every row of every one lies within its radius, the full
    route would have returned the same formula, so their outputs equal its
    outputs to round-off. Otherwise the basin drops its anchor, and its
    folded pair, at the first call with a row outside, and the block runs
    again from that call on the full route, which certifies nothing until
    the block ends; the next block may certify again. So the basin
    certifies at most once per stop block, and the iterates equal those of
    a solve without a basin to round-off, as a fused solve's equal the
    unfused solve's. The default conv-reg solve reaches the prior, and
    forms distances, on 1 of its 300 calls, runs the other 299 fused and
    tests its basin once per stop block. Folded one-Gaussian chains
    (stability), :func:`pnp_pgd`, the Monte-Carlo pass and
    ``estimate_lipschitz`` form no basin.
    """
    ys = np.asarray(ys, dtype=np.float64)
    if ys.ndim != 2 or ys.shape[0] < 1 or ys.shape[1] != op.out_dim:
        raise ValueError(
            f"measurements must be an (m, {op.out_dim}) stack, got shape {ys.shape}"
        )
    if not np.all(np.isfinite(ys)):
        raise ValueError("measurements contain non-finite entries")
    if denoiser.dim != op.in_dim:
        raise ValueError(
            f"denoiser dim {denoiser.dim} does not match operator in_dim {op.in_dim}"
        )
    if not isinstance(denoiser, _OutputMap):
        denoiser = _OutputMap(denoiser, 1.0)
    denoiser.check_rows(ys.shape)
    m, n = ys.shape[0], op.in_dim
    tau, warn = _step_size(op, config)
    # A mask's A = A^T = A^T A = diag(keep), so its step is x - (x - y) tau keep,
    # with tau keep spread over a contiguous (m, n) stack that no ufunc broadcasts.
    tau_d = np.multiply(tau, op.keep, out=np.empty((m, n))) if isinstance(op, Mask) else None

    iterations = np.full(m, config.max_iters)
    diverged = np.zeros(m, dtype=bool)
    running = np.ones(m, dtype=bool)
    x = np.zeros((m, n))
    cap = _block_cap(m, n, config.max_iters)
    # buf[0] holds the stack's iterate before a block, buf[j] the j-th after
    # it; diffs holds a block's denoiser inputs, then its successive differences.
    buf = np.zeros((cap + 1, m, n))
    diffs = np.empty((cap, m, n))
    # The buffers' slots as views, taken once.
    slots, steps = list(buf), list(diffs)

    def gradient_step(xs, step):
        """The step from the iterates ``xs``, the denoiser's input, written into ``step``."""
        if tau_d is None:
            np.multiply(tau, op._normal_residual(xs, ys), step)
        else:
            np.multiply(np.subtract(xs, ys, step), tau_d, step)
        return np.subtract(xs, step, step)

    with np.errstate(over="ignore", invalid="ignore"):
        # An overflowing coefficient or shift leaves non-finite iterates, recorded as a divergence.
        # fold: the (gain, shift) of the chain's pair, or of its pair over a held basin; None runs the full route.
        fold = None if tau_d is None else _fold(denoiser._diagonal(), tau_d, ys)
        basin = _solve_basin(denoiser)
        for start in range(0, config.max_iters, cap):
            size = min(cap, config.max_iters - start)
            # The basin's held calls are tested at the block's end; from the first that missed, it runs again.
            first = 0
            while first < size:
                j = first
                while fold is None and j < size:
                    denoiser._apply(gradient_step(slots[j], steps[j]), slots[j + 1], basin)
                    j += 1
                    if basin is not None and basin.held is not None:
                        fold = _fold(denoiser._diagonal(basin.held[2:]), tau_d, ys)
                held_from, (gain, shift) = j, fold or (None, None)
                if tau_d is None:
                    for j in range(held_from, size):
                        np.multiply(gain, gradient_step(slots[j], steps[j]), slots[j + 1])
                        slots[j + 1] += shift
                else:
                    for j in range(held_from, size):
                        out = slots[j + 1]
                        np.multiply(gain, slots[j], out)
                        out += shift
                if basin is None:
                    break
                if tau_d is not None:
                    # The held calls' inputs, one pass over the block each, bitwise the per-call steps.
                    gradient_step(buf[held_from:size], diffs[held_from:size])
                first = held_from + basin.first_miss(diffs[held_from:size])
                if basin.held is None:
                    # A miss drops the folded pair's stacks with the anchor.
                    fold = gain = shift = None
            # Row-dot norms, one pass each over the block; a row with NaN or
            # inf entries, or an overflowing square, is not <= the bound.
            after = buf[1 : size + 1]
            norms = np.sqrt(_row_dot(after, after))
            diff = np.subtract(after, buf[:size], out=diffs[:size])
            residual = np.sqrt(_row_dot(diff, diff))
            bad = ~(norms <= _DIVERGENCE_NORM)
            done = bad | (residual <= config.tol * (1.0 + norms))
            stopping = done.any(axis=0) & running
            if stopping.any():
                rows = np.flatnonzero(stopping)
                ends = done[:, rows].argmax(axis=0) + 1
                bad_rows = bad[ends - 1, rows]
                iterations[rows] = start + ends
                diverged[rows] = bad_rows
                # A diverged row keeps its last finite iterate, the one before.
                x[rows] = buf[ends - bad_rows, rows]
                running &= ~stopping
                if not running.any():
                    break
            buf[0] = buf[size]
    # Rows still running ran to the cap; every other row converged or diverged.
    x[running] = buf[0, running]
    return BatchResult(
        x_star=x,
        iterations=iterations,
        converged=~running & ~diverged,
        diverged=diverged,
        step_size_warning=warn,
    )


def _fold(pair, tau_d, ys):
    """A denoiser's pair ``(coef, off)`` as the ``(gain, shift)`` that the fused loop multiplies
    and adds, or None for no pair.

    Over a mask, whose step factor ``tau_d`` is ``tau keep``, the step folds in: the
    contiguous (m, n) stacks ``gain = coef (1 - tau_d)`` and ``shift = coef (tau_d ys) + off``
    map an iterate. Over any other operator (``tau_d`` None) the pair itself maps its step.
    """
    if pair is None or tau_d is None:
        return pair
    coef, off = pair
    return np.subtract(1.0, tau_d) * coef, np.multiply(tau_d, ys) * coef + off


def scaled_affine_map(denoiser: ScaledDenoiser) -> tuple[np.ndarray, np.ndarray]:
    """The (matrix, offset) form of a scaled denoiser over an affine base.

    Residual scaling gives ``((1-u) I + u W, u b)`` with ``u = 1/delta^2``;
    argument scaling gives ``(W, b / delta)``. The gamma rescale multiplies
    both parts.
    """
    base = denoiser.base
    if np.ndim(denoiser.delta):
        raise ValueError("expected a scaled denoiser with one scale")
    if not isinstance(base, AffineDenoiser):
        raise ValueError("expected a scaled denoiser over an affine base")
    n = base.dim
    if denoiser.mode == "tweedie":
        u = 1.0 / (denoiser.delta * denoiser.delta)
        matrix = (1.0 - u) * np.eye(n) + u * base.matrix
        offset = u * base.offset
    else:
        matrix = np.array(base.matrix)
        offset = base.offset / denoiser.delta
    if denoiser.gamma_rescale:
        g = gamma_factor(denoiser.delta)
        matrix = g * matrix
        offset = g * offset
    return matrix, offset


def linear_fixed_point_oracle(
    op: LinearOperator,
    y: np.ndarray,
    denoiser: ScaledDenoiser,
    config: PnpConfig,
) -> np.ndarray:
    """Closed-form fixed point when the whole iteration map is affine.

    With an affine base the iteration is ``x -> M x + c``; the unique fixed
    point solves ``(I - M) x = c`` by a direct dense solve, provided the
    spectral radius of M is below one. Used as an independent oracle for
    :func:`pnp_pgd`.
    """
    y = as_signal(y, op.out_dim)
    s_matrix, s_offset = scaled_affine_map(denoiser)
    a_matrix = op.as_matrix()
    n = op.in_dim
    tau, _ = _step_size(op, config)
    grad_matrix = np.eye(n) - tau * a_matrix.T @ a_matrix
    m_matrix = s_matrix @ grad_matrix
    c = s_matrix @ (tau * (a_matrix.T @ y)) + s_offset
    radius = float(np.max(np.abs(np.linalg.eigvals(m_matrix))))
    if radius >= 1.0 - 1e-10:
        raise NoUniqueFixedPointError(
            f"iteration map has spectral radius {radius}; no unique fixed point"
        )
    return np.linalg.solve(np.eye(n) - m_matrix, c)

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
gradient step ``x - (x - y) tau keep`` itself, over any other operator it
takes the operator's ``_normal_residual``, and it calls the denoiser's
``_apply``. Over a mask whose denoiser folds into one multiply-add, it
folds the gradient step in too, so an iteration is one multiply and one
add, equal to the unfused iteration to round-off and bitwise on the
coordinates the mask hides. It tests for a stop once per block of
iterations rather than once per iteration, runs the whole stack until its
last row stops and records each row where :func:`pnp_pgd` would have
stopped on it. Its stop norms are row dots, one pass over the block each,
and round differently from ``np.linalg.norm``; its iterates are bitwise
those of a loop that tests every iteration, and those of :func:`pnp_pgd`
wherever the step is not fused, up to the sign of a zero. Over a mixture prior it also holds a
per-solve basin (``prior._Basin``), which lets the posterior mean skip its
distances while every row provably stays on its component, with outputs
bitwise those of the full route.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .config import POSITIVE, count, real
from .denoisers import _BLOCK_FLOATS, AffineDenoiser, ScaledDenoiser, _OutputMap, _solve_basin, gamma_factor
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

# Fewest iterations per stop test in pnp_pgd_batch. A block grows with the
# iterations a solve has run, to an eighth of them, so a solve runs at most
# max(_STOP_BLOCK - 1, iterations / 8) iterations past its last stop. The
# block's iterates and their differences, 2 m n floats per iteration, stay within
# the _BLOCK_FLOATS budget that sizes every Monte-Carlo and Lipschitz block:
# at most 25 iterations on stability's 10 x 64 stack, and _STOP_BLOCK on any
# stack of m n >= 2048, conv-reg's 32 x 64 among them. Fixed blocks of 128
# slowed conv-reg.
_STOP_BLOCK = 8

# Stacks of m rows a batched solve holds at once, at most: the block buffer
# (_STOP_BLOCK + 1 iterates), the stop test's successive differences
# (_STOP_BLOCK), the measurements, the recorded iterates and the gradient
# step, which a masked step writes with three in-place ufuncs, a per-row
# scale's two coefficient stacks (see ScaledDenoiser), six for an
# iteration's temporaries, to which a masked step adds none (a fused solve
# holds its gain and shift stacks in place of these and the step's
# buffer), and three for the solve's basin over a mixture (see
# prior._Basin): its anchor, its held (1 - rho_k) mu_k rows, and its rho_k and
# squared radii, 2 m floats, at most one stack since its mixture has K >= 2
# components. The stop test runs after those temporaries are freed, over
# chunks of at most n iterations: its norms, residuals and thresholds take
# at most four (chunk, m) arrays at once, each at most one stack, and with
# its byte masks they stay within the six. Iterates are n wide, measurements
# and their residuals out_dim, and a mixture denoiser's distances and
# responsibilities K, so each stack is counted at the widest of the three,
# as the solve protocols cap their grids (experiments._solve_grid). A block
# grown past _STOP_BLOCK keeps its iterates after the first, and their
# differences, within _BLOCK_FLOATS floats in place of those 2 * _STOP_BLOCK
# stacks.
_SOLVE_STACKS = (_STOP_BLOCK + 1) + _STOP_BLOCK + 3 + 2 + 6 + 3


def _block_cap(m: int, n: int, max_iters: int) -> int:
    """Most iterations of one stop block of an (m, n) stack: its iterates and
    differences within ``_BLOCK_FLOATS`` floats and the cap, never under ``_STOP_BLOCK``."""
    return max(_STOP_BLOCK, min(max_iters, _BLOCK_FLOATS // (2 * m * n)))


def _stop_blocks(cap: int, max_iters: int):
    """``(start, size)`` of each block of a solve: ``_STOP_BLOCK`` iterations, or
    an eighth of those already run if more, at most ``cap``, up to ``max_iters``."""
    start = 0
    while start < max_iters:
        size = min(cap, max(_STOP_BLOCK, start // 8), max_iters - start)
        yield start, size
        start += size


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
    denoiser: ScaledDenoiser,
    config: PnpConfig,
) -> BatchResult:
    """Run :func:`pnp_pgd` from the zero start on every row of an (m, out_dim) stack.

    ``denoiser`` is a :class:`ScaledDenoiser` or an :class:`OutputShrink`,
    whose ``_apply`` writes into the block buffer; it carries either one
    scale for all rows or one per row (see :class:`ScaledDenoiser`). Its
    kind, the stack, the dimensions and a per-row scale's row count are
    checked once here, ``||A^T A||`` is taken once for the batch, and the
    loop runs the operator's and the denoiser's unchecked routes. Each row
    is recorded where the serial solve would stop: at convergence, at
    divergence (recorded in ``diverged`` instead of raised) or at
    ``max_iters``. Histories are not recorded.

    Each iteration writes the gradient step into one buffer: over a mask,
    ``x - y``, times the (n,) row ``tau keep``, then subtracted from ``x``,
    three in-place ufuncs for every ``tau`` (at ``tau`` = 1 the row is
    ``keep``); over any other operator, ``tau`` times the operator's
    ``_normal_residual``, then subtracted from ``x``. The denoiser writes
    its result straight into the block buffer, so no iterate is copied and
    a masked iteration is its ufunc calls only. The whole loop runs under
    one ``np.errstate``, entered once per solve.
    Every operand the iteration passes to numpy is built before it: the
    denoiser's coefficients are 0-d arrays or (n,) rows for one scale and
    contiguous (m, n) stacks for a scale per row (see
    :class:`ScaledDenoiser`). At its peak the solve holds at most
    ``_SOLVE_STACKS`` stacks of m rows, each as wide as the widest of n, the
    operator's ``out_dim`` and a mixture denoiser's component count K, or
    ``_BLOCK_FLOATS`` floats of block iterates and differences plus the
    ``_SOLVE_STACKS - 2 * _STOP_BLOCK`` other stacks, whichever is larger.
    That count holds on any stack, however narrow: the stop test's (chunk,
    m) arrays, at most one stack each, stand in for an iteration's freed
    temporaries.

    A solve over a mask, whose ``A^T A = diag(d)`` with ``d`` its 0/1 row
    ``keep``, and whose denoiser folds into one pair ``(coef, off)``
    (``_OutputMap._pair``, one scale or a scale per row) fuses the two: it
    builds the contiguous (m, n) stacks ``gain = coef (1 - tau d)`` and
    ``shift = coef (tau d ys) + off`` once, in place of the step buffer and
    an iteration's temporaries, and each iteration is one multiply into the
    block buffer and one add. On a hidden coordinate (d = 0) this is ``coef
    x + off``, bitwise the unfused iteration. On an observed one it is
    ``coef (1 - tau) x + (coef tau y + off)``, which equals
    ``coef (x - tau (x - y)) + off`` to round-off, as the denoiser's own
    fold does; at ``tau`` = 1 it is exactly ``coef y + off``, which the
    unfused route also gives wherever ``x - (x - y)`` rounds to ``y``, as
    on every iterate of the default stability solve. Every other solve
    (another operator, or a chain that does not fold) runs the unfused
    iteration.

    Every iteration runs the whole stack. The iterations run in blocks of
    ``_STOP_BLOCK``, growing to an eighth of the iterations run as far as
    the block's iterates and differences fit ``_BLOCK_FLOATS`` (see
    :func:`_stop_blocks`). A block's iterates fill one buffer; row-dot norms
    of its iterates and of their successive differences, each one pass over
    the block in chunks of at most n iterations, then find each running
    row's first stopping iterate and record the row there, and the loop
    ends once every row has stopped.
    Iterates a row computes after it stopped are thrown away, and so are
    any overflow or invalid-value warnings, which a row that stops on them
    records as a divergence. So every row's iterates are bitwise those of
    the whole stack run with a stop test after every iteration, matrix
    products included, and a one-row stack's are those of :func:`pnp_pgd`
    when the step is not fused, up to the sign of a zero (the serial step
    over a mask takes ``+0.0`` where the batched one takes ``(x - y) 0``); a
    fused one's are so on the hidden coordinates and equal them to
    round-off elsewhere. Only the stop norms' rounding differs from
    ``np.linalg.norm``.

    A chain that folds nowhere and ends at a mixture :class:`~pnplab.denoisers.MmseDenoiser`
    of more than one component gets one basin for the solve
    (``denoisers._solve_basin``), passed to ``_apply`` by keyword on every
    iteration and dropped with the solve. After a call that finds every
    row's posterior concentrated on one component, the basin holds that
    stack (the anchor), each row's component constants and a radius per
    row from a Lipschitz bound on the log-terms' gaps, less a rounding
    margin (``GmmPrior._certify``). While every row stays within its radius
    of the anchor, a call forms no distance and returns the one-component
    formula, bitwise the full route's output, so the iterates are bitwise
    those of a solve without a basin. The default conv-reg solve forms
    distances on 1 of its 300 calls. Folded one-Gaussian chains
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
        raise ValueError(
            f"expected a ScaledDenoiser or OutputShrink, got {type(denoiser).__name__}; "
            "wrap it, for example with tweedie_scale(d, 1.0)"
        )
    denoiser.check_rows(ys.shape)
    m, n = ys.shape[0], op.in_dim
    tau, warn = _step_size(op, config)
    # A mask's A = A^T = A^T A = diag(keep), so its step is x - (x - y) tau keep.
    tau_d = tau * op.keep if isinstance(op, Mask) else None
    fused = tau_d is not None and denoiser._pair is not None

    iterations = np.full(m, config.max_iters)
    diverged = np.zeros(m, dtype=bool)
    running = np.ones(m, dtype=bool)
    x = np.zeros((m, n))
    cap = _block_cap(m, n, config.max_iters)
    # buf[0] holds the stack's iterate before a block, buf[j] the j-th after it.
    buf = np.zeros((cap + 1, m, n))
    # The successive differences of one stop-test chunk, reused by every
    # block. A chunk is at most n iterations, so each of the test's (chunk, m)
    # arrays is at most one stack.
    chunk = min(cap, n)
    diffs = np.empty((chunk, m, n))
    # The buffer's slots as views, taken once.
    slots = list(buf)
    with np.errstate(over="ignore", invalid="ignore"):
        if fused:
            # coef (x - tau d (x - y)) + off as gain x + shift; an overflowing
            # shift leaves non-finite iterates, recorded as a divergence.
            coef, off = denoiser._pair
            gain = np.multiply(coef, 1.0 - tau_d, out=np.empty((m, n)))
            shift = coef * (tau_d * ys) + off
        else:
            step = np.empty((m, n))
            basin = _solve_basin(denoiser)
            denoise = denoiser._apply if basin is None else partial(denoiser._apply, basin=basin)
        for start, size in _stop_blocks(cap, config.max_iters):
            block = buf[: size + 1]
            if fused:
                for j in range(size):
                    out = slots[j + 1]
                    np.multiply(gain, slots[j], out=out)
                    out += shift
            else:
                for j in range(size):
                    xj = slots[j]
                    if tau_d is None:
                        np.multiply(tau, op._normal_residual(xj, ys), step)
                    else:
                        np.multiply(np.subtract(xj, ys, step), tau_d, step)
                    np.subtract(xj, step, step)
                    denoise(step, out=slots[j + 1])
            ended = False
            for lo in range(0, size, chunk):
                # Row-dot norms, one pass each over the chunk; a row with NaN
                # or inf entries, or an overflowing square, is not <= the bound.
                hi = min(lo + chunk, size)
                after = block[lo + 1 : hi + 1]
                norms = np.sqrt(_row_dot(after, after))
                diff = np.subtract(after, block[lo:hi], out=diffs[: hi - lo])
                residual = np.sqrt(_row_dot(diff, diff))
                bad = ~(norms <= _DIVERGENCE_NORM)
                done = bad | (residual <= config.tol * (1.0 + norms))
                stopping = done.any(axis=0) & running
                if stopping.any():
                    rows = np.flatnonzero(stopping)
                    ends = done[:, rows].argmax(axis=0) + 1
                    bad_rows = bad[ends - 1, rows]
                    iterations[rows] = start + lo + ends
                    diverged[rows] = bad_rows
                    # A diverged row keeps its last finite iterate, the one before.
                    x[rows] = block[lo + ends - bad_rows, rows]
                    running &= ~stopping
                    ended = not running.any()
            if ended:
                break
            buf[0] = block[size]
    # Rows still running ran to the cap; every other row converged or diverged.
    x[running] = buf[0, running]
    return BatchResult(
        x_star=x,
        iterations=iterations,
        converged=~running & ~diverged,
        diverged=diverged,
        step_size_warning=warn,
    )


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

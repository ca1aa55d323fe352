"""Desk-scale experiment protocols with deterministic CSV/SVG artifacts.

Four protocols: a scale sweep over a family of denoisers of graded quality,
a data-perturbation stability run, a joint noise-and-scale limit probing
convergent regularisation, and a noise-level table of Lipschitz estimates.

Every run is a pure function of its resolved config. Its prior, operator and
denoiser are built and cross-checked before any work starts; a bad config
raises :class:`ConfigError`. The solve protocols share one driver,
:func:`_solve_grid`, which builds and caps their setup and runs their whole
grid as one batched fixed-point stack (:func:`~pnplab.solver.pnp_pgd_batch`);
each protocol keeps its own fields, rows and metrics. The scale sweep
derives every grid loss from one streamed pass over one shared sample set
that evaluates every mismatch ratio's denoiser.

Every CSV row, here and in the CLI's ``delta-opt``, is built by one record
builder, :func:`_records`, from a protocol's keys and one column of values
per metric; it holds the one divergence rule, that a diverged grid point
records only ``diverged = 1.0``. Records come out in grid order, so the
emitted CSV is byte-identical across reruns; its runtime column is pinned to
zero.
"""

from __future__ import annotations

import copy
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import svgplot
from .analysis import _MAX_SAMPLE_FLOATS, _check_samples, _loss_scales, _moments_on_prior
from .config import POSITIVE, UNIT, ConfigError, count, flag, real, real_array
from .denoisers import MmseDenoiser, OutputShrink, ScaledDenoiser, denoiser_from_config
from .denoisers import _check_spread, _row_width, estimate_lipschitz
from .linop import _row_dot, operator_from_config
from .prior import GmmPrior, _check_sigma
from .solver import _SOLVE_STACKS, PnpConfig, pnp_pgd_batch

__all__ = [
    "ConfigError",
    "ExperimentRecord",
    "EXPERIMENT_NAMES",
    "resolve_config",
    "run_experiment",
    "run_delta_sweep_experiment",
    "run_stability",
    "run_conv_reg",
    "run_lipschitz_table",
    "write_records_csv",
    "write_plots",
]

@dataclass
class ExperimentRecord:
    """One grid point: a key (scale, perturbation index, or noise level) plus metrics."""

    experiment: str
    key: float
    metrics: dict[str, float] = field(default_factory=dict)


def _records(experiment: str, keys, columns: dict, diverged=None) -> list[ExperimentRecord]:
    """One record per key, in order; record i holds ``columns[m][i]`` for each metric m.

    A ``None`` in a column leaves that metric out of its record. A grid point
    flagged in ``diverged`` records only ``diverged = 1.0``.
    """
    records = []
    for i, key in enumerate(keys):
        if diverged is not None and diverged[i]:
            metrics = {"diverged": 1.0}
        else:
            metrics = {m: float(col[i]) for m, col in columns.items() if col[i] is not None}
        records.append(ExperimentRecord(experiment, float(key), metrics))
    return records


# -- defaults ----------------------------------------------------------------


def _pattern(n: int, kind: int) -> list[float]:
    """Deterministic smooth unit-amplitude pattern; stands in for an image."""
    i = np.arange(n)
    if kind == 0:
        return list(np.sin(2.0 * np.pi * i / n))
    if kind == 1:
        return list(np.cos(4.0 * np.pi * i / n))
    return list(2.0 * i / max(n - 1, 1) - 1.0)


def _multimodal_prior_config(n: int) -> dict:
    return {
        "weights": [0.4, 0.35, 0.25],
        "means": [_pattern(n, 0), _pattern(n, 1), _pattern(n, 2)],
        "variances": [0.25, 0.25, 0.25],
    }


def _single_prior_config(n: int) -> dict:
    return {"weights": [1.0], "means": [_pattern(n, 0)], "variances": [1.0]}


def _log_grid(start: float, stop: float, points: int) -> list[float]:
    return [float(v) for v in np.geomspace(start, stop, points)]


def _check_fields(config: dict, known, reader: str) -> None:
    """Reject the first field of ``config`` not in ``known``; ``reader`` names who reads it."""
    for key in config:
        if key not in known:
            raise ConfigError(f"unknown config field {key!r} for {reader}")


def _protocol(name: str) -> "_Protocol":
    if name not in _PROTOCOLS:
        raise ConfigError(
            f"unknown experiment {name!r}; valid names: {', '.join(EXPERIMENT_NAMES)}"
        )
    return _PROTOCOLS[name]


def resolve_config(name: str, config: dict | None = None) -> dict:
    """Fill defaults for the named experiment; unknown keys are rejected."""
    protocol = _protocol(name)
    if config is not None and not isinstance(config, dict):
        raise ConfigError(f"config must be a mapping of fields, got {type(config).__name__}")
    resolved = copy.deepcopy(protocol.defaults)
    config = config or {}
    _check_fields(config, resolved, f"experiment {name!r}")
    for key, value in config.items():
        if key == "solver" and isinstance(value, dict):
            value = {**resolved[key], **value}
        resolved[key] = value
    return resolved


@contextmanager
def _reading(what: str):
    """Report a malformed value met while reading ``what`` as a :class:`ConfigError`.

    Wraps only the reading of config fields and the construction of objects
    from them, never a computation, so an internal error keeps its traceback.
    """
    try:
        yield
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        detail = f"missing field {exc}" if isinstance(exc, KeyError) else exc
        raise ConfigError(f"bad {what}: {detail}") from exc


# Most grid points a run records: each is a record, a CSV row and an SVG point.
_MAX_GRID_POINTS = 1 << 16


def _solve_grid(resolved: dict, name: str, prior, sigma, seed, field, rows, delta=None) -> tuple:
    """Read, cap and solve a solve protocol's grid as one batch; returns ``(op, grid, y, result)``.

    The operator, the base denoiser (shrunk by ``contract_eps``) and the
    solver config are read first, then the grid ``field``, capped so that
    the solve's ``_SOLVE_STACKS`` arrays of one row per grid point fit the
    float cap: the measurements and their residuals are ``op.out_dim`` wide,
    the iterates the prior's dim, and a mixture denoiser's (K, m) distances
    and responsibilities K, so a grid point is sized by the widest. The base
    is scaled at ``delta``, or at the grid itself when ``delta`` is None.
    The clean measurement ``y`` comes from one prior sample at ``sigma``,
    and ``rows(y, xi, grid)`` forms the stack from it and the ``[seed, 1]``
    noise ``xi`` with overflow warnings off. An operator, prior or noise
    scale can each be finite and still overflow the measurements, an
    operator's ``||A^T A||`` can overflow and certify no step, and finite
    measurements can have squared row norms that overflow and leave the
    recorded metrics no norm; each is rejected before the solve starts.
    """
    with _reading("solve config"):
        spec = resolved["operator"]
        # A declared dim sizes the operator's arrays, so it is compared first;
        # an operator given as an array (a mask or a matrix) declares none.
        op_dim = count(spec.get("dim", prior.dim), "dim")
        if op_dim == prior.dim:
            op = operator_from_config(spec)
            op_dim = op.in_dim
        if op_dim != prior.dim:
            raise ValueError(f"prior has dim {prior.dim}, but the operator acts on dim {op_dim}")
        base = denoiser_from_config(resolved["denoiser"], prior=prior, sigma=sigma)
        eps = real(resolved.get("contract_eps", 0.0), "contract_eps", UNIT)
        if eps > 0.0:
            base = OutputShrink(base, 1.0 - eps)
        cfg = PnpConfig(**resolved["solver"])
    with _reading(f"{name} config"):
        width = max(op.out_dim, _row_width(base, op.in_dim))
        cap = min(_MAX_GRID_POINTS, _MAX_SAMPLE_FLOATS // (_SOLVE_STACKS * width))
        grid = real_array(resolved[field], field, rule=POSITIVE, cap=cap)
    with _reading("solve config"):
        gamma_rescale = flag(resolved["gamma_rescale"], "gamma_rescale")
        scale = grid if delta is None else delta
        scaled = ScaledDenoiser(base, scale, mode=resolved["mode"], gamma_rescale=gamma_rescale)

    clean, _ = prior.sample_pairs(sigma, 1, seed)
    xi = np.random.default_rng([seed, 1]).standard_normal(op.out_dim)
    with np.errstate(over="ignore", invalid="ignore"):
        y = op.apply(clean[0])
        ys = rows(y, xi, grid)
    if not np.all(np.isfinite(ys)):
        raise ConfigError("measurements contain non-finite entries: the operator or the noise overflows")
    with np.errstate(over="ignore"):
        norm_sq = op.op_norm_sq()
        sq_norms = _row_dot(ys, ys)
    if not norm_sq < np.inf:
        raise ConfigError(f"the operator's norm ||A^T A|| is not finite, got {norm_sq!r}")
    if not np.all(sq_norms < np.inf):
        raise ConfigError("measurements are too large: their squared norms overflow")
    return op, grid, y, pnp_pgd_batch(op, ys, scaled, cfg)


# -- protocols ---------------------------------------------------------------


def run_delta_sweep_experiment(config: dict | None = None):
    """Loss-versus-scale curves for a graded family of mismatched denoisers.

    One denoiser per mismatch ratio (training noise over data noise), all
    evaluated on one shared sample set. Emits the loss curve per ratio, the
    estimated optimal squared scale per ratio, and a summary flag recording
    whether those estimates increase strictly with the mismatch. One pass
    over the samples evaluates every ratio's denoiser (see
    :class:`~pnplab.analysis.ResidualMoments`).
    """
    resolved = resolve_config("delta-sweep", config)
    with _reading("delta-sweep config"):
        prior = GmmPrior.from_config(resolved["prior"])
        sigma = _check_sigma(resolved["sigma"], POSITIVE)
        samples = count(resolved["samples"], "samples")
        _check_samples(samples, prior.dim)
        # Each ratio's denoiser keeps a (K, n) constant, and the pass three moments per sample.
        cap = _MAX_SAMPLE_FLOATS // (3 * samples + prior.means.size)
        ratios = real_array(resolved["mismatch_ratios"], "mismatch_ratios", rule=POSITIVE, cap=cap)
        # One curve point per scale and ratio.
        cap = _MAX_GRID_POINTS // ratios.size
        grid = real_array(resolved["delta_grid"], "delta_grid", rule=POSITIVE, cap=cap)
        grid = _loss_scales(grid, "delta_grid")
        seed = count(resolved["seed"], "seed")
        denoisers = [MmseDenoiser(prior, ratio * sigma) for ratio in ratios]

    records = []
    ordered = []
    passes = _moments_on_prior(denoisers, prior, sigma, samples, seed)
    for ratio, moments in zip(ratios, passes):
        label = f"r={ratio:g}"
        values, stderrs = moments._losses(grid)
        records += _records(
            "delta-sweep", grid, {f"l2[{label}]": values, f"l2_stderr[{label}]": stderrs}
        )
        opt = moments.delta_opt()
        ordered.append(opt.delta_opt_sq)
        records += _records(
            "delta-sweep",
            [ratio],
            {"delta_opt_sq": [opt.delta_opt_sq], "delta_opt_sq_stderr": [opt.stderr_delta_opt_sq]},
        )
    strict = all(a < b for a, b in zip(ordered, ordered[1:]))
    records += _records("delta-sweep", [0.0], {"quality_ordering_strict": [strict]})
    return resolved, records


def run_stability(config: dict | None = None):
    """Distance between reconstructions from perturbed and clean data.

    Forms measurements from one prior sample, perturbs them with one fixed
    noise draw shrunk by 1/k, and solves both problems from the same start.
    With a contractive scaled denoiser the reconstruction map is Lipschitz in
    the data, so the recorded distance decays at least like 1/k. The clean
    solve is row 0 of the batch, the perturbed ones follow in grid order.
    """
    resolved = resolve_config("stability", config)
    with _reading("stability config"):
        prior = GmmPrior.from_config(resolved["prior"])
        sigma = _check_sigma(resolved["sigma"], POSITIVE)
        delta = real(resolved["delta"], "delta")
        seed = count(resolved["seed"], "seed")

    def rows(y, xi, k_grid):
        return np.vstack([y, y + (sigma / k_grid)[:, None] * xi])

    _, k_grid, _, res = _solve_grid(resolved, "stability", prior, sigma, seed, "k_grid", rows, delta)
    distance = [np.linalg.norm(x - res.x_star[0]) for x in res.x_star[1:]]
    columns = {"distance_to_limit": distance, "converged": res.converged[1:]}
    return resolved, _records("stability", k_grid, columns, res.diverged[0] | res.diverged[1:])


def run_conv_reg(config: dict | None = None):
    """Joint limit of vanishing data noise and regularisation strength.

    For each scale on a logarithmic grid the clean measurements are perturbed
    by noise shrunk with the same scale, a fixed 300-iteration solve is run
    from the zero start, and the relative measurement-space residual is
    recorded, together with gaps between reconstructions at consecutive grid
    points. Divergence at a grid point is recorded as data, not an error.
    The grid runs as one batch with one scale per row.
    """
    resolved = resolve_config("conv-reg", config)
    with _reading("conv-reg config"):
        prior = GmmPrior.from_config(resolved["prior"])
        sigma = _check_sigma(resolved["sigma"])
        seed = count(resolved["seed"], "seed")
        resample = flag(resolved["resample_noise_per_delta"], "resample_noise_per_delta")

    def rows(y0, xi, grid):
        if resample:
            xi = np.stack(
                [np.random.default_rng([seed, 2, i]).standard_normal(y0.size) for i in range(grid.size)]
            )
        return y0 + (sigma / grid)[:, None] * xi

    op, grid, y0, res = _solve_grid(resolved, "conv-reg", prior, max(sigma, 1e-12), seed, "delta_grid", rows)
    norm_y0 = float(np.linalg.norm(y0))
    x, diverged = res.x_star, res.diverged
    # The gap from each grid point to the next, where neither diverged.
    gaps = [
        None if diverged[i] or diverged[i + 1] else np.linalg.norm(x[i] - x[i + 1])
        for i in range(grid.size - 1)
    ]
    columns = {
        "data_consistency": [np.linalg.norm(op.apply(row) - y0) / max(norm_y0, 1e-300) for row in x],
        "converged": res.converged,
        "iterate_gap": gaps + [None],
    }
    return resolved, _records("conv-reg", grid, columns, diverged)


# Largest Lipschitz point cloud: its pair count, and so its run time, grows as the square.
_MAX_CLOUD_SIZE = 10_000


def run_lipschitz_table(config: dict | None = None):
    """Pairwise Lipschitz estimate of the optimal denoiser per noise level.

    The point cloud is drawn from the noisy prior at each level. An estimate
    above one is reported with a zero ``non_expansive`` flag rather than
    treated as a failure; multimodal priors genuinely exceed one between
    modes at small noise.
    """
    resolved = resolve_config("lipschitz", config)
    with _reading("lipschitz config"):
        prior = GmmPrior.from_config(resolved["prior"])
        # Each noise level's denoiser keeps a (K, n) constant.
        cap = min(_MAX_GRID_POINTS, _MAX_SAMPLE_FLOATS // prior.means.size)
        sigma_grid = real_array(resolved["sigma_grid"], "sigma_grid", rule=POSITIVE, cap=cap)
        cloud_size = count(resolved["cloud_size"], "cloud_size")
        if not 2 <= cloud_size <= _MAX_CLOUD_SIZE:
            raise ConfigError(f"cloud_size must lie between 2 and {_MAX_CLOUD_SIZE}")
        _check_samples(cloud_size, prior.dim, "cloud_size")
        seed = count(resolved["seed"], "seed")
        denoisers = [MmseDenoiser(prior, sigma) for sigma in sigma_grid]

    lips = []
    for index, (sigma, denoiser) in enumerate(zip(sigma_grid, denoisers)):
        _, noisy = prior.sample_pairs(sigma, cloud_size, np.random.SeedSequence([seed, index]))
        with _reading(f"lipschitz cloud at sigma {float(sigma)!r}"):
            _check_spread(noisy, "its points")
        lips.append(estimate_lipschitz(denoiser, noisy))
    columns = {"lipschitz_max": lips, "non_expansive": [lip <= 1.0 + 1e-9 for lip in lips]}
    return resolved, _records("lipschitz", sigma_grid, columns)


class _Protocol(NamedTuple):
    """How a protocol runs, what its config defaults to, and how its plots are drawn."""

    runner: Callable
    xlabel: str
    log_x: bool
    defaults: dict
    # Plots of the metrics whose records are keyed by another quantity, and that quantity's label.
    other_xlabels: dict = {}


_PROTOCOLS = {
    "delta-sweep": _Protocol(
        run_delta_sweep_experiment,
        "scale delta",
        True,
        {
            "prior": _multimodal_prior_config(8),
            "sigma": 0.1,
            "mismatch_ratios": [1.0, 1.5, 2.0, 3.0],
            "delta_grid": _log_grid(0.7, 20.0, 33),
            "samples": 20000,
            "seed": 0,
        },
        {"delta_opt_sq": "mismatch ratio", "delta_opt_sq_stderr": "mismatch ratio"},
    ),
    "stability": _Protocol(
        run_stability,
        "perturbation index k",
        True,
        {
            "prior": _single_prior_config(64),
            "operator": {"kind": "mask", "dim": 64, "mask_fraction": 0.2, "seed": 0},
            "denoiser": {"kind": "exact_mmse"},
            "mode": "tweedie",
            "gamma_rescale": False,
            "delta": 1.09,
            "contract_eps": 1e-3,
            "sigma": 0.1,
            "k_grid": [1, 2, 4, 8, 16, 32, 64, 128, 256],
            "solver": {"tau": 1.0, "max_iters": 20000, "tol": 1e-11},
            "seed": 0,
        },
    ),
    "conv-reg": _Protocol(
        run_conv_reg,
        "scale delta",
        True,
        {
            "prior": _multimodal_prior_config(64),
            "operator": {"kind": "mask", "dim": 64, "mask_fraction": 0.2, "seed": 0},
            "denoiser": {"kind": "exact_mmse"},
            "mode": "tweedie",
            "gamma_rescale": True,
            "sigma": 0.1,
            "delta_grid": _log_grid(1.0, 1000.0, 32),
            "resample_noise_per_delta": False,
            "solver": {"tau": 1.0, "max_iters": 300, "tol": 1e-9},
            "seed": 0,
        },
    ),
    "lipschitz": _Protocol(
        run_lipschitz_table,
        "noise level sigma",
        False,
        {
            "prior": _single_prior_config(4),
            "sigma_grid": [0.01, 0.03, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3],
            "cloud_size": 128,
            "seed": 0,
        },
    ),
}

EXPERIMENT_NAMES = tuple(_PROTOCOLS)


def run_experiment(name: str, config: dict | None = None):
    """Run the named protocol, which resolves ``config``; returns (resolved config, records)."""
    return _protocol(name).runner(config)


# -- artifacts ---------------------------------------------------------------


def _fmt_float(v: float) -> str:
    """Shortest decimal that round-trips to the same double."""
    return repr(float(v))


def write_records_csv(path, records: list[ExperimentRecord], seed: int) -> None:
    """Write records as ``experiment,key,metric,value,runtime_ms,seed`` rows.

    Output is byte-deterministic for a fixed record list: rows are sorted
    stably by key, floats use round-trip-exact decimals, lines end with LF,
    and the runtime column is pinned to zero (the run's measured time lives
    in its manifest, never in the CSV).
    """
    rows = ["experiment,key,metric,value,runtime_ms,seed"]
    for rec in sorted(records, key=lambda r: r.key):
        for metric in sorted(rec.metrics):
            rows.append(
                f"{rec.experiment},{_fmt_float(rec.key)},{metric},"
                f"{_fmt_float(rec.metrics[metric])},0.0,{seed}"
            )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(rows) + "\n")


def write_plots(name: str, records: list[ExperimentRecord], out_dir) -> list[str]:
    """One SVG line plot per metric; bracketed metric suffixes become series.

    A record a log-x axis cannot place (a key of zero or below) is left out,
    so a metric with no other point, such as delta-sweep's scalar
    ``quality_ordering_strict``, gets no plot; the CSV holds every record.
    """
    protocol = _PROTOCOLS[name]
    grouped: dict[str, dict[str, tuple[list[float], list[float]]]] = {}
    for rec in sorted(records, key=lambda r: r.key):
        if protocol.log_x and not rec.key > 0:
            continue
        for metric, value in rec.metrics.items():
            if "[" in metric:
                base, label = metric[:-1].split("[", 1)
            else:
                base, label = metric, name
            series = grouped.setdefault(base, {}).setdefault(label, ([], []))
            series[0].append(rec.key)
            series[1].append(value)
    paths = []
    for base, series in sorted(grouped.items()):
        values = [v for xs, ys in series.values() for v in ys]
        log_y = all(v > 0 for v in values) and max(values) / max(min(values), 1e-300) > 50
        out = os.path.join(out_dir, f"{name}_{base}.svg")
        svgplot.line_plot(
            out,
            series,
            title=f"{name}: {base}",
            xlabel=protocol.other_xlabels.get(base, protocol.xlabel),
            ylabel=base,
            log_x=protocol.log_x,
            log_y=log_y,
        )
        paths.append(out)
    return paths

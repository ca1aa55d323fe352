"""Desk-scale experiment protocols with deterministic CSV/SVG artifacts.

Four protocols: a scale sweep over a family of denoisers of graded quality,
a data-perturbation stability run, a joint noise-and-scale limit probing
convergent regularisation, and a noise-level table of Lipschitz estimates.

Every run is a pure function of its resolved config. Its prior, operator and
denoiser are built and cross-checked before any work starts; a bad config
raises :class:`ConfigError`. The solve protocols run their whole grid as one
batched fixed-point stack (:func:`~pnplab.solver.pnp_pgd_batch`), and the
scale sweep derives every grid loss from one streamed pass over one shared
sample set that evaluates every mismatch ratio's denoiser. The ``workers``
argument is accepted and has no effect. Records come out in grid order, so
the emitted CSV is byte-identical across reruns; its runtime column is
pinned to zero.
"""

from __future__ import annotations

import copy
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import svgplot
from .analysis import _check_samples, _moments_on_prior, _scale_grid
from .denoisers import (
    MmseDenoiser,
    OutputShrink,
    ScaledDenoiser,
    denoiser_from_config,
    estimate_lipschitz,
)
from .linop import operator_from_config
from .prior import GmmPrior
from .solver import PnpConfig, pnp_pgd_batch

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

class ConfigError(ValueError):
    """A config is malformed or missing a required field."""


@dataclass
class ExperimentRecord:
    """One grid point: a key (scale, perturbation index, or noise level) plus metrics."""

    experiment: str
    key: float
    metrics: dict[str, float] = field(default_factory=dict)


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


def resolve_config(name: str, config: dict | None = None) -> dict:
    """Fill defaults for the named experiment; unknown keys are rejected."""
    if name not in EXPERIMENT_NAMES:
        raise ConfigError(
            f"unknown experiment {name!r}; valid names: {', '.join(EXPERIMENT_NAMES)}"
        )
    if config is not None and not isinstance(config, dict):
        raise ConfigError(f"config must be a mapping of fields, got {type(config).__name__}")
    resolved = copy.deepcopy(_PROTOCOLS[name].defaults)
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
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        detail = f"missing field {exc}" if isinstance(exc, KeyError) else exc
        raise ConfigError(f"bad {what}: {detail}") from exc


def _build_prior(resolved: dict) -> GmmPrior:
    with _reading("prior config"):
        return GmmPrior.from_config(resolved["prior"])


def _build_solve(resolved: dict, sigma: float, delta) -> tuple:
    """Prior, operator, scaled denoiser and solver config of a solve protocol.

    ``delta`` is one scale or one per grid point; everything the batched
    solve needs is validated here, before it starts.
    """
    prior = _build_prior(resolved)
    with _reading("solve config"):
        spec = resolved["operator"]
        # A declared dim sizes the operator's arrays, so it is compared first;
        # an operator given as an array (a mask or a matrix) declares none.
        op_dim = spec.get("dim", prior.dim)
        if op_dim == prior.dim:
            op = operator_from_config(spec)
            op_dim = op.in_dim
        if op_dim != prior.dim:
            raise ValueError(f"prior has dim {prior.dim}, but the operator acts on dim {op_dim}")
        base = denoiser_from_config(resolved["denoiser"], prior=prior, sigma=sigma)
        eps = float(resolved.get("contract_eps", 0.0))
        if eps > 0.0:
            base = OutputShrink(base, 1.0 - eps)
        scaled = ScaledDenoiser(
            base, delta, mode=resolved["mode"], gamma_rescale=bool(resolved["gamma_rescale"])
        )
        return prior, op, scaled, PnpConfig(**resolved["solver"])


# -- protocols ---------------------------------------------------------------


def run_delta_sweep_experiment(config: dict | None = None, workers: int = 1):
    """Loss-versus-scale curves for a graded family of mismatched denoisers.

    One denoiser per mismatch ratio (training noise over data noise), all
    evaluated on one shared sample set. Emits the loss curve per ratio, the
    estimated optimal squared scale per ratio, and a summary flag recording
    whether those estimates increase strictly with the mismatch. One pass
    over the samples evaluates every ratio's denoiser (see
    :class:`~pnplab.analysis.ResidualMoments`).
    """
    resolved = resolve_config("delta-sweep", config)
    prior = _build_prior(resolved)
    with _reading("delta-sweep config"):
        sigma = float(resolved["sigma"])
        ratios = _scale_grid(resolved["mismatch_ratios"], "mismatch_ratios")
        grid = _scale_grid(resolved["delta_grid"], "delta_grid")
        samples = int(resolved["samples"])
        _check_samples(samples, prior.dim)
        seed = int(resolved["seed"])
        denoisers = [MmseDenoiser(prior, ratio * sigma) for ratio in ratios]

    records: list[ExperimentRecord] = []
    ordered = []
    passes = _moments_on_prior(denoisers, prior, sigma, samples, seed)
    for ratio, moments in zip(ratios, passes):
        label = f"r={ratio:g}"
        for delta, est in moments.sweep(grid):
            records.append(
                ExperimentRecord(
                    "delta-sweep",
                    key=delta,
                    metrics={f"l2[{label}]": est.value, f"l2_stderr[{label}]": est.stderr},
                )
            )
        opt = moments.delta_opt()
        ordered.append(opt.delta_opt_sq)
        records.append(
            ExperimentRecord(
                "delta-sweep",
                key=ratio,
                metrics={
                    "delta_opt_sq": opt.delta_opt_sq,
                    "delta_opt_sq_stderr": opt.stderr_delta_opt_sq,
                },
            )
        )
    strict = all(a < b for a, b in zip(ordered, ordered[1:]))
    records.append(
        ExperimentRecord(
            "delta-sweep", key=0.0, metrics={"quality_ordering_strict": float(strict)}
        )
    )
    return resolved, records


def run_stability(config: dict | None = None, workers: int = 1):
    """Distance between reconstructions from perturbed and clean data.

    Forms measurements from one prior sample, perturbs them with one fixed
    noise draw shrunk by 1/k, and solves both problems from the same start.
    With a contractive scaled denoiser the reconstruction map is Lipschitz in
    the data, so the recorded distance decays at least like 1/k. The clean
    solve is row 0 of the batch, the perturbed ones follow in grid order.
    """
    resolved = resolve_config("stability", config)
    with _reading("stability config"):
        sigma = float(resolved["sigma"])
        delta = float(resolved["delta"])
        seed = int(resolved["seed"])
        k_grid = _scale_grid(resolved["k_grid"], "k_grid")
    prior, op, scaled, cfg = _build_solve(resolved, sigma, delta)
    with _reading("stability config"):
        clean, _ = prior.sample_pairs(sigma, 1, seed)
    y = op.apply(clean[0])
    xi = np.random.default_rng([seed, 1]).standard_normal(op.out_dim)
    res = pnp_pgd_batch(op, np.vstack([y, y + (sigma / k_grid)[:, None] * xi]), scaled, cfg)
    records = []
    for row, k in enumerate(k_grid, start=1):
        if res.diverged[0] or res.diverged[row]:
            metrics = {"diverged": 1.0}
        else:
            metrics = {
                "distance_to_limit": float(np.linalg.norm(res.x_star[row] - res.x_star[0])),
                "converged": float(res.converged[row]),
            }
        records.append(ExperimentRecord("stability", key=float(k), metrics=metrics))
    return resolved, records


def run_conv_reg(config: dict | None = None, workers: int = 1):
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
        sigma = float(resolved["sigma"])
        grid = _scale_grid(resolved["delta_grid"], "delta_grid")
        seed = int(resolved["seed"])
    if sigma < 0:
        raise ConfigError("sigma must be nonnegative")
    prior, op, scaled, cfg = _build_solve(resolved, max(sigma, 1e-12), grid)

    clean, _ = prior.sample_pairs(max(sigma, 1e-12), 1, seed)
    y0 = op.apply(clean[0])
    norm_y0 = float(np.linalg.norm(y0))
    if resolved["resample_noise_per_delta"]:
        noise = np.stack(
            [
                np.random.default_rng([seed, 2, i]).standard_normal(op.out_dim)
                for i in range(grid.size)
            ]
        )
    else:
        noise = np.random.default_rng([seed, 1]).standard_normal(op.out_dim)
    res = pnp_pgd_batch(op, y0 + (sigma / grid)[:, None] * noise, scaled, cfg)
    records = []
    for delta, x, converged, diverged in zip(grid, res.x_star, res.converged, res.diverged):
        if diverged:
            metrics = {"diverged": 1.0}
        else:
            metrics = {
                "data_consistency": float(
                    np.linalg.norm(op.apply(x) - y0) / max(norm_y0, 1e-300)
                ),
                "converged": float(converged),
            }
        records.append(ExperimentRecord("conv-reg", key=float(delta), metrics=metrics))
    for i in range(grid.size - 1):
        if not (res.diverged[i] or res.diverged[i + 1]):
            records[i].metrics["iterate_gap"] = float(
                np.linalg.norm(res.x_star[i] - res.x_star[i + 1])
            )
    return resolved, records


# Largest Lipschitz point cloud: its pair count, and so its run time, grows as the square.
_MAX_CLOUD_SIZE = 10_000


def run_lipschitz_table(config: dict | None = None, workers: int = 1):
    """Pairwise Lipschitz estimate of the optimal denoiser per noise level.

    The point cloud is drawn from the noisy prior at each level. An estimate
    above one is reported with a zero ``non_expansive`` flag rather than
    treated as a failure; multimodal priors genuinely exceed one between
    modes at small noise.
    """
    resolved = resolve_config("lipschitz", config)
    prior = _build_prior(resolved)
    with _reading("lipschitz config"):
        sigma_grid = _scale_grid(resolved["sigma_grid"], "sigma_grid")
        cloud_size = int(resolved["cloud_size"])
        seed = int(resolved["seed"])
        denoisers = [MmseDenoiser(prior, sigma) for sigma in sigma_grid]
    if not 2 <= cloud_size <= _MAX_CLOUD_SIZE:
        raise ConfigError(f"cloud_size must lie between 2 and {_MAX_CLOUD_SIZE}")

    records = []
    for index, (sigma, denoiser) in enumerate(zip(sigma_grid, denoisers)):
        _, noisy = prior.sample_pairs(sigma, cloud_size, np.random.SeedSequence([seed, index]))
        lip = estimate_lipschitz(denoiser, noisy)
        records.append(
            ExperimentRecord(
                "lipschitz",
                key=sigma,
                metrics={"lipschitz_max": lip, "non_expansive": float(lip <= 1.0 + 1e-9)},
            )
        )
    return resolved, records


class _Protocol(NamedTuple):
    """How a protocol runs, what its config defaults to, and how its plots are drawn."""

    runner: Callable
    xlabel: str
    log_x: bool
    defaults: dict


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


def run_experiment(name: str, config: dict | None = None, workers: int = 1):
    """Dispatch to the named protocol; returns (resolved config, records)."""
    resolved = resolve_config(name, config)
    return _PROTOCOLS[name].runner(resolved, workers=workers)


# -- artifacts ---------------------------------------------------------------


def _fmt_float(v: float) -> str:
    """Shortest decimal that round-trips to the same double."""
    return repr(float(v))


def write_records_csv(path, records: list[ExperimentRecord], seed: int) -> None:
    """Write records as ``experiment,key,metric,value,runtime_ms,seed`` rows.

    Output is byte-deterministic for a fixed record list: rows are sorted
    stably by key, floats use round-trip-exact decimals, lines end with LF,
    and the runtime column is pinned to zero (measured runtimes live on the
    in-memory records and in the run manifest, never in the CSV).
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
            xlabel=protocol.xlabel,
            ylabel=base,
            log_x=protocol.log_x,
            log_y=log_y,
        )
        paths.append(out)
    return paths

"""Command-line entry point.

Subcommands: ``delta-opt`` (optimal-scale estimate plus the sandwich check),
``run <experiment>`` (CSV/SVG artifacts plus a manifest), and ``selftest``
(fast oracle suite). Exit codes: 0 success, 1 usage, config or I/O error,
2 degenerate denoiser, 3 selftest failure. A command raises its errors, and
:func:`main` alone turns each into its exit code and one line on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
import time
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .analysis import DegenerateDenoiserError, _check_samples, verify_sandwich
from .config import POSITIVE, ConfigError, count
from .denoisers import AffineDenoiser, denoiser_from_config, tweedie_scale
from .experiments import _check_fields, _reading, _records, run_experiment
from .experiments import write_plots, write_records_csv
from .linop import Convolve1d, DenseOperator, Identity, Mask
from .prior import GmmPrior, _check_sigma
from .solver import PnpConfig, averagedness_theta, compose_averaged
from .solver import linear_fixed_point_oracle, pnp_pgd

_ENV_SEED = "PNPLAB_SEED"


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"malformed JSON in {path!r} at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(config, dict):
        raise ConfigError(f"config {path!r} must be a JSON object, got a {type(config).__name__}")
    return config


def _resolve_seed(flag_seed, config: dict) -> int:
    if flag_seed is not None:
        source, value = "--seed", flag_seed
    elif config.get("seed") is not None:
        source, value = "config", config["seed"]
    elif os.environ.get(_ENV_SEED) is not None:
        source, value = _ENV_SEED, os.environ[_ENV_SEED]
    else:
        return 0
    with _reading(source):
        # The environment holds text; every other source holds a number.
        return count(int(value) if source == _ENV_SEED else value, "seed")


def _prepare_out_dir(out: str) -> None:
    """Create ``out`` and probe it with a temporary file, so that an unwritable one fails before any work."""
    os.makedirs(out, exist_ok=True)
    with tempfile.NamedTemporaryFile(prefix=".probe", dir=out):
        pass


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _environment() -> dict:
    """The numpy, Python and BLAS versions and the CPUs this process may run on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    affinity = getattr(os, "sched_getaffinity", None)
    return {
        "numpy": np.__version__,
        "python": platform.python_version(),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "cpu_count": len(affinity(0)) if affinity else os.cpu_count(),
    }


def _write_artifacts(args, name: str, records, resolved: dict, started: str, **extra) -> str:
    """Write ``<name>.csv`` and then ``<name>_manifest.json`` into ``args.out``; returns the CSV path.

    The manifest is written last and moved into place whole, so its presence
    marks a complete set of artifacts. Its ``environment`` block holds the
    facts that change the run's speed but not its output (``_environment``).
    """
    csv_path = os.path.join(args.out, f"{name}.csv")
    write_records_csv(csv_path, records, resolved["seed"])
    manifest = {
        "command": f"run {name}" if args.command == "run" else name,
        "config_path": os.path.abspath(args.config) if args.config else None,
        "resolved_spec": resolved,
        "seed": resolved["seed"],
        "tool_version": __version__,
        "started_at": started,
        "finished_at": _now(),
        "environment": _environment(),
        **extra,
    }
    fd, tmp = tempfile.mkstemp(prefix=".manifest", dir=args.out)
    with os.fdopen(fd, "w", encoding="utf-8") as fh:
        # Compact, because json.dumps then runs the C encoder; indent= would not.
        fh.write(json.dumps(manifest, sort_keys=True))
        fh.write("\n")
    os.replace(tmp, os.path.join(args.out, f"{name}_manifest.json"))
    return csv_path


_DELTA_OPT_FIELDS = ("prior", "denoiser", "sigma", "samples", "seed")


def _cmd_delta_opt(args) -> int:
    config = _load_json(args.config)
    _check_fields(config, _DELTA_OPT_FIELDS, "delta-opt")
    seed = _resolve_seed(args.seed, config)
    started = _now()
    with _reading("delta-opt config"):
        prior = GmmPrior.from_config(config["prior"])
        sigma = _check_sigma(config["sigma"], POSITIVE)
        samples = count(config.get("samples", 100000), "samples")
        _check_samples(samples, prior.dim)
        denoiser = denoiser_from_config(config["denoiser"], prior=prior, sigma=sigma)
    _prepare_out_dir(args.out)
    report = verify_sandwich(denoiser, prior, sigma, samples, seed)
    opt = report.delta_opt
    print(f"delta_opt_sq = {opt.delta_opt_sq!r}")
    print(f"stderr_delta_opt_sq = {opt.stderr_delta_opt_sq!r}")
    print(f"sandwich = {'pass' if report.passed else 'fail'}")
    print(
        f"l2_mmse = {report.l2_mmse.value!r}  l2_scaled = {report.l2_scaled.value!r}  "
        f"l2_base = {report.l2_base.value!r}"
    )
    columns = {
        "delta_opt_sq": [opt.delta_opt_sq],
        "delta_opt_sq_stderr": [opt.stderr_delta_opt_sq],
        "l2_mmse": [report.l2_mmse.value],
        "l2_scaled": [report.l2_scaled.value],
        "l2_base": [report.l2_base.value],
        "sandwich_pass": [report.passed],
    }
    resolved = {**config, "samples": samples, "seed": seed}
    _write_artifacts(args, "delta-opt", _records("delta-opt", [0.0], columns), resolved, started)
    return 0


def _cmd_run(args) -> int:
    config = _load_json(args.config) if args.config else {}
    config["seed"] = _resolve_seed(args.seed, config)
    _prepare_out_dir(args.out)
    started = _now()
    t0 = time.perf_counter()
    resolved, records = run_experiment(args.experiment, config)
    total_ms = (time.perf_counter() - t0) * 1e3
    write_plots(args.experiment, records, args.out)
    csv_path = _write_artifacts(
        args, args.experiment, records, resolved, started, total_runtime_ms=total_ms
    )
    print(f"wrote {csv_path}")
    return 0


def _selftest_checks():
    """The fast oracle suite; each check returns (passed, detail)."""

    def adjoint_consistency():
        rng = np.random.default_rng(7)
        ops = [
            Identity(6),
            Mask(np.array([True, False, True, True, False, True])),
            Convolve1d(np.array([0.5, 0.3, 0.2]), 6),
            DenseOperator(rng.standard_normal((4, 6))),
        ]
        worst = 0.0
        for op in ops:
            for _ in range(100):
                x = rng.standard_normal(op.in_dim)
                y = rng.standard_normal(op.out_dim)
                lhs = float(op.apply(x) @ y)
                rhs = float(x @ op.adjoint(y))
                worst = max(worst, abs(lhs - rhs) / (1.0 + abs(lhs)))
        return worst <= 1e-10, f"max relative defect {worst:.3e}"

    def tweedie_consistency():
        rng = np.random.default_rng(11)
        priors = [
            GmmPrior([1.0], [[0.0, 0.0]], [1.0]),
            GmmPrior([0.5, 0.5], [[-2.0], [2.0]], [0.25, 0.25]),
            GmmPrior([0.3, 0.3, 0.4], rng.standard_normal((3, 4)), [0.5, 1.0, 0.25]),
            # Well separated: most points' posteriors sit on one component, where the
            # posterior mean takes its one-component route and the score stays dense.
            GmmPrior([0.3, 0.3, 0.4], [[-10.0, 0.0], [10.0, 0.0], [0.0, 10.0]], [0.25, 0.25, 0.25]),
        ]
        worst = 0.0
        for prior in priors:
            pts = 3.0 * rng.standard_normal((200, prior.dim))
            a = prior.mmse_denoise(pts, 0.5)
            b = prior.posterior_mean(pts, 0.5)
            dev = np.linalg.norm(a - b, axis=1) / (1.0 + np.linalg.norm(pts, axis=1))
            worst = max(worst, float(dev.max()))
        return worst <= 1e-10, f"max relative deviation {worst:.3e}"

    def averagedness_identity():
        deltas = np.linspace(1.01, 40.0, 100)
        worst = 0.0
        for d in deltas:
            u = 1.0 / (d * d)
            worst = max(worst, abs(compose_averaged(u, 0.5) - averagedness_theta(d)))
        return worst <= 1e-14, f"max identity defect {worst:.3e}"

    def affine_oracle():
        rng = np.random.default_rng(3)
        n = 8
        w = rng.standard_normal((n, n))
        w *= 0.9 / np.linalg.svd(w, compute_uv=False)[0]
        base = AffineDenoiser(w, rng.standard_normal(n))
        op = DenseOperator(rng.standard_normal((n, n)))
        y = rng.standard_normal(n)
        cfg = PnpConfig(tau=1.0 / op.op_norm_sq(), max_iters=50000, tol=1e-13)
        scaled = tweedie_scale(base, np.sqrt(2.0))
        got = pnp_pgd(op, y, scaled, cfg).x_star
        want = linear_fixed_point_oracle(op, y, scaled, cfg)
        rel = float(np.linalg.norm(got - want) / (1.0 + np.linalg.norm(want)))
        return rel <= 1e-8, f"relative gap {rel:.3e}"

    return [
        ("adjoint-consistency", adjoint_consistency),
        ("tweedie-consistency", tweedie_consistency),
        ("averagedness-identity", averagedness_identity),
        ("affine-oracle", affine_oracle),
    ]


def _cmd_selftest(_args) -> int:
    failed = []
    for name, check in _selftest_checks():
        passed, detail = check()
        print(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")
        if not passed:
            failed.append(name)
    if failed:
        print(f"selftest failed: {', '.join(failed)}", file=sys.stderr)
        return 3
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a usage error in one line and exit 1, since exit 2 means a degenerate denoiser.

    Subparsers are built from the parser's own class, so they inherit this.
    """

    def error(self, message):
        self.exit(1, f"usage error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pnplab",
        description="Scaled plug-and-play denoising experiments with closed-form oracles.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_opt = sub.add_parser("delta-opt", help="estimate the optimal scale and check the sandwich")
    p_opt.add_argument("--config", required=True)
    p_opt.add_argument("--out", default=".")
    p_opt.add_argument("--seed", type=int, default=None)
    p_opt.set_defaults(func=_cmd_delta_opt)

    p_run = sub.add_parser("run", help="run an experiment and write CSV/SVG artifacts")
    p_run.add_argument("experiment")
    p_run.add_argument("--config", default=None)
    p_run.add_argument("--out", default=".")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument(
        "--workers", type=int, default=1, help="accepted for compatibility; has no effect"
    )
    p_run.set_defaults(func=_cmd_run)

    p_self = sub.add_parser("selftest", help="run the fast oracle suite")
    p_self.set_defaults(func=_cmd_selftest)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 1
    except DegenerateDenoiserError as exc:
        print(f"degenerate denoiser: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

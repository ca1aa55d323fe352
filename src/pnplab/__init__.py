"""Scaled plug-and-play denoising with closed-form Gaussian-mixture oracles.

The library builds denoisers whose regularisation strength is modulated by a
single positive scale, estimates the loss-optimal value of that scale, runs
the resulting fixed-point reconstructions, and certifies stability and
convergence properties against analytic oracles at desk scale.
"""

__version__ = "0.1.0"

from .analysis import (
    DegenerateDenoiserError,
    DeltaOptEstimate,
    L2Estimate,
    ResidualMoments,
    SandwichReport,
    delta_sweep,
    estimate_delta_opt,
    estimate_l2,
    verify_sandwich,
)
from .denoisers import (
    AffineDenoiser,
    Denoiser,
    MmseDenoiser,
    OutputShrink,
    ScaledDenoiser,
    ShrinkageDenoiser,
    denoiser_from_config,
    estimate_lipschitz,
    gamma_factor,
    homogeneous_scale,
    tweedie_scale,
)
from .experiments import (
    EXPERIMENT_NAMES,
    ConfigError,
    ExperimentRecord,
    resolve_config,
    run_conv_reg,
    run_delta_sweep_experiment,
    run_experiment,
    run_lipschitz_table,
    run_stability,
    write_plots,
    write_records_csv,
)
from .linop import (
    Convolve1d,
    DenseOperator,
    Identity,
    LinearOperator,
    Mask,
    as_signal,
    operator_from_config,
)
from .prior import GmmPrior
from .solver import (
    BatchResult,
    DivergenceError,
    FixedPointResult,
    NoUniqueFixedPointError,
    PnpConfig,
    averagedness_theta,
    compose_averaged,
    linear_fixed_point_oracle,
    pnp_pgd,
    pnp_pgd_batch,
    scaled_affine_map,
)

__all__ = [
    "__version__",
    "AffineDenoiser",
    "BatchResult",
    "ConfigError",
    "Convolve1d",
    "DegenerateDenoiserError",
    "DeltaOptEstimate",
    "Denoiser",
    "DenseOperator",
    "DivergenceError",
    "EXPERIMENT_NAMES",
    "ExperimentRecord",
    "FixedPointResult",
    "GmmPrior",
    "Identity",
    "L2Estimate",
    "LinearOperator",
    "Mask",
    "MmseDenoiser",
    "NoUniqueFixedPointError",
    "OutputShrink",
    "PnpConfig",
    "ResidualMoments",
    "SandwichReport",
    "ScaledDenoiser",
    "ShrinkageDenoiser",
    "as_signal",
    "averagedness_theta",
    "compose_averaged",
    "delta_sweep",
    "denoiser_from_config",
    "estimate_delta_opt",
    "estimate_l2",
    "estimate_lipschitz",
    "gamma_factor",
    "homogeneous_scale",
    "linear_fixed_point_oracle",
    "operator_from_config",
    "pnp_pgd",
    "pnp_pgd_batch",
    "resolve_config",
    "run_conv_reg",
    "run_delta_sweep_experiment",
    "run_experiment",
    "run_lipschitz_table",
    "run_stability",
    "scaled_affine_map",
    "tweedie_scale",
    "verify_sandwich",
    "write_plots",
    "write_records_csv",
]

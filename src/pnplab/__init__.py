"""Scaled plug-and-play denoising with closed-form Gaussian-mixture oracles.

The library builds denoisers whose regularisation strength is modulated by a
single positive scale, estimates the loss-optimal value of that scale, runs
the resulting fixed-point reconstructions, and certifies stability and
convergence properties against analytic oracles at desk scale.

The public API is each module's ``__all__``, re-exported here.
"""

__version__ = "0.1.0"

from . import analysis, denoisers, experiments, linop, prior, solver
from .analysis import *
from .denoisers import *
from .experiments import *
from .linop import *
from .prior import *
from .solver import *

__all__ = ["__version__", *analysis.__all__, *denoisers.__all__, *experiments.__all__,
           *linop.__all__, *prior.__all__, *solver.__all__]

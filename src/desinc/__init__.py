"""DE Sinc-collocation solver for initial value problems, with
Jacobi/Gauss-Seidel fixed-point solution of the collocation system and a
convergence analysis of the Gauss-Seidel sweep.  Every public name of the
six modules below is republished here; the CLI, desinc.cli, is not loaded."""

from . import analysis, grid, problems, solver, special, weights
from .analysis import *  # noqa: F403
from .grid import *  # noqa: F403
from .problems import *  # noqa: F403
from .solver import *  # noqa: F403
from .special import *  # noqa: F403
from .weights import *  # noqa: F403

__version__ = "0.1.0"

__all__ = (analysis.__all__ + grid.__all__ + problems.__all__
           + solver.__all__ + special.__all__ + weights.__all__)

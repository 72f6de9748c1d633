"""DE Sinc-collocation solver for initial value problems, with
Jacobi/Gauss-Seidel fixed-point solution of the collocation system and a
convergence analysis of the Gauss-Seidel sweep."""

from .analysis import (
    AssumptionReport,
    GSAnalysis,
    analyze,
    check_assumptions,
    convergence_factor_observed,
    mgs_bound,
    mgs_norm_exact,
)
from .grid import DEGrid, build_grid
from .problems import (
    TestProblem,
    TodaState,
    example1,
    example2,
    example3,
    lv_exact,
    miura_to_lv,
    toda_solve,
)
from .solver import (
    IterationTrace,
    IVProblem,
    NotConvergedError,
    SincSolution,
    evaluate,
    gauss_seidel_sweep,
    jacobi_sweep,
    reference_solution,
    solve,
)
from .special import Interval, dphi_de, j_kernel, phi_de, phi_de_inv, si
from .weights import TriangularSplit, WeightMatrix, build_weights, split

__version__ = "0.1.0"

__all__ = [
    "AssumptionReport", "GSAnalysis", "analyze", "check_assumptions",
    "convergence_factor_observed", "mgs_bound", "mgs_norm_exact",
    "DEGrid", "build_grid",
    "TestProblem", "TodaState", "example1", "example2", "example3",
    "lv_exact", "miura_to_lv", "toda_solve",
    "IterationTrace", "IVProblem", "NotConvergedError", "SincSolution",
    "evaluate", "gauss_seidel_sweep", "jacobi_sweep", "reference_solution", "solve",
    "Interval", "dphi_de", "j_kernel", "phi_de", "phi_de_inv", "si",
    "TriangularSplit", "WeightMatrix", "build_weights", "split",
]

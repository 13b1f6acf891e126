"""Splitting methods for monotone equilibrium problems over closed convex sets.

Find x in C with F(x, y) + G(x, y) >= 0 for every y in C, for two
admissible bifunctions, by a relaxed, inexactness-tolerant
Douglas-Rachford iteration on their resolvents.  Ships the full bridge
between bifunctions and maximally monotone operators, closed-form
resolvents for the structured families, grid oracles for desk-scale
verification, a reference problem corpus, and a CLI.
"""

from .bifunctions import (
    AffineFunction,
    AdmissibilityReport,
    Bifunction,
    Quadratic,
    WeightedL1,
    check_admissibility,
    function_difference,
    generic_bifunction,
    operator_bifunction,
    sum_bifunctions,
    zero_bifunction,
)
from .dr_solver import (
    CONVERGED,
    INNER_FAILURE,
    MAX_ITER,
    IterationTrace,
    SolveResult,
    SolverConfig,
    dr_step,
    equilibrium_certificate,
    equilibrium_gap,
    geometric_errors,
    inverse_square_errors,
    residual_dr,
    solve,
    solve_operator_form,
    zero_errors,
)
from .hilbert import (
    AffineSubspace,
    Ball,
    Box,
    ConvexSet,
    Halfspace,
    IntersectionSet,
    Simplex,
    WholeSpace,
    as_vector,
    inner,
    norm,
    project_box,
    project_simplex,
    sample_points,
)
from .operators import (
    GridSpec,
    IntervalImage,
    MonotoneOperator,
    affine_operator,
    bifunction_from_operator,
    equilibrium_bruteforce,
    normal_cone_operator,
    operator_from_bifunction,
    operator_sum,
    set_distance,
    subdifferential_operator,
    zeros_bruteforce,
)
from .problems import ProblemInstance, corpus, get_problem
from .resolvents import (
    ConvergenceFailure,
    ResolventOracle,
    inner_solve,
    reflect,
    resolve,
    resolvent_map,
    soft_threshold,
)

__version__ = "0.1.0"

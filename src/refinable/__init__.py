"""Support bounds, cascade iteration, and exact lattice evaluation for
multivariate refinable functions.

A refinable (scaling) function solves phi(x) = m * sum_q c_q phi(M x - q)
for an integer dilation matrix M and a finite mask {c_q}.  This package
computes rigorous support bounds for phi, runs the cascade algorithm as a
numerical oracle, and evaluates phi exactly on the dense lattice {M^-j k}
via the transfer-matrix eigenvector method.
"""

from . import errors
from .bounds import (
    Ball,
    Box,
    SupportBound,
    TransformedBox,
    applicable_bounds,
    ball_bound,
    best_bound,
    bound_1d,
    diagonal_bound,
    enclosing_integer_box,
    finite_level_ball,
    general_ball_bound,
    jordan_block_bound,
    jordan_recurrence_table,
    parallelepiped_bound,
)
from .cascade import (
    InitialFunctionKind,
    RealBox,
    SampledFunction,
    ValueTable,
    cascade_step,
    discrete_mass,
    empirical_support,
    fourier_truncated_product,
    initial_samples,
    m0_eval,
    refinement_step,
    read_values,
    run_cascade,
    write_samples,
)
from .checks import Check, run_checks
from .linalg import (
    DilationCheck,
    DilationMatrix,
    IntMatrix,
    JordanStructure,
    Spectrum,
    operator_norm,
)
from .mask import (
    CosetSums,
    Mask,
    Problem,
    coset_sum_report,
    parse_problem,
    problem_from_data,
    serialize_problem,
)
from .pointwise import (
    IntegerValues,
    TransferMatrix,
    build_transfer_matrix,
    candidate_points,
    converged_integer_values,
    export_values,
    integer_values,
    lattice_points_in_bound,
    periodization_check,
    refine_consistency,
    refine_values,
    resolve_values,
    transfer_matrix,
)

__version__ = "0.1.0"

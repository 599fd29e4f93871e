"""Numerical verification laboratory for free motion on the cotangent bundle
of SU(n) and its conjugation quotient.

The package certifies, by finite-dimensional linear algebra at sampled
points, the conservation laws, rank counts, and span dimensions that make
the free system degenerately integrable and keep that structure across the
quotient by simultaneous conjugation, including the explicit SU(2) reduction
to the two-particle trigonometric Sutherland model.
"""

from .groups import (
    H_FD,
    TAU_CONS,
    TAU_EIG,
    TAU_FD,
    TAU_RANK,
    TAU_STRUCT,
    GroupContext,
    ShapeError,
    StructureError,
    adjoint,
    centralizer_basis,
    check_algebra,
    check_group,
    group_exp,
    inner,
    is_regular,
    joint_centralizer_dim,
    lie_bracket,
    norm,
    numerical_rank,
    orthonormal_basis,
    project_algebra,
    random_algebra,
    random_group,
)
from .words import (
    Observable,
    TraceWord,
    evaluate as evaluate_words,
)
from .phase import (
    PhasePoint,
    act,
    evaluate,
    gradients,
    moment_map,
    poisson_bracket,
    random_phase_point,
)
from .free_motion import (
    DoublePoint,
    casimir,
    casimir_gradient,
    casimir_value,
    constants_map,
    constants_map_rank,
    free_flow,
    lie_poisson_double_bracket,
    poisson_map_defect,
    pullback,
)
from .reduction import (
    StratumFlags,
    classify,
    invariant_span_double,
    leaf_codim,
    reduced_hamiltonian_span,
    word_generators,
)
from .apposition import AppositionFrame, MomentSolveError, build_frame, cyclic_shift, solve_moment_equation
from .su2 import (
    GaugeError,
    SliceCoords,
    exceptional_point_audit,
    reduced_dynamics_match,
    regauge_to_slice,
    slice_point,
    sutherland_energy,
)
from .harness import ExperimentConfig, ExperimentReport, run_all, run_check

__version__ = "0.1.0"

"""Semistability certificates for polynomial-valued matrices, block
decompositions of incidence matrices, and uniform sublevel-set integrals."""

from .polycore import (
    GroupElement,
    Poly,
    PolyMatrix,
    SupportSet,
    act_group,
    hs_norm,
    partial_derivative,
    support_set,
)
from .gitnorm import (
    Destabilizer,
    GitEstimate,
    LogWeights,
    SparseVerdict,
    criticality_residual,
    feasible_sigma_interval,
    find_destabilizer,
    git_norm,
    minimize_diagonal,
    polytope_membership,
    sparse_criterion,
)
from .blockdecomp import (
    BlockDecomposition,
    Tile,
    diagonal_shift,
    eliminate,
    has_generic_rank_p,
    tile_map,
    useful_tiles,
    vanishing_degrees,
    verify_block_decomposition,
)
from .tileplan import TilePlan, TilePoint, solve_plan, tile_point
from .sublevel import (
    IntegralEstimate,
    OmegaBasis,
    estimate_integral,
    probe_nondegeneracy,
    sample_omega,
    wedge_norm,
)
from .radon import (
    CurvatureForm,
    RadonProblem,
    SemistabilityVerdict,
    balanced_check,
    build_incidence,
    curvature_form,
    model_exponents,
    semistability_verdict,
    verify_radon_decomposition,
)

__version__ = "0.1.0"

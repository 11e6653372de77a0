"""rankatlas: typical ranks of real 3-tensors, nonsingular bilinear maps and
numerical rank-p certification."""

from .hopf import (
    HashBoundsTable,
    alpha,
    bit_disjoint,
    build_bounds_table,
    circ,
    rho,
    stiefel_hopf,
    tau,
)
from .pencil import (
    MarginBudget,
    ProblemDims,
    RankDropPoint,
    RootCount,
    Tensor3,
    afcr_margin,
    contract_pencil,
    corner_root_count,
    flatten,
    is_afcr,
    kernel_vector_psi,
    minor,
    pluecker_residual,
    rank_drop_search,
)
from .bilinear import (
    BilinearMap,
    as_tensor,
    convolve,
    from_tensor,
    hypercomplex_mult,
    nonsingularity_margin,
    restrict,
)
from .certify import (
    CertifyBudget,
    Inconclusive,
    RankCertificate,
    RankExceedsP,
    RankP,
    certify,
    decompose,
    iota,
    iota_tensor,
    nu,
    phi,
    sigma,
)
from .classify import TrankResult, classify
from .experiments import (
    ExperimentConfig,
    als_fit,
    run_experiment,
    sample_gaussian_tensor,
    terracini_generic_rank,
)

__version__ = "0.1.0"

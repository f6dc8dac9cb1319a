"""Exact synthesis and verification of boundary structures for differential
operator pairs on an interval.

The package turns matrix differential-operator descriptions of
power-conserving and energy-storing relations into explicit boundary data:
boundary maps, pairing matrices with exact signatures, power splits, and
finite-dimensional state realizations, all over exact rational arithmetic.
Verification runs on random polynomial trajectories where every integral
is exact, so structural identities are checked to literal zero.
"""

from .algebra import (
    NEG_INF,
    AllZeroError,
    InconsistentSystemError,
    Inertia,
    NotSkewError,
    NotSymmetricError,
    Poly,
    PolyMatrix,
    RatMatrix,
    UnderdeterminedSystemError,
    as_rat,
    full_rank_everywhere,
    inertia_congruence,
    polynomial_kernel_basis,
    rank_factorization,
    skew_canonical_congruence,
    solve_linear,
)
from .twovar import (
    DimensionMismatchError,
    NotDivisibleError,
    TwoVarPolyMatrix,
    div_zeta_plus_eta,
    factor_general,
    factor_skew,
    factor_symmetric,
)
from .dirac import (
    DEFAULT_SPLIT_TOLERANCE,
    BoundaryStructure,
    ConditionReport,
    DiracConditionError,
    DiracPair,
    ImageRep,
    PowerSplit,
    SplitToleranceError,
    UnbalancedSignatureError,
    boundary_structure,
    canonical_power_split,
    dirac_condition_reports,
    image_representation,
    skew_adjoint_residual,
    skew_adjoint_structure,
    two_point_form,
    validate_dirac_pair,
    validate_skew_adjoint,
)
from .constrained import (
    ConstrainedSample,
    ConstrainedStructure,
    EmptyKernelError,
    NotSkewAdjointError,
    constrained_boundary,
    constrained_sample,
    constrained_balance_form,
)
from .lagrange import (
    LagrangeBoundary,
    LagrangeImageRep,
    LagrangePair,
    RankConditionFailed,
    SymmetryConditionFailed,
    lagrange_boundary,
    lagrange_condition_reports,
    storage_balance_form,
    validate_lagrange_pair,
)
from .realize import (
    IdentityCheck,
    NoneFoundError,
    NonUniqueSolutionError,
    Realization,
    StructureIdentityReport,
    SwapIndexError,
    UnsolvableError,
    partition_search,
    realize,
    verify_realization_structure,
)
from .harness import (
    DEFAULT_DEGREES,
    DEFAULT_TRIALS,
    Trajectory,
    VerificationReport,
    constrained_suite,
    dirac_suite,
    lagrange_suite,
    random_latent,
)

__version__ = "0.1.0"

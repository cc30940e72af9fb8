"""Exact-arithmetic decision tools for Thurston obstructions.

The package answers obstruction-theoretic questions about postcritically
finite branched self-covers of the sphere using rational arithmetic only:
orbifold signatures from critical portraits, exact spectral trichotomies
of nonnegative matrices, slope pullback dynamics of torus-quotient maps,
and curve-table analysis of declared pullback combinatorics.
"""

from .orbifold import (
    INFINITE_WEIGHT,
    PARABOLIC_SIGNATURES,
    CriticalPortrait,
    OrbifoldClass,
    OrbifoldSignature,
    PortraitPoint,
    classify_orbifold,
    euler_characteristic,
    is_2222,
    ramification_function,
)
from .slopes import (
    EigenvalueClass,
    EqualIntegers,
    NonIntegerOrComplex,
    ObstructionSlope,
    Slope,
    SlopeOrbit,
    SlopePullback,
    TorusQuotientMap,
    TwoDistinctIntegers,
    canonical_obstruction_2222,
    eigenvalue_classification,
    enumerate_slopes,
    find_obstruction_by_search,
    normalize,
    orbit_of_slope,
    pullback_slope,
    slope_multiplier,
)
from .spectral import (
    BlockStructure,
    ImprimitiveDecomposition,
    NonnegMatrix,
    PreconditionError,
    SpectralClass,
    SpectralTag,
    below_one_closed_indices,
    charpoly,
    exists_positive_subinvariant_vector,
    imprimitive_block_decomposition,
    imprimitivity_index,
    is_irreducible,
    is_primitive,
    leading_eigenvalue_interval,
    power_positive_exponent,
    scc_partition,
    spectral_radius_class,
    spectral_tag,
    wielandt_bound,
)
from .tables import (
    INESSENTIAL,
    UNTRACKED,
    CanonicalCandidateReport,
    ComponentVerdict,
    CurveClass,
    CurveTable,
    DecompositionComponent,
    MinimalObstructionSearch,
    MulticurveClassification,
    ObstructionReport,
    PullbackComponent,
    Return2222,
    ReturnGeneral,
    ReturnHomeomorphism,
    analyze_table,
    check_canonical_candidate,
    classify_multicurve,
    curve_order,
    extract_simple_core,
    find_levy_cycles,
    find_minimal_obstructions,
    is_completely_invariant,
    is_invariant,
    is_simple_obstruction,
    thurston_matrix,
)

__version__ = "0.1.0"

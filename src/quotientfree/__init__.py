"""Exact densities and extremal cardinalities of quotient-free integer sets."""

from .arith import (
    CoprimeBasis,
    RationalSet,
    SmoothSequence,
    as_fraction,
    coprime_part_list,
    count_coprime_part,
    derive_basis,
    enumerate_smooth,
    exact_sum,
    first_smooth_entries,
    phi,
    smooth_stream,
)
from .density import (
    DenseSetSample,
    DensityBracket,
    DensityRow,
    GapReport,
    construct_dense_set,
    empirical_densities,
    max_subset_count,
    rho_closed_form,
    rho_general,
    sigma_series,
    strict_gap_check,
)
from .errors import (
    BudgetError,
    CapError,
    DomainError,
    PrecisionError,
    SelfCheckError,
    SweepError,
)
from .geometry import (
    BlackMajoritySearch,
    ColorCount,
    ExactReal,
    LatticeConfig,
    ProfileRow,
    SimplexSpec,
    find_black_majority_c,
    rational_slope_profile,
    simplex_color_counts,
    simplex_points,
)
from .lattice import (
    AXIS_DIFFS,
    CheckerboardSplit,
    GammaBracket,
    IndependentSetResult,
    SKEW_TRIANGLE_COUNTEREXAMPLE,
    checkerboard_split,
    f_via_checkerboard,
    gamma_bracket,
    max_difference_free,
    monochromatize,
    point_color,
    white_weight_value,
)
from .rng import CounterRng, splitmix64

__version__ = "0.1.0"

"""Squarefree principal Borel ideals and their associated primes.

Exact combinatorial machinery for monomial ideals generated by a single
Borel generator: expansions and powers, monomial localizations, linear
quotients and depth, stability indices of primes, and the stable set of
associated primes, together with a brute-force oracle that cross-checks
every closed form.
"""

from .assprimes import (
    AssProfile,
    CrossValidationError,
    CrossValidationReport,
    IrreducibleComponent,
    PersistenceReport,
    ResourceLimitError,
    ass_profile,
    associated_primes,
    cross_validate,
    irreducible_decomposition,
    m_in_ass,
    persistence_scan,
)
from .borel import (
    NotPrincipalError,
    borel_closure,
    expand_squarefree,
    extract_borel_generator,
    is_power_generator,
    is_strongly_stable,
    power_generators,
)
from .localization import (
    LocalizedGenerator,
    VariableSubset,
    localize_by_saturation,
    localize_closed_form,
    localized_expansion,
    parse_subset,
)
from .monomials import (
    GroundSet,
    GroundSetMismatch,
    Monomial,
    MonomialIdeal,
    SquarefreeMonomial,
    colon,
    ideal_power,
    minimalize,
    parse_monomial,
    parse_squarefree,
    saturate,
)
from .quotients import (
    QuotientProfile,
    depth_zero_witness,
    quotient_profile,
)
from .stability import (
    INFINITE,
    IntervalDecomposition,
    StableSetEntry,
    cover_positions,
    ever_associated,
    interval_decomposition,
    lambda_max_ideal,
    lambda_of_prime,
    lambda_value_witness,
    stable_membership_combinatorial,
    stable_set_enumerate,
)

__version__ = "0.1.0"

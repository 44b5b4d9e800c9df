"""Squarefree principal Borel ideals and their associated primes.

Exact combinatorial machinery for monomial ideals generated by a single
Borel generator: expansions and powers, monomial localizations, linear
quotients and depth, stability indices of primes, and the stable set of
associated primes, together with a brute-force oracle that cross-checks
every closed form.

Importing the package loads none of its modules.  Each name below is
resolved on first use, through the module-level ``__getattr__`` of
PEP 562, by importing the one module that defines it; so a CLI verb pays
only for the modules it runs.
"""

import importlib

# module -> the names the package exports from it: the package's one
# export list, as the modules keep no ``__all__``
_EXPORTS = {
    "assprimes": """AssProfile CrossValidationReport PersistenceReport ass_profile
        associated_primes cross_validate irreducible_decomposition m_in_ass persistence_scan""",
    "borel": """NotPrincipalError borel_closure expand_squarefree extract_borel_generator
        is_power_generator power_generators""",
    "localization": """VariableSubset localize_by_saturation localize_closed_form
        localized_expansion parse_subset""",
    "monomials": """CrossValidationError GroundSet GroundSetMismatch Monomial MonomialIdeal
        ResourceLimitError SquarefreeMonomial colon ideal_power minimalize parse_monomial
        parse_squarefree saturate""",
    "quotients": "QuotientProfile depth_zero_witness quotient_profile",
    "stability": """INFINITE IntervalDecomposition StableSetEntry ever_associated
        interval_decomposition lambda_max_ideal lambda_of_prime lambda_value_witness
        stable_membership_combinatorial stable_set_enumerate""",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})

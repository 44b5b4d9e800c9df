"""Stable JSON encoding (schema version 1) for every library result.

Monomials become ``{"index": exponent}`` objects with string keys, primes
become sorted label arrays, and an infinite stability index becomes the
string ``"inf"``.  The encoders only write: no verb reads JSON back, and
the CLI goldens pin every encoder's output byte for byte.  Every result
about one generator ``u`` opens with the same header, ``schema``, ``u``
and ``n``, built in one place.
"""

from __future__ import annotations

import json
import math
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from .assprimes import AssProfile, CrossValidationReport, PersistenceReport
    from .localization import LocalizedGenerator
    from .monomials import Monomial, MonomialIdeal, SquarefreeMonomial
    from .quotients import QuotientProfile
    from .stability import StableSetEntry

SCHEMA_VERSION = 1


def monomial_to_obj(w: Monomial) -> dict[str, int]:
    return {str(i): e for i, e in w.exps}


def squarefree_to_obj(u: SquarefreeMonomial) -> dict[str, int]:
    return monomial_to_obj(u.to_monomial())


def lambda_to_obj(value: int | float) -> int | str:
    return "inf" if value == math.inf else int(value)


def _header(u: SquarefreeMonomial, **fields: Any) -> dict[str, Any]:
    """``schema``, ``u`` and ``n``, then ``fields`` in their order."""
    return {"schema": SCHEMA_VERSION, "u": squarefree_to_obj(u), "n": len(u.ground), **fields}


def max_ideal_to_obj(u: SquarefreeMonomial, key: str, value: Any) -> dict[str, Any]:
    """One encoded value of the maximal ideal, the ``lambda`` or the
    ``ever_associated`` verdict, after the header of ``u``."""
    return _header(u, **{key: value})


def ideal_to_obj(J: MonomialIdeal) -> dict[str, Any]:
    return {
        "schema": SCHEMA_VERSION,
        "ground": list(J.ground.indices),
        "generators": [monomial_to_obj(g) for g in J.generators],
    }


def entry_to_obj(entry: StableSetEntry) -> dict[str, Any]:
    ua = {str(i): 1 for i in entry.generator.indices}
    return {
        "A": list(entry.subset),
        "uA": ua,
        "prime": list(entry.prime),
        "member": entry.member,
        "lambda": lambda_to_obj(entry.stability_index),
    }


def stable_set_to_obj(u: SquarefreeMonomial, entries) -> dict[str, Any]:
    return _header(u, entries=[entry_to_obj(e) for e in entries])


def localization_to_obj(
    u: SquarefreeMonomial,
    A,
    local: LocalizedGenerator,
    expansion: MonomialIdeal | None,
) -> dict[str, Any]:
    return {
        "schema": SCHEMA_VERSION,
        "u": squarefree_to_obj(u),
        "A": list(A.members),
        "uA": {str(i): 1 for i in local.indices},
        "ground": list(local.ground),
        "unit_ideal": local.is_unit_ideal,
        "generators": [monomial_to_obj(g) for g in expansion.generators]
        if expansion is not None
        else [],
    }


def quotient_profile_to_obj(u: SquarefreeMonomial, profile: QuotientProfile) -> dict[str, Any]:
    return _header(
        u,
        k=profile.k,
        colon_sets=[sorted(s) for s in profile.colon_sets],
        q=profile.q,
        depth=profile.depth,
        m_in_ass=profile.m_in_ass,
    )


def ass_profile_to_obj(profile: AssProfile) -> dict[str, Any]:
    powers = []
    for k in range(1, profile.kmax + 1):
        witnesses = profile.witnesses_by_power[k - 1]
        powers.append(
            {
                "k": k,
                "primes": [list(p) for p in profile.primes_at(k)],
                "witnesses": [
                    {"prime": list(p), "witness": monomial_to_obj(w)}
                    for p, w in witnesses
                ],
            }
        )
    return _header(profile.u, kmax=profile.kmax, powers=powers, stable_from=profile.stable_from)


def persistence_to_obj(report: PersistenceReport) -> dict[str, Any]:
    violations = [{"k": k, "prime": list(p)} for k, p in report.violations]
    return _header(report.u, kmax=report.kmax, violations=violations, ok=report.ok)


def cross_validation_to_obj(report: CrossValidationReport) -> dict[str, Any]:
    checks = {
        "depth": report.depth_checks,
        "localization": report.localization_checks,
        "membership": report.membership_checks,
        "sharpness": report.sharpness_checks,
    }
    return _header(report.u, kmax=report.kmax, checks=checks, ok=True)


def emit(obj: Any) -> str:
    """Serialize an already-encoded object deterministically."""
    return json.dumps(obj, indent=2, sort_keys=False)


__all__ = [
    "SCHEMA_VERSION",
    "ass_profile_to_obj",
    "cross_validation_to_obj",
    "emit",
    "entry_to_obj",
    "ideal_to_obj",
    "lambda_to_obj",
    "localization_to_obj",
    "max_ideal_to_obj",
    "monomial_to_obj",
    "persistence_to_obj",
    "quotient_profile_to_obj",
    "squarefree_to_obj",
    "stable_set_to_obj",
]

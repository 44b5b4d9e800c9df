"""What a CLI process loads, verb by verb, and the package's lazy exports."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import borelstab

SRC = str(Path(borelstab.__file__).resolve().parents[1])

# The names the package exported when it still imported every module, less
# ``LocalizedGenerator``: a localized generator is a ``SquarefreeMonomial``;
# less ``IrreducibleComponent``: a component is its exponent vector; and
# less ``is_strongly_stable`` and ``cover_positions``: referees with no
# caller in the package, which live in ``tests/conftest.py``.
EXPORTS = [
    "AssProfile", "CrossValidationError", "CrossValidationReport",
    "PersistenceReport", "ResourceLimitError", "ass_profile", "associated_primes",
    "cross_validate", "irreducible_decomposition", "m_in_ass", "persistence_scan",
    "NotPrincipalError", "borel_closure", "expand_squarefree", "extract_borel_generator",
    "is_power_generator", "power_generators", "VariableSubset",
    "localize_by_saturation", "localize_closed_form", "localized_expansion",
    "parse_subset", "GroundSet", "GroundSetMismatch", "Monomial", "MonomialIdeal",
    "SquarefreeMonomial", "colon", "ideal_power", "minimalize", "parse_monomial",
    "parse_squarefree", "saturate", "QuotientProfile", "depth_zero_witness",
    "quotient_profile", "INFINITE", "IntervalDecomposition", "StableSetEntry",
    "ever_associated", "interval_decomposition", "lambda_max_ideal",
    "lambda_of_prime", "lambda_value_witness", "stable_membership_combinatorial",
    "stable_set_enumerate",
]  # fmt: skip

EVERY_VERB = {"cli", "jsonio", "monomials"}
STABILITY = {"localization", "stability"}
EVERYTHING = {"assprimes", "borel", "localization", "quotients", "stability"}
LOADS = {
    "expand": {"borel"},
    "power": {"borel"},
    "localize": {"borel", "localization"},
    "colon-profile": {"borel", "quotients"},
    "lambda": STABILITY,
    "ever-associated": STABILITY,
    "stable-set": STABILITY,
    "table": STABILITY,
    "ass": EVERYTHING,
    "persist": EVERYTHING,
    "validate": EVERYTHING,
}
ARGS = {
    "expand": ["--k", "2"],
    "power": ["--k", "2"],
    "localize": ["--A", "1"],
    "colon-profile": ["--k", "2"],
    "ass": ["--kmax", "2"],
    "persist": ["--kmax", "2"],
    "validate": ["--kmax", "2"],
}

# Run one request in a fresh interpreter and report the modules it added.
PROBE = """
import io, json, sys
before = set(sys.modules)
{body}
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def loaded(body, *argv):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE.format(body=body), *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


@pytest.mark.parametrize("verb", list(LOADS))
def test_verb_loads_only_what_it_runs(verb):
    argv = [verb, "--u", "2,3", "--n", "3", *ARGS.get(verb, [])]
    body = "from borelstab.cli import run\nif run(sys.argv[1:], out=io.StringIO()):\n    sys.exit(1)"
    new = loaded(body, *argv)
    ours = {m for m in new if m == "borelstab" or m.startswith("borelstab.")}
    expected = {"borelstab", *(f"borelstab.{m}" for m in EVERY_VERB | LOADS[verb])}
    assert ours == expected
    assert not new & {"dataclasses", "inspect"}


def test_bare_import_loads_no_module():
    new = loaded("import borelstab")
    assert {m for m in new if m.startswith("borelstab")} == {"borelstab"}


def test_all_is_the_former_export_list():
    assert sorted(borelstab.__all__) == sorted(EXPORTS)
    assert len(set(borelstab.__all__)) == len(borelstab.__all__)


def test_every_export_resolves():
    listed = dir(borelstab)
    for name in EXPORTS:
        namespace = {}
        exec(f"from borelstab import {name}", namespace)
        assert getattr(borelstab, name) is namespace[name], name
        assert name in listed, name


def test_exceptions_keep_their_public_homes():
    from borelstab import monomials

    namespace = {}
    exec("from borelstab.assprimes import *", namespace)
    assert namespace["ResourceLimitError"] is monomials.ResourceLimitError
    assert namespace["CrossValidationError"] is monomials.CrossValidationError


def test_one_export_list():
    # _EXPORTS is the package's only list of public names: no module it
    # names keeps an __all__ that could drift from it
    for module in borelstab._EXPORTS:
        assert not hasattr(importlib.import_module(f"borelstab.{module}"), "__all__"), module


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        borelstab.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        exec("from borelstab import no_such_name", {})

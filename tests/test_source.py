"""Source-level rules for the package."""

import ast
import importlib
import inspect
from pathlib import Path

import borelstab
from borelstab import Monomial, MonomialIdeal

PACKAGE = Path(borelstab.__file__).parent
BENCH = Path(__file__).resolve().parents[1] / "bench"
BENCH_SPANS = BENCH / "spans.py"
BENCH_CHECKS = BENCH / "checks.py"


def test_no_bare_asserts():
    # ``python -O`` strips assert statements, so correctness checks in the
    # library must raise explicitly
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def callers(name):
    """The package functions, as ``module.function``, that call ``name``."""
    found = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        for function in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(function):
                if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == name:
                    found.add(f"{path.stem}.{function.name}")
    return found


def test_one_walk_over_the_subsets():
    # stable_set_enumerate is the one walk over the 2^n subsets; every other
    # scan reads its rows
    assert callers("combinations") == {"stability.stable_set_enumerate"}


def test_subsets_built_in_two_places():
    # a VariableSubset computes its complement once; the package builds
    # one from text and one per row of the walk, and every other function
    # reads the complement of a subset it is given
    assert callers("VariableSubset") == {
        "localization.parse_subset",
        "stability.stable_set_enumerate",
    }


def test_oracle_builds_no_ideal():
    # the oracle's kernels read lists of exponent vectors: after the
    # expansion of u, no function in assprimes builds an ideal or a ground set
    builders = {"MonomialIdeal", "GroundSet", "_Minimal"}
    found = {(name, f) for name in builders for f in callers(name) if f.startswith("assprimes.")}
    assert not found, found


def test_package_ideals_enter_as_minimal():
    # every ideal the package builds passes a _Minimal list, the door that
    # takes its vectors as they are: one from the minimality rule, from
    # the Borel walk (minimal by its proof) or the last power _powers built
    # with the rule.  Only the rule and the walk build one.  The entry rule
    # of a caller's list is Monomial's own, in one function
    calls = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "MonomialIdeal":
                calls.append((path.name, node.lineno, ast.unparse(node.args[1])))
    assert calls
    marked = ("_minimal_vectors(", "_dominating_vectors(", "_powers(")
    unmarked = [c for c in calls if not c[2].startswith(marked)]
    assert not unmarked, unmarked
    assert callers("_Minimal") == {"borel._dominating_vectors", "monomials._minimal_vectors"}
    assert callers("_checked_vector") == {"monomials.__post_init__", "monomials._ideal_vectors"}
    assert "_checked_vector" in inspect.getsource(Monomial.__post_init__)


def test_one_product_route():
    # _powers is the one route from J to its powers: the two oracle scans
    # read its vector lists, and ideal_power wraps the last one
    assert callers("_powers") == {
        "assprimes._profile_and_powers",
        "assprimes.cross_validate",
        "monomials.ideal_power",
    }


def test_one_socle_split():
    # the witnesses and the m-test read the socle primes off one
    # depth-first split, which keeps at most n + 1 parts alive
    assert callers("_split") == {"assprimes._witnesses", "assprimes._m_in_ass"}


def submodule(module, name):
    """The module ``module.name``, or None when ``name`` is not a submodule."""
    try:
        return importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return None


def bench_checks_names():
    """``(module, name)`` for each name ``bench/checks.py`` imports from the
    package, and for each attribute it reads off an imported module."""
    tree = ast.parse(BENCH_CHECKS.read_text(), str(BENCH_CHECKS))
    imported, modules = [], {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "borelstab":
            for alias in node.names:
                imported.append((node.module, alias.name))
                if submodule(node.module, alias.name):
                    modules[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    read = {
        (modules[node.value.id], node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
    }
    return imported + sorted(read)


def test_names_the_bench_reads_exist():
    # the benchmark wraps the functions in its TRACED table and reads two
    # vector methods; its answer checks import names from the package and
    # read attributes of its modules (stability.ever_associated,
    # jsonio.ideal_to_obj, ...).  Read both files without importing the
    # benchmark, so a deleted name fails here and not only in the benchmark run
    tree = ast.parse(BENCH_SPANS.read_text(), str(BENCH_SPANS))
    (traced,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "TRACED"
    ]
    names = [(f"borelstab.{module}", name) for module, names in traced.items() for name in names]
    checks = bench_checks_names()
    assert ("borelstab.stability", "ever_associated") in checks
    missing = [
        f"{module}.{name}"
        for module, name in names + checks
        if not hasattr(importlib.import_module(module), name) and not submodule(module, name)
    ]
    assert not missing, missing
    assert hasattr(MonomialIdeal, "generator_vectors")
    assert hasattr(Monomial, "exponent_vector")

"""Source-level rules for the package."""

import ast
import importlib
from pathlib import Path

import borelstab
from borelstab import Monomial, MonomialIdeal

PACKAGE = Path(borelstab.__file__).parent
BENCH_SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_no_bare_asserts():
    # ``python -O`` strips assert statements, so correctness checks in the
    # library must raise explicitly
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_names_the_bench_reads_exist():
    # the benchmark wraps the functions in its TRACED table and reads two
    # vector methods; read the table without importing the benchmark, so a
    # deleted name fails here and not only in the benchmark run
    tree = ast.parse(BENCH_SPANS.read_text(), str(BENCH_SPANS))
    (traced,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "TRACED"
    ]
    missing = [
        f"{module}.{name}"
        for module, names in traced.items()
        for name in names
        if not hasattr(importlib.import_module(f"borelstab.{module}"), name)
    ]
    assert not missing, missing
    assert hasattr(MonomialIdeal, "generator_vectors")
    assert hasattr(Monomial, "exponent_vector")

"""Source-level rules for the package."""

import ast
from pathlib import Path

import borelstab

PACKAGE = Path(borelstab.__file__).parent


def test_no_bare_asserts():
    # ``python -O`` strips assert statements, so correctness checks in the
    # library must raise explicitly
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found

"""The ``## Quick start`` block of README.md runs, and gives the values its
comments state."""

import ast
import math
from pathlib import Path

from borelstab import GroundSet, SquarefreeMonomial

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start_values(capsys):
    """Run the block statement by statement; map the source of each bare
    expression to its value, and return that map and the printed text."""
    section = README.read_text().split("## Quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace, values = {}, {}
    for stmt in ast.parse(code).body:
        if isinstance(stmt, ast.Expr):
            expr = compile(ast.Expression(stmt.value), str(README), "eval")
            values[ast.get_source_segment(code, stmt.value)] = eval(expr, namespace)
        else:
            exec(compile(ast.Module([stmt], []), str(README), "exec"), namespace)
    return values, capsys.readouterr().out


def test_quick_start(capsys):
    values, printed = quick_start_values(capsys)
    assert len(values["expand_squarefree(u)"]) == 4
    assert values["lambda_max_ideal(u)"] == math.inf
    local = values["localize_closed_form(u, VariableSubset(g, (1, 2)))"]
    assert local == SquarefreeMonomial(GroundSet((3, 4, 5)), (4, 5))
    assert values["[len(profile.primes_at(k)) for k in (1, 2, 3)]"] == [7, 11, 12]
    assert len(printed.splitlines()) == 12  # one line per member of the stable set

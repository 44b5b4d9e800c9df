"""Each demo under ``demos/`` runs in a fresh interpreter and prints
exactly its golden stdout (``tests/data/demo_goldens.json``)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import borelstab

ROOT = Path(__file__).resolve().parents[1]
SRC = str(Path(borelstab.__file__).resolve().parents[1])
GOLDENS = json.loads((ROOT / "tests" / "data" / "demo_goldens.json").read_text())


def test_every_demo_has_a_golden():
    assert sorted(GOLDENS) == sorted(p.name for p in (ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", sorted(GOLDENS))
def test_demo_output(demo):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == GOLDENS[demo]

"""Every demo script runs to completion against the package under test."""

from pathlib import Path

import pytest

from helpers import run_python

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    proc = run_python([demo], tmp_path)
    assert proc.returncode == 0, proc.stderr

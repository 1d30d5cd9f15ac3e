"""EXPERIMENTS.md is what its generator renders from the committed results."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def generator():
    path = ROOT / "tools" / "make_experiments_md.py"
    spec = importlib.util.spec_from_file_location("make_experiments_md", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_committed_file_matches_render(generator):
    assert generator.render() == (ROOT / "EXPERIMENTS.md").read_text()


@pytest.mark.parametrize(
    ("values", "verdict"),
    [
        ([0.0, 0.031], "below the paper's range"),
        ([0.2, 0.3], "above the paper's range"),
        ([0.05, 0.2], "bracketing the paper's range"),
        ([0.05, 0.15], "reaching below the paper's range"),
        ([0.1, 0.2], "reaching above the paper's range"),
        ([0.1, 0.15], "inside the paper's range"),
    ],
)
def test_range_verdicts(generator, values, verdict):
    assert generator.versus(values, 0.094, 0.176) == verdict

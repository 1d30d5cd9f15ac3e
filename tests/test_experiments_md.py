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


ROWS = [
    {"model": "a", "ad": 3.0, "ls": 2.0, "rammer": 1.0, "x": 0.5},
    {"model": "b", "ad": 3.0, "ls": 1.0, "rammer": 2.0, "x": 1.5},
]
COLUMNS = [("AD", "ad"), ("Rammer", "rammer"), ("LS", "ls")]


def test_below_one_names_each_losing_ratio(generator):
    assert generator.below_one(ROWS, [("AD/X", "x")]) == ["AD/X 0.500x on `a`"]
    assert generator.below_one(ROWS[1:], [("AD/X", "x")]) == []


def test_ranking_orders_each_row(generator):
    assert generator.ranking(ROWS[:1], COLUMNS) == "AD > LS > Rammer on every workload"
    assert generator.ranking(ROWS, COLUMNS) == (
        "AD > LS > Rammer on `a`; AD > Rammer > LS on `b`"
    )


def test_committed_verdicts_follow_the_rows():
    """The Fig. 8 and Fig. 14 verdicts say what their tables show."""
    text = (ROOT / "EXPERIMENTS.md").read_text()
    assert "AD/IL-Pipe 0.867x on `resnet50_bench`" in text
    assert "Measured order: AD > LS > Rammer on every workload" in text

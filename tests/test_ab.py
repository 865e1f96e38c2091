"""Tests for the paired A/B benchmark script's verdict rule (``scripts/ab.py``)."""

import importlib.util
import pathlib

import pytest

_SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "ab.py"
_spec = importlib.util.spec_from_file_location("ab", _SCRIPT)
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

# Ten parent runs: median 10.0, quartiles 9.625 and 10.375 (IQR 0.75).
PARENT = [9.0, 9.5, 9.5, 10.0, 10.0, 10.0, 10.0, 10.5, 10.5, 11.0]


def shifted(delta, losses=0):
    """The parent runs moved by ``delta``; the first ``losses`` pairs
    instead move by ``-delta`` (the change loses those pairs)."""
    return [p - delta if i < losses else p + delta for i, p in enumerate(PARENT)]


@pytest.mark.parametrize(
    "change, better, bound, expected",
    [
        # A/A: the same samples win no pair and move no median.
        (PARENT, "lower", 0.25, "unresolved"),
        (PARENT, "higher", 0.25, "unresolved"),
        # Past the bound in the bad direction, whichever way is better.
        (shifted(3.0), "lower", 0.25, "worse"),
        (shifted(-3.0), "higher", 0.25, "worse"),
        # Worse, but within the bound: not a verdict of its own.
        (shifted(2.0), "lower", 0.25, "unresolved"),
        # No bound: never worse.
        (shifted(30.0), "lower", None, "unresolved"),
        # Ten wins and a gap larger than the parent's IQR.
        (shifted(-1.5), "lower", 0.25, "better"),
        (shifted(1.5), "higher", 0.25, "better"),
        # Nine of ten wins suffice; eight do not.
        (shifted(-1.5, losses=1), "lower", 0.25, "better"),
        (shifted(-1.5, losses=2), "lower", 0.25, "unresolved"),
        # Every pair won, but the gap is inside the parent's spread.
        (shifted(-0.5), "lower", 0.25, "unresolved"),
    ],
)
def test_verdict_rule(change, better, bound, expected):
    assert ab.verdict(PARENT, change, better, bound) == expected


def test_a_gain_needs_ten_pairs():
    assert ab.verdict(PARENT[:9], shifted(-1.5)[:9], "lower", 0.25) == "unresolved"


def test_ties_count_for_neither_side():
    change = shifted(-1.5)
    change[:2] = PARENT[:2]
    row = ab.summarise({"name": "m", "better": "lower", "bound": 0.25}, PARENT, change)
    assert row["wins"] == 8
    assert row["verdict"] == "unresolved"


def test_ratio_interval_brackets_the_median_ratio():
    ratio, low, high = ab.ratio_interval(PARENT, shifted(1.0))
    assert low <= ratio <= high
    assert ab.ratio_interval(PARENT, [2 * p for p in PARENT]) == (2.0, 2.0, 2.0)


def test_cpu_seconds_are_reported_not_judged():
    row = ab.summarise(ab.CPU_METRIC, PARENT, shifted(30.0))
    assert row["verdict"] == "not judged"

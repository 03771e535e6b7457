"""The paired-seed comparison tool, ``tools/paired.py``."""

import math
import sys
from pathlib import Path

import pytest
from scipy import stats

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import paired  # noqa: E402


def test_one_arm_run_twice_gives_zero_differences():
    a, b = (paired.run_arm(str(ROOT), "mvsparse", [1, 2], 10, None) for _ in range(2))
    assert [r["report_sha256"] for r in a["runs"]] == [r["report_sha256"] for r in b["runs"]]
    for row in paired.compare(a, b):
        assert row["diffs"] == [0, 0]
        assert (row["mean"], row["low"], row["high"], row["wins"]) == (0, 0, 0, 0)


def test_interval_matches_a_hand_computed_example():
    # differences 1, 2, 3, 4: mean 2.5, sample variance (2.25 + 0.25 + 0.25
    # + 2.25) / 3 = 5/3, standard error sqrt(5/3) / 2 = 0.6454972, and
    # t(0.975, 3) = 3.182446, so the half-width is 2.0542610
    mean, low, high = paired.interval([1.0, 2.0, 3.0, 4.0])
    assert mean == 2.5
    assert low == pytest.approx(2.5 - 2.0542610, abs=1e-6)
    assert high == pytest.approx(2.5 + 2.0542610, abs=1e-6)
    assert all(math.isnan(x) for x in paired.interval([3.0])[1:])


def test_t_table_matches_scipy():
    for df in range(1, len(paired.T975) + 1):
        assert paired.t975(df) == pytest.approx(stats.t.ppf(0.975, df), abs=5e-7)
    # past the table the interval only widens
    assert all(paired.t975(df) >= stats.t.ppf(0.975, df) for df in (31, 60, 1000))
    with pytest.raises(ValueError):
        paired.t975(0)


def test_wins_follow_each_figures_direction():
    def arm(**figures):
        return {"runs": [{"seed": 1, **{name: 0.0 for name, _, _ in paired.FIGURES}, **figures}]}

    # higher MODA and fewer blocks are wins for B, the reverse is not
    rows = {r["figure"]: r for r in paired.compare(arm(moda=0.9, blocks=20.0), arm(moda=0.95, blocks=19.0))}
    assert rows["moda"]["wins"] == rows["blocks"]["wins"] == 1
    rows = {r["figure"]: r for r in paired.compare(arm(moda=0.95, blocks=19.0), arm(moda=0.9, blocks=20.0))}
    assert rows["moda"]["wins"] == rows["blocks"]["wins"] == 0


def test_compare_refuses_unpaired_seeds():
    a = {"runs": [{"seed": 1}]}
    b = {"runs": [{"seed": 2}]}
    with pytest.raises(ValueError, match="different seeds"):
        paired.compare(a, b)


def test_seed_lists():
    assert paired.parse_seeds("11-14") == [11, 12, 13, 14]
    assert paired.parse_seeds("1,3,5-6") == [1, 3, 5, 6]

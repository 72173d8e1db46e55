"""The paired A/B runner's statistics: sign test, last-line parser, verdicts."""

import importlib.util
import json
import os

import pytest

TOOL = os.path.join(os.path.dirname(__file__), "..", "..", "tools", "ab.py")
_spec = importlib.util.spec_from_file_location("ab_tool", os.path.abspath(TOOL))
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)


class TestSignTest:
    def test_exact_two_sided_values(self):
        assert ab.sign_test_p(10, 0) == pytest.approx(2 / 1024)
        assert ab.sign_test_p(0, 10) == pytest.approx(2 / 1024)
        assert ab.sign_test_p(9, 1) == pytest.approx(2 * 11 / 1024)
        assert ab.sign_test_p(3, 3) == 1.0

    def test_no_untied_pairs_tells_nothing(self):
        assert ab.sign_test_p(0, 0) == 1.0

    def test_one_pair_is_never_significant(self):
        assert ab.sign_test_p(1, 0) == 1.0


class TestParseLastLine:
    def test_reads_the_last_nonblank_line(self):
        line = {"correct": True, "attempted": 3, "failed": 0, "metrics": {"x": {"value": 1.0}}}
        stdout = "table\n  row 1\n" + json.dumps(line) + "\n\n"
        assert ab.parse_last_line(stdout) == line

    @pytest.mark.parametrize(
        "stdout",
        ["", "\n\n", "not json", '{"metrics": {}}\ntrailing text', "[1, 2]", '{"correct": true}'],
    )
    def test_anything_else_is_no_result(self, stdout):
        assert ab.parse_last_line(stdout) is None


class TestVerdicts:
    def test_worse_past_the_bound_in_the_bad_direction(self):
        parent = [10.0, 10.1, 9.9, 10.0, 10.05]
        assert ab.judge(parent, [13.0] * 5, "lower", 0.25)["verdict"] == "worse"
        assert ab.judge(parent, [7.0] * 5, "higher", 0.25)["verdict"] == "worse"

    def test_gain_needs_nine_of_ten_pairs_and_a_gap_past_the_parent_iqr(self):
        parent = [85.7, 84.3, 87.4, 87.1, 83.4, 86.0, 85.0, 84.8, 86.2, 85.5]
        change = [75.0] * 9 + [88.0]
        m = ab.judge(parent, change, "lower", 0.1)
        assert (m["wins"], m["losses"], m["verdict"]) == (9, 1, "gain")
        assert m["ratio_median"] == pytest.approx(75.0 / 85.6, rel=0.01)
        # Eight of ten is not enough, however large the gap.
        assert ab.judge(parent, [75.0] * 8 + [88.0] * 2, "lower", 0.1)["verdict"] == "ok"
        # Every pair won, but by less than the parent's own spread.
        assert ab.judge(parent, [p - 0.1 for p in parent], "lower", 0.1)["verdict"] == "ok"

    def test_unresolved_when_the_parent_spreads_wider_than_the_bound(self):
        parent = [5.0, 8.0, 6.0, 9.0, 5.5]
        change = [5.2, 8.5, 6.1, 8.8, 5.0]
        assert ab.judge(parent, change, "lower", 0.25)["verdict"] == "unresolved"
        # Unless every change run beats every parent run.
        assert ab.judge(parent, [4.0, 4.5, 4.9, 4.2, 4.1], "lower", 0.25)["verdict"] == "ok"

    def test_ok_inside_the_bound(self):
        parent = [100.0, 101.0, 99.0, 100.5, 99.5]
        m = ab.judge(parent, [101.0, 100.0, 102.0, 99.0, 101.5], "higher", 0.25)
        assert m["verdict"] == "ok"
        assert m["parent"]["median"] == 100.0 and m["change"]["median"] == 101.0

    def test_no_gain_below_the_relative_floor_on_metrics_with_no_spread(self):
        """Round-off on a metric every run repeats is not a gain."""
        parent = [1.2345678] * 10
        tiny = [p * (1 - 3e-8) for p in parent]
        m = ab.judge(parent, tiny, "lower", 0.05)
        assert (m["wins"], m["verdict"]) == (10, "ok")
        # Past the floor, the same pairs read as a gain.
        assert ab.judge(parent, [p * (1 - 1e-5) for p in parent], "lower", 0.05)[
            "verdict"
        ] == "gain"

    def test_relative_floor_holds_for_higher_is_better_metrics(self):
        parent = [250.0] * 10
        floor = ab.GAIN_REL_FLOOR * 250.0
        assert ab.judge(parent, [250.0 + floor / 2] * 10, "higher", 0.05)["verdict"] == "ok"
        assert ab.judge(parent, [250.0 + floor * 4] * 10, "higher", 0.05)["verdict"] == "gain"

    def test_parent_spread_wider_than_the_floor_still_governs(self):
        """The floor only raises the bar; a wide parent IQR keeps its own."""
        parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9]
        change = [p - 0.2 for p in parent]
        m = ab.judge(parent, change, "lower", 0.05)
        assert m["wins"] == 10 and m["verdict"] == "ok"

    def test_identical_sides_are_ok_with_no_pair_won(self):
        m = ab.judge([1670472.0] * 3, [1670472.0] * 3, "lower", 0.05)
        assert (m["verdict"], m["wins"], m["losses"], m["sign_p"]) == ("ok", 0, 0, 1.0)


class TestSeeds:
    def test_range_sets_the_pairs(self):
        assert ab.seed_list(None, "41-44") == [41, 42, 43, 44]
        assert ab.seed_list(4, "41-44") == [41, 42, 43, 44]
        assert ab.seed_list(3, None) == [1, 2, 3]
        assert ab.DEFAULT_PAIRS == 10
        assert ab.seed_list(None, None) == list(range(1, 11))

    def test_disagreeing_or_empty_ranges_raise(self):
        with pytest.raises(ValueError):
            ab.seed_list(2, "41-44")
        with pytest.raises(ValueError):
            ab.seed_list(None, "44-41")
        with pytest.raises(ValueError):
            ab.seed_list(0, None)


def test_summary_skips_pairs_with_a_failed_side():
    def run(value, correct=True):
        return {"correct": correct, "failed": 0, "metrics": {"peak_rss_mb": {"value": value}}}

    results = {"parent": [run(85.0), None, run(86.0)], "change": [run(75.0), run(74.0), None]}
    bounds = {"peak_rss_mb": {"better": "lower", "bound": 0.1}}
    summary = ab.summarize("offline_batch", results, {"parent": [], "change": []}, bounds)
    assert summary["failed_runs"] == {"parent": 1, "change": 1}
    assert summary["metrics"]["peak_rss_mb"]["pairs"] == 1

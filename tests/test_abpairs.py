"""tools/abpairs.py: the summary of alternating benchmark pairs, and the
parse of one run's output, without running anything."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "abpairs.py"
_spec = importlib.util.spec_from_file_location("abpairs", _PATH)
abpairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(abpairs)


def _stdout(wall, correct=True, pass_median=1.25):
    result = {"correct": correct, "attempted": 9, "failed": 0, "metrics": {
        "wall_s": {"value": wall, "unit": "s"},
        "path_steps_per_s": {"value": 1e6 / wall, "unit": "1/s"}}}
    return ("delayctrl bench: workload regression_adjoint\n"
            "pass 1 (untraced): 1.3 s, 1.4 s at the reference speed\n"
            f"unscaled: setup 0.2 s, pass median {pass_median} s\n"
            f"metric wall_s {wall} s\n" + json.dumps(result) + "\n")


def test_parse_run_reads_the_result_and_the_pass_median():
    ok, metrics = abpairs.parse_run(_stdout(1.5, pass_median=1.31))
    assert ok
    assert metrics == {"wall_s": 1.5, "path_steps_per_s": 1e6 / 1.5,
                       abpairs.PASS_MEDIAN: 1.31}
    ok, _ = abpairs.parse_run(_stdout(1.5, correct=False))
    assert not ok


def test_summarize_medians_quartiles_change_and_pairs_won():
    ref = [{"wall_s": v, "rate": 1.0 / v} for v in (1.0, 1.2, 1.4, 1.6, 1.8)]
    new = [{"wall_s": v, "rate": 1.0 / v} for v in (0.9, 1.0, 1.5, 1.2, 1.3)]
    rows = abpairs.summarize(ref, new, {"wall_s": "lower", "rate": "higher",
                                        "absent": "lower"})
    assert [r["metric"] for r in rows] == ["wall_s", "rate"]
    wall, rate = rows
    assert wall["ref"] == pytest.approx((1.4, 1.2, 1.6))
    assert wall["new"] == pytest.approx((1.2, 1.0, 1.3))
    assert wall["change_pct"] == pytest.approx(100 * (1.2 - 1.4) / 1.4)
    # pair 3 (1.4 against 1.5) goes to the ref
    assert (wall["won"], wall["pairs"]) == (4, 5)
    assert (rate["won"], rate["pairs"]) == (4, 5)
    assert rate["change_pct"] > 0


def test_summarize_one_pair_and_a_tie():
    rows = abpairs.summarize([{"wall_s": 2.0}], [{"wall_s": 2.0}],
                             {"wall_s": "lower"})
    assert rows[0]["ref"] == rows[0]["new"] == (2.0, 2.0, 2.0)
    assert rows[0]["won"] == 0 and rows[0]["change_pct"] == 0.0


def test_format_rows_is_a_markdown_table():
    rows = abpairs.summarize([{"wall_s": 1.0}, {"wall_s": 1.2}],
                             [{"wall_s": 0.8}, {"wall_s": 0.9}],
                             {"wall_s": "lower"})
    table = abpairs.format_rows(rows, "HEAD~1").splitlines()
    assert table[0] == ("| metric | HEAD~1 | checkout | change | "
                        "checkout better |")
    assert table[2] == ("| wall_s | 1.1 [1.05-1.15] | 0.85 [0.825-0.875] "
                        "| -22.7% | 2/2 |")


def test_directions_cover_the_end_to_end_metrics():
    better = abpairs.directions()
    assert better["wall_s"] == "lower"
    assert better["path_steps_per_s"] == "higher"
    assert better[abpairs.PASS_MEDIAN] == "lower"


def test_op_times_are_medians_over_untraced_passes():
    def run_pass(traced, times):
        return {"traced": traced, "wall_s": sum(times),
                "op_scaled_s": times,
                "ops": {name: {"ok": True, "detail": ""}
                        for name in ("base", "scale_0.8")}}

    record = {"passes": [run_pass(False, [0.10, 0.50]),
                         run_pass(True, [9.0, 9.0]),
                         run_pass(False, [0.30, 0.40]),
                         run_pass(False, [0.20, 0.60])]}
    times = abpairs.op_times(record)
    assert times == {"op base": pytest.approx(0.2),
                     "op scale_0.8": pytest.approx(0.5)}
    rows = abpairs.summarize([times], [{"op base": 0.1, "op scale_0.8": 0.6}],
                             dict.fromkeys(times, "lower"))
    assert [(r["metric"], r["won"]) for r in rows] == [("op base", 1),
                                                       ("op scale_0.8", 0)]

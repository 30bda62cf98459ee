"""tools/bench_record.py's reading of perfbench/run.py's output, on fixed text."""

import importlib.util
import json
import os

import pytest

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "bench_record.py")
_SPEC = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)

DETAIL = {"workload": "sweep-k-es", "trace": 0, "env": {"cpu_model": "a CPU", "nproc": 2,
                                                       "commit": None, "source_sha256": "ab"},
          "loadavg_start": [0.5, 0.4, 0.3], "loadavg_end": [0.6, 0.4, 0.3]}


def _stdout(correct=True, **values):
    metrics = {"setup_s": 0.15, "wall_per_ref": 0.023, "peak_rss_mb": 40.1, "ops_ok_ratio": 1.0,
               **values}
    result = {"correct": correct, "attempted": 10, "failed": 0 if correct else 1,
              "metrics": {name: {"value": v, "unit": "x"} for name, v in metrics.items()}}
    # a run may print warnings before its two closing lines
    return "a warning\n" + json.dumps(DETAIL) + "\n" + json.dumps(result) + "\n"


def test_reads_the_result_and_the_detail_record():
    run = bench_record.parse_run(_stdout(), 0)
    assert run["correct"] is True
    assert run["metrics"]["wall_per_ref"] == 0.023 and len(run["metrics"]) == 4
    assert run["detail"] == DETAIL


def test_a_result_marked_incorrect_stays_incorrect():
    run = bench_record.parse_run(_stdout(correct=False), 0)
    assert run["correct"] is False and run["metrics"]["setup_s"] == 0.15


@pytest.mark.parametrize("stdout, code", [
    (_stdout(), 1),  # a run that exits nonzero
    ("", 0),  # nothing printed
    ("Traceback (most recent call last):\n  ...\nValueError: boom\n", 1),
    (json.dumps(DETAIL) + "\n", 0),  # a detail record and no result
    (json.dumps(DETAIL) + "\n" + json.dumps({"correct": True}) + "\n", 0),  # no metrics
], ids=["nonzero-exit", "empty", "traceback", "no-result", "no-metrics"])
def test_a_failed_or_resultless_run_is_incorrect(stdout, code):
    run = bench_record.parse_run(stdout, code)
    assert run["correct"] is False and run["metrics"] == {}


def test_summary_pairs_only_correct_runs():
    def side(correct, wall):
        return {"correct": correct, "metrics": {"wall_per_ref": wall, "ops_ok_ratio": 1.0}}

    runs = [{"seed": 1, "base": side(True, 0.024), "head": side(True, 0.019)},
            {"seed": 2, "base": side(True, 0.023), "head": side(True, 0.025)},
            {"seed": 3, "base": side(True, 0.025), "head": side(False, 0.001)},
            {"seed": 4, "base": side(True, 0.022), "head": side(True, 0.018)}]
    got = bench_record.summarize(runs, {"wall_per_ref": "lower", "ops_ok_ratio": "higher"})
    assert got["spread"]["base"]["wall_per_ref"]["median"] == pytest.approx(0.0235)
    assert got["spread"]["head"]["wall_per_ref"]["median"] == 0.019
    pair = got["pairs"]["wall_per_ref"]
    assert (pair["head_better"], pair["pairs"]) == (2, 3)
    assert pair["median_ratio"] == pytest.approx(0.018 / 0.022)  # of 0.79, 1.09 and 0.82
    assert got["pairs"]["ops_ok_ratio"]["head_better"] == 0  # ties count for neither


def test_seed_lists():
    assert bench_record.seed_list("1-5") == [1, 2, 3, 4, 5]
    assert bench_record.seed_list("3,9") == [3, 9]

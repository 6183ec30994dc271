"""Tests of the benchmark itself: each workload at a tiny size runs to its
end and passes its checks, a corrupted output fails them, and a program
function that has gone is reported instead of failing the traced run.

    python3 -m pytest perfbench/tests
"""

import csv
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

TINY = {
    "prep": {"cropsim": {"n_counties": 3, "n_stations": 3,
                         "years": {"first": 2021, "last": 2023},
                         "field_years": {"first": 2020, "last": 2023}},
             "pretrain_epochs": 1, "finetune_epochs": 1},
    "train": {"cropsim": {"n_counties": 6, "n_stations": 4,
                          "years": {"first": 2019, "last": 2023},
                          "field_years": {"first": 2018, "last": 2023}},
              "pretrain_epochs": 1, "finetune_epochs": 1},
    "score": {"n_counties": 12, "first_year": 2019, "last_year": 2023, "history_years": 5,
              "n_stations": 4, "field_years": 4,
              "data_stages": {"n_counties": 3, "n_stations": 3,
                              "years": {"first": 2021, "last": 2023},
                              "field_years": {"first": 2020, "last": 2023}}},
}


@pytest.mark.parametrize("workload", sorted(TINY))
def test_workload_runs_to_its_end(workload, tmp_path):
    runs = tmp_path / "runs"
    out = run.result(workload, 5, 0, False, runs_dir=str(runs), scale=TINY[workload])
    assert out["correct"]
    assert (out["attempted"], out["failed"]) == (len(run.WORKLOADS[workload].timed), 0)
    assert set(out["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in out["metrics"].values())
    assert not runs.exists()


@pytest.mark.parametrize("workload", sorted(TINY))
def test_traced_run_reports_every_layer_metric(workload, tmp_path):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        per_layer = {m["name"]: m["unit"] for m in json.load(f)["per_layer"]}
    out = run.result(workload, 5, 0, True, runs_dir=str(tmp_path / "runs"), scale=TINY[workload])
    assert out["correct"]
    assert {k: m["unit"] for k, m in out["metrics"].items()} == per_layer


def test_missing_program_function_is_reported_not_fatal():
    missing = tracing.install(tracing.Recorder(), {("kgmlsm.ingest", "no_such_function"): None})
    assert missing == ["ingest.no_such_function"]
    found, absent = tracing.layer_metrics(
        [{"missing": ["ingest.read_samples_csv"],
          "spans": [["ingest.write_samples_csv", 1.0, 1.5, -1, None]]}])
    assert found["ingest.samples_write_s"] == (0.5, "s")
    assert "not found" in absent["ingest.samples_read_s"]


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "prep", "--seed", "0",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


# ---------------------------------------------------------------------------
# corrupted outputs


@pytest.fixture(scope="module")
def benches(tmp_path_factory):
    made = {}
    for name in ("prep", "train", "score"):
        b = run.Bench(run.WORKLOADS[name], 5, runs_dir=str(tmp_path_factory.mktemp("runs")),
                      scale=TINY[name])
        run.set_up(b)
        assert run.run_round(b)["error"] is None
        made[name] = b
    yield made
    for b in made.values():
        b.close()


def nudge(path, column, change, row=0):
    """Rewrite one cell of a CSV; return the original text."""
    with open(path, newline="", encoding="utf-8") as f:
        text = f.read()
    rows = list(csv.reader(text.splitlines()))
    col = rows[0].index(column)
    rows[row + 1][col] = change(rows[row + 1][col])
    with open(path, "w", newline="", encoding="utf-8") as f:
        csv.writer(f).writerows(rows)
    return text


@pytest.mark.parametrize("workload, file, column, change, message", [
    ("score", ("evaluate", "errors.csv"), "y_hat", lambda v: repr(float(v) + 0.1), "y_hat"),
    ("score", ("attn", "attention_raw.csv"), "alpha", lambda v: repr(float(v) * 1.01), "sum"),
    ("train", ("evaluate", "errors.csv"), "y_hat", lambda v: repr(float(v) + 0.1), "RMSE"),
    ("prep", ("data", "county_samples.csv"), "drought_flag", lambda v: str(1 - int(v)),
     "drought flags"),
])
def test_corrupted_output_fails_its_check(benches, workload, file, column, change, message):
    b = benches[workload]
    path = b.path(*file)
    text = nudge(path, column, change)
    try:
        with pytest.raises(checks.CheckFailed, match=message):
            b.workload.outcome(b, {stage: 1.0 for stage in b.workload.timed})
    finally:
        with open(path, "w", newline="", encoding="utf-8") as f:
            f.write(text)
    b.workload.outcome(b, {stage: 1.0 for stage in b.workload.timed})

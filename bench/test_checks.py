"""Each of the benchmark's correctness checks rejects a doctored store.

    python3 -m pytest bench/test_checks.py -q
"""

import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import checks  # noqa: E402
from swarmpp import harness, objectives  # noqa: E402

PLAN = {
    "name": "doctored",
    "algorithms": ["PSO", "hmPSO", "CSO", "mDE"],
    "pairs": [["PSO", "hmPSO"], ["CSO", "mDE"]],
    "dimensions": [2, 5],
    "functions": ["F6", "F15", "F27"],
    "runs": 3,
    "max_iter": 6,
    "checkpoints": [0, 3, 6],
    "master_seed": 5,
    "noise": {"kind": "gaussian", "sigma": 0.005},
    "n": 8,
    "parallelism": 1,
}


@pytest.fixture(scope="module")
def clean_store(tmp_path_factory):
    out = tmp_path_factory.mktemp("clean") / "store"
    harness.execute(harness.ExperimentPlan.from_dict(PLAN), out)
    return out


@pytest.fixture
def store(clean_store, tmp_path):
    return Path(shutil.copytree(clean_store, tmp_path / "store"))


def _records(store):
    return [json.loads(line) for line in (store / "runs.jsonl").read_text().splitlines()]


def _write(store, records):
    (store / "runs.jsonl").write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records))


def _doctor(store, fn, index=0):
    records = _records(store)
    fn(records[index])
    _write(store, records)


def _problems(store):
    return "\n".join(checks.check_store(store, PLAN))


def test_clean_store_passes(clean_store):
    assert checks.check_store(clean_store, PLAN) == []


def test_rejects_doctored_winning_proportion(store):
    lines = (store / "metrics.csv").read_text().splitlines()
    i = next(i for i, line in enumerate(lines) if ",winning_proportion," in line)
    parts = lines[i].split(",")
    parts[6] = repr(float(parts[6]) + 0.125)
    lines[i] = ",".join(parts)
    (store / "metrics.csv").write_text("\n".join(lines) + "\n")
    assert "recomputed" in _problems(store)


def test_rejects_doctored_relative_error(store):
    lines = (store / "metrics.csv").read_text().splitlines()
    i = next(i for i, line in enumerate(lines) if ",ALL," in line and ",relative_error_mod," in line)
    parts = lines[i].split(",")
    parts[6] = repr(float(parts[6]) + 1e-6)
    lines[i] = ",".join(parts)
    (store / "metrics.csv").write_text("\n".join(lines) + "\n")
    assert "recomputed" in _problems(store)


def test_rejects_dropped_metric_row(store):
    lines = (store / "metrics.csv").read_text().splitlines()
    (store / "metrics.csv").write_text("\n".join(lines[:-1]) + "\n")
    assert "lacks row" in _problems(store)


def test_rejects_final_value_that_does_not_re_evaluate(store):
    def doctor(rec):
        rec["final_best_point"][0] = (rec["final_best_point"][0] + rec["final_best_point"][1]) / 2

    _doctor(store, doctor)
    assert "re-evaluated final best point" in _problems(store)


def test_rejects_best_below_literature_minimum(store):
    records = _records(store)
    i = next(i for i, r in enumerate(records) if r["function"] == "F6")
    records[i]["checkpoints"]["6"] = -959.641
    _write(store, records)
    assert "undercuts the literature minimum" in _problems(store)


@pytest.mark.parametrize("algorithm", ["PSO", "CSO", "mDE"])
def test_rejects_wrong_evaluation_count(store, algorithm):
    records = _records(store)
    i = next(i for i, r in enumerate(records) if r["algorithm"] == algorithm)
    records[i]["n_evals"] = 8 * (1 + 6) if algorithm == "CSO" else 8 + 6 * 4
    _write(store, records)
    assert "n_evals" in _problems(store)


def test_rejects_duplicate_and_missing_cells(store):
    records = _records(store)
    records[1] = records[0]
    _write(store, records)
    problems = _problems(store)
    assert "more than once" in problems and "is missing" in problems


def test_rejects_point_outside_box(store):
    records = _records(store)
    i = next(i for i, r in enumerate(records) if r["function"] == "F27")
    records[i]["final_best_point"][0] = 5.2
    _write(store, records)
    assert "outside the search box" in _problems(store)


def test_rejects_increasing_checkpoints(store):
    def doctor(rec):
        rec["checkpoints"]["6"] = rec["checkpoints"]["0"] + 1.0

    _doctor(store, doctor)
    assert "increases across checkpoints" in _problems(store)


def test_rejects_invariant_violations_and_failed_status(store):
    records = _records(store)
    records[0]["violations_c1"] = 1
    records[1]["status"] = "failed: non-finite"
    _write(store, records)
    problems = _problems(store)
    assert "invariant violations" in problems and "status" in problems


@pytest.mark.parametrize("label", list(checks.FUNCTIONS))
def test_formulas_agree_with_program(label):
    spec = objectives.get(label)
    rng = np.random.default_rng(int(label[1:]))
    for d in checks.dims_of(label):
        box = objectives.default_domain(spec, d)
        lower, upper = checks.FUNCTIONS[label][2](d)
        assert np.array_equal(box.lower, lower) and np.array_equal(box.upper, upper)
        for x in rng.uniform(box.lower, box.upper, size=(20, d)):
            want = objectives.evaluate(spec, d, x)
            assert checks.evaluate(label, x) == pytest.approx(want, rel=checks.VALUE_RTOL, abs=checks.VALUE_ATOL)

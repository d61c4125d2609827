import collections
import concurrent.futures
import hashlib
import itertools
import json
import os
import re
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import swarmpp
from swarmpp import algorithms, harness, objectives
from swarmpp.cli import main
from swarmpp.harness import (
    ExperimentPlan,
    ResultStore,
    compute_metric_rows,
    derive_seed,
    execute,
    resume,
)
from swarmpp.perturbation import NoiseModel


def small_plan(**overrides):
    kwargs = dict(
        name="t",
        algorithms=("PSO", "mPSO"),
        pairs=(("PSO", "mPSO"),),
        dimensions=(5,),
        functions=("F27",),
        runs=3,
        max_iter=30,
        checkpoints=(10, 30),
        master_seed=7,
        parallelism=1,
    )
    kwargs.update(overrides)
    return ExperimentPlan(**kwargs)


def test_derive_seed_stable_and_pure():
    s = derive_seed(1, "PSO", "F1", 5, 0)
    assert s == derive_seed(1, "PSO", "F1", 5, 0)
    assert s != derive_seed(1, "PSO", "F1", 5, 1)
    assert 0 <= s < 2**64


def test_derive_seed_collision_sweep():
    seen = set()
    for alg in ("PSO", "mPSO", "hmPSO", "CSO"):
        for f in (f"F{i}" for i in range(1, 29)):
            for d in (2, 5, 10, 20, 40):
                for r in range(100):
                    seen.add(derive_seed(0, alg, f, d, r))
    assert len(seen) == 4 * 28 * 5 * 100


def test_plan_validation():
    with pytest.raises(ValueError):
        small_plan(algorithms=("PSO", "XY"))
    with pytest.raises(ValueError):
        small_plan(pairs=(("PSO", "hmPSO"),))
    with pytest.raises(ValueError):
        small_plan(dimensions=(3,))
    with pytest.raises(ValueError):
        small_plan(checkpoints=(10, 40))
    # per-family swarm constraints are checked when the plan is built
    with pytest.raises(ValueError, match="even swarm size"):
        small_plan(algorithms=("PSO", "CSO"), pairs=(("PSO", "CSO"),), n=5)
    with pytest.raises(ValueError, match="n >= 4"):
        small_plan(algorithms=("DE", "mDE"), pairs=(("DE", "mDE"),), n=3)
    # unknown keys are named, not silently defaulted
    with pytest.raises(ValueError, match="unknown plan key.*run"):
        ExperimentPlan.from_dict({"run": 3})
    with pytest.raises(ValueError, match="noise kind"):
        ExperimentPlan.from_dict({"noise": {"kind": "cauchy"}})
    # a function selection must name registered functions and select a member
    with pytest.raises(ValueError, match="unknown function label.*F99"):
        ExperimentPlan.from_dict({"functions": ["F6", "F99"]})
    with pytest.raises(ValueError, match="no collection member"):
        ExperimentPlan.from_dict({"functions": ["F6"], "dimensions": [10]})
    with pytest.raises(ValueError, match="no collection member"):
        small_plan(dimensions=())
    # checkpoints are distinct and non-negative; 0 is the initial swarm
    with pytest.raises(ValueError, match="negative"):
        small_plan(checkpoints=(-1, 3))
    with pytest.raises(ValueError, match="distinct"):
        small_plan(checkpoints=(2, 2, 3))
    assert small_plan(checkpoints=(0, 3)).checkpoints == (0, 3)
    # and integers: 2.5 is refused, 10.0 is read as 10, the key runs.jsonl holds
    with pytest.raises(ValueError, match="integers"):
        small_plan(checkpoints=(2.5, 3))
    assert [type(t) for t in small_plan(checkpoints=(10.0, 30)).checkpoints] == [int, int]
    # a bool is no checkpoint, though int(True) is 1
    with pytest.raises(ValueError, match="integers"):
        ExperimentPlan.from_dict(small_plan().to_dict() | {"checkpoints": [True, 3]})
    # metrics.csv writes the name unquoted, so a name that would break its
    # rows is refused: "a,b" made 9-field rows under the 8-column header
    for name, named in (("a,b", "','"), ('say "hi"', "'\"'"), ("a\nb", "'\\n'"), ("a\r\nb", "'\\r' or '\\n'")):
        with pytest.raises(ValueError, match=f"name must not contain {re.escape(named)}, got"):
            small_plan(name=name)
        with pytest.raises(ValueError, match="name must not contain"):
            ExperimentPlan.from_dict(small_plan().to_dict() | {"name": name})
    assert small_plan(name="a b;c|d").name == "a b;c|d"
    # and a name is a string: ["x"] was written into metrics.csv as ['x']
    with pytest.raises(TypeError, match="name must be a string"):
        ExperimentPlan.from_dict(small_plan().to_dict() | {"name": ["x"]})
    # a label or function listed twice ran once, while the manifest and the
    # digest kept the repeat
    with pytest.raises(ValueError, match=r"algorithms must be distinct, got \['PSO', 'PSO', 'mPSO'\]"):
        small_plan(algorithms=("PSO", "PSO", "mPSO"))
    with pytest.raises(ValueError, match="algorithms must be distinct"):
        ExperimentPlan.from_dict(small_plan().to_dict() | {"algorithms": ["mPSO", "PSO", "mPSO"]})
    with pytest.raises(ValueError, match=r"functions must be distinct, got \['F27', 'F16', 'F27'\]"):
        small_plan(functions=("F27", "F16", "F27"))
    with pytest.raises(ValueError, match="functions must be distinct"):
        ExperimentPlan.from_dict(small_plan().to_dict() | {"functions": ["F27", "F27"]})
    # built directly or by replace, a string is refused by its key, not split
    # into labels, and a short pair is named
    for key, value, error, message in (("functions", "F16", TypeError, "functions must be a list, got 'F16'"),
                                       ("algorithms", "PSO", TypeError, "algorithms must be a list, got 'PSO'"),
                                       ("dimensions", 10, TypeError, "dimensions must be a list, got 10"),
                                       ("pairs", ("PSO:mPSO",), TypeError, "a pairs entry must be a list"),
                                       ("pairs", (("PSO",),), ValueError, "a pairs entry must be two algorithm labels")):
        with pytest.raises(error, match=re.escape(message)):
            small_plan(**{key: value})
        with pytest.raises(error, match=re.escape(message)):
            replace(small_plan(), **{key: value})
    # lists are stored as the tuples from_dict gives, digest included
    listed = small_plan(algorithms=["PSO", "mPSO"], pairs=[["PSO", "mPSO"]], dimensions=[5], functions=["F27"],
                        checkpoints=[10, 30])
    assert listed == small_plan() == ExperimentPlan.from_dict(listed.to_dict())
    assert listed.digest() == ExperimentPlan.from_dict(json.loads(json.dumps(listed.to_dict()))).digest()
    assert listed.pairs == (("PSO", "mPSO"),) and type(listed.dimensions) is tuple


def test_plan_refuses_non_integer_fields():
    base = small_plan().to_dict()
    for key, value in (("runs", 2.0), ("max_iter", 5.0), ("n", 32.0), ("parallelism", 2.5), ("runs", True),
                       ("dimensions", [5.0]), ("master_seed", 1.5), ("master_seed", "7"), ("master_seed", False)):
        with pytest.raises(TypeError, match="must be an integer"):
            ExperimentPlan.from_dict(base | {key: value})
    for parallelism in (0, -3):
        with pytest.raises(ValueError, match="parallelism must be at least 1"):
            ExperimentPlan.from_dict(base | {"parallelism": parallelism})
    assert ExperimentPlan.from_dict(base) == small_plan()


def test_plan_json_roundtrip(tmp_path):
    plan = small_plan(noise=NoiseModel(kind="scaled_t", df=10))
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan.to_dict()))
    assert ExperimentPlan.from_json_file(path) == plan
    assert ExperimentPlan.from_json_file(path).digest() == plan.digest()


def test_digest_ignores_parallelism():
    assert small_plan(parallelism=1).digest() == small_plan(parallelism=8).digest()
    assert small_plan(master_seed=8).digest() != small_plan().digest()


def test_execute_writes_store(tmp_path):
    plan = small_plan()
    execute(plan, tmp_path / "out")
    store = ResultStore(tmp_path / "out")
    assert store.manifest_path.exists()
    records = store.read_runs()
    assert len(records) == 2 * 1 * 3  # algorithms x functions x runs
    for rec in records.values():
        assert rec["status"] == "ok"
        assert rec["violations_c1"] == 0 and rec["violations_c3"] == 0
    header = store.metrics_path.read_text().splitlines()[0]
    assert header == "experiment,pair,function,dimension,checkpoint,metric,value,tie_count"


def test_execute_deterministic_bytes(tmp_path):
    plan = small_plan()
    execute(plan, tmp_path / "a")
    execute(plan, tmp_path / "b")
    for name in ("runs.jsonl", "metrics.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_store_bytes_are_pinned(tmp_path):
    # every label at every collection dimension: a change to any draw, kernel,
    # record or metric line changes these bytes
    plan = ExperimentPlan(name="pin", algorithms=algorithms.ALGORITHM_LABELS,
                          pairs=tuple((f, p + f) for f in algorithms.FAMILIES for p in ("m", "hm")),
                          dimensions=objectives.COLLECTION_DIMS, functions=("F4", "F15", "F16"), runs=2,
                          max_iter=10, checkpoints=(0, 5, 10), master_seed=17, parallelism=1)
    assert {d for _, d in plan.collection()} == set(objectives.COLLECTION_DIMS)
    execute(plan, tmp_path / "s")
    digests = {name: hashlib.sha256((tmp_path / "s" / name).read_bytes()).hexdigest()
               for name in ("runs.jsonl", "metrics.csv")}
    assert digests == {
        "runs.jsonl": "5d2a88e3330aefec62bbee0cb8e2fb528a60955eca7610134496f9e2bff76e16",
        "metrics.csv": "8346c818d4894ab660beb1e926c5f6f79e214d1881a28c803fcda591de9fe786",
    }


def test_parallel_schedule_independent(tmp_path):
    plan = small_plan()
    execute(plan, tmp_path / "p1")
    execute(replace(plan, parallelism=4), tmp_path / "p4")
    assert (tmp_path / "p1" / "metrics.csv").read_bytes() == (
        tmp_path / "p4" / "metrics.csv"
    ).read_bytes()
    assert (tmp_path / "p1" / "runs.jsonl").read_bytes() == (
        tmp_path / "p4" / "runs.jsonl"
    ).read_bytes()


def test_groups_one_per_algorithm_and_dimension():
    # the cells of the full protocol, at 4 runs: 12 labels x 70 members at 5
    # dimensions make 60 (label, dimension) groups, the largest (any label at
    # d=40) 14 members x 4 runs x 40 = 2240 run-coordinates, the cap at any
    # parallelism.  Each family's groups at d=2, 5 and 10 fit in one stack,
    # at d=20 two of three do, and at d=40 none: 32 stacks
    plan = small_plan(algorithms=algorithms.ALGORITHM_LABELS, dimensions=(40, 2, 10, 5, 20), functions=None, runs=4)
    cells = plan.cells()
    assert len(cells) == 12 * 70 * 4
    per_family = [(("", "hm", "m"), 2, 156), (("", "hm", "m"), 5, 180), (("", "hm", "m"), 10, 168),
                  (("", "hm"), 20, 112), (("m",), 20, 56), (("",), 40, 56), (("hm",), 40, 56), (("m",), 40, 56)]
    expected = [(tuple(p + fam for p in prefixes), d, runs)
                for fam in ("BAT", "CSO", "DE", "PSO") for prefixes, d, runs in per_family]
    for parallelism in (1, 2):
        cap = harness._cap(replace(plan, parallelism=parallelism))
        assert cap == 2240
        groups = harness._groups(cells, cap)
        assert sum(groups, []) == cells
        assert [(tuple(dict.fromkeys(alg for alg, _, _, _ in g)), g[0][2], len(g)) for g in groups] == expected
        assert all({d for _, _, d, _ in g} == {g[0][2]} for g in groups)
        assert max(len(g) * g[0][2] for g in groups) == 2240
    # at 100 runs, the same 32 stacks, 25 times the runs each, at any parallelism
    plan = replace(plan, runs=100)
    for parallelism in (1, 2):
        groups = harness._groups(plan.cells(), harness._cap(replace(plan, parallelism=parallelism)))
        assert [(tuple(dict.fromkeys(alg for alg, _, _, _ in g)), g[0][2], len(g)) for g in groups] == [
            (labels, d, 25 * runs) for labels, d, runs in expected]


def test_single_dimension_plans_fuse_their_variants_at_parallelism_1():
    # the bench's trend-d10 shape: PSO/hmPSO/CSO/hmCSO on the 14 members at
    # d=10, 2 runs.  Each (label, dimension) group is 28 runs x d=10; at
    # parallelism 1 the cap is the full protocol's largest group at 2 runs,
    # 2 x 560, so each family's two groups step as one stack of 56 runs; at
    # parallelism 2 the cap is the plan's own largest group, and the four
    # groups stay four stacks for the workers
    plan = small_plan(algorithms=("PSO", "hmPSO", "CSO", "hmCSO"), pairs=(("PSO", "hmPSO"), ("CSO", "hmCSO")),
                      dimensions=(10,), functions=None, runs=2)
    cells = plan.cells()
    assert harness._cap(plan) == 2 * 560
    stacks = harness._groups(cells, harness._cap(plan))
    assert [(stack[0][0], stack[-1][0], len(stack)) for stack in stacks] == [("CSO", "hmCSO", 56), ("PSO", "hmPSO", 56)]
    assert harness._cap(replace(plan, parallelism=2)) == 28 * 10
    stacks = harness._groups(cells, harness._cap(replace(plan, parallelism=2)))
    assert [(stack[0][0], stack[-1][0], len(stack)) for stack in stacks] == [
        ("CSO", "CSO", 28), ("hmCSO", "hmCSO", 28), ("PSO", "PSO", 28), ("hmPSO", "hmPSO", 28)]


def test_groups_run_alike_at_any_parallelism(tmp_path, monkeypatch):
    # members sorted by (dimension, label): the d=2 groups, F18@2 with F4@2
    # (Bukin6, whose box is no cube) for PSO then mPSO, make one stack of 8
    # runs x d=2.  At parallelism 1 the d=5 groups (F15@5, F26@5 and F27@5)
    # fuse too, within the full protocol's largest group at 2 runs (2 x 560);
    # at parallelism 2 they cannot merge within the plan's largest group (6
    # runs x d=5), so each stands alone
    plan = small_plan(runs=2, dimensions=(2, 5), functions=("F4", "F15", "F18", "F26", "F27"))
    cells = plan.cells()
    d2 = [("PSO", "F18"), ("PSO", "F4"), ("mPSO", "F18"), ("mPSO", "F4")]
    d5 = {alg: [(alg, "F15"), (alg, "F26"), (alg, "F27")] for alg in ("PSO", "mPSO")}
    for parallelism, sizes, labels in ((1, [8, 12], [d2, d5["PSO"] + d5["mPSO"]]),
                                       (2, [8, 6, 6], [d2, d5["PSO"], d5["mPSO"]])):
        groups = harness._groups(cells, harness._cap(replace(plan, parallelism=parallelism)))
        assert [len(g) for g in groups] == sizes
        assert sum(groups, []) == cells
        assert [[(alg, label) for alg, label, _, _ in g[::2]] for g in groups] == labels
        assert [g[0][2] for g in groups] == [2] + [5] * (len(groups) - 1)
    # the two stackings give the same bytes, and parallelism 2 runs its three
    # stacks in a process pool
    pools = []

    class SpyPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs["max_workers"])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(harness.concurrent.futures, "ProcessPoolExecutor", SpyPool)
    execute(plan, tmp_path / "p1")
    assert pools == []
    execute(replace(plan, parallelism=2), tmp_path / "p2")
    assert pools == [2]
    for name in ("runs.jsonl", "metrics.csv"):
        assert (tmp_path / "p1" / name).read_bytes() == (tmp_path / "p2" / name).read_bytes()
    # each record is the one its cell gives run alone
    records = ResultStore(tmp_path / "p1").read_runs()
    for alg, label, d, r in cells[:: len(cells) // 7]:
        spec = objectives.get(label)
        config = algorithms.config_for_label(alg, n=plan.n, noise=plan.noise)
        alone = algorithms.run(config, objectives.batch_evaluator(spec, d), objectives.default_domain(spec, d),
                               derive_seed(plan.master_seed, alg, label, d, r), plan.max_iter, plan.checkpoints)
        assert json.loads(json.dumps(alone.to_dict())).items() <= records[(alg, label, d, r)].items()


def test_max_iter_zero_reports_initial_best(tmp_path):
    plan = small_plan(runs=1, max_iter=0, checkpoints=(0,))
    execute(plan, tmp_path / "z")
    records = ResultStore(tmp_path / "z").read_runs()
    for rec in records.values():
        assert "0" in rec["checkpoints"]


def test_resume_completes_partial_store(tmp_path):
    plan = small_plan()
    out = tmp_path / "r"
    execute(plan, out)
    full_runs = (out / "runs.jsonl").read_bytes()
    full_metrics = (out / "metrics.csv").read_bytes()

    store = ResultStore(out)
    records = store.read_runs()
    keep = dict(list(sorted(records.items()))[: len(records) // 2])
    store.write_runs(keep)
    resume(plan, out)
    assert (out / "runs.jsonl").read_bytes() == full_runs
    assert (out / "metrics.csv").read_bytes() == full_metrics


def test_resume_stacks_under_the_whole_plans_cap(tmp_path, monkeypatch):
    # resumed after 15 of the 20 cells, the 5 left are cut into stacks under
    # the cap of the whole plan: at parallelism 1 the full protocol's largest
    # group at 2 runs (2 x 560), and at parallelism 2 the cap taken from all
    # the plan's cells (the largest group's 6 runs x d=5), not from the cells
    # left (5 x 5)
    plan = small_plan(runs=2, dimensions=(2, 5), functions=("F4", "F15", "F18", "F26", "F27"))
    out = tmp_path / "r"
    execute(plan, out)
    full = {name: (out / name).read_bytes() for name in ("runs.jsonl", "metrics.csv")}
    store = ResultStore(out)
    real_groups, cut = harness._groups, []

    def groups(cells, cap):
        cut.append((len(cells), cap))
        return real_groups(cells, cap)

    monkeypatch.setattr(harness, "_groups", groups)
    for parallelism, expected in ((1, (5, 1120)), (2, (5, 30))):
        store.write_runs(dict(list(store.read_runs().items())[:15]))
        cut.clear()
        resume(replace(plan, parallelism=parallelism), out)
        assert cut == [expected]
        assert {name: (out / name).read_bytes() for name in full} == full


def test_resume_complete_store_runs_nothing(tmp_path):
    plan = small_plan()
    out = tmp_path / "c"
    execute(plan, out)
    before = (out / "runs.jsonl").read_bytes()
    resume(plan, out)
    assert (out / "runs.jsonl").read_bytes() == before


def test_resume_complete_store_rewrites_only_a_torn_tail(tmp_path, monkeypatch):
    plan = small_plan()
    out = tmp_path / "j"
    execute(plan, out)
    full_runs = (out / "runs.jsonl").read_bytes()
    full_metrics = (out / "metrics.csv").read_bytes()
    real_write_runs = ResultStore.write_runs
    writes = []

    def write_runs(self, records):
        writes.append(len(records))
        real_write_runs(self, records)

    monkeypatch.setattr(ResultStore, "write_runs", write_runs)
    monkeypatch.setattr(algorithms, "run", lambda *a, **k: pytest.fail("a complete store ran a cell"))
    resume(plan, out)
    assert writes == []  # a clean complete store: only its metrics are written
    # junk after the last record, with or without a newline, and a last
    # record that lost its newline
    for torn in (full_runs + b'{"algorithm": "PS', full_runs + b'{"algorithm": "PS\n', full_runs[:-1]):
        (out / "runs.jsonl").write_bytes(torn)
        resume(plan, out)
        assert (out / "runs.jsonl").read_bytes() == full_runs
        assert (out / "metrics.csv").read_bytes() == full_metrics
    assert writes == [6, 6, 6]


def test_resume_rejects_altered_plan(tmp_path):
    plan = small_plan()
    out = tmp_path / "alt"
    execute(plan, out)
    with pytest.raises(ValueError):
        resume(replace(plan, master_seed=99), out)


def test_metric_rows_match_direct_computation(tmp_path):
    plan = small_plan()
    out = tmp_path / "m"
    execute(plan, out)
    records = ResultStore(out).read_runs()
    rows = compute_metric_rows(plan, records)
    a = np.array([records[("PSO", "F27", 5, r)]["checkpoints"]["30"] for r in range(3)])
    b = np.array([records[("mPSO", "F27", 5, r)]["checkpoints"]["30"] for r in range(3)])
    from swarmpp.metrics import relative_error, win_fraction

    frac, ties = win_fraction(a, b)
    re_a, re_b = relative_error(a, b)
    by_key = {(r[2], r[4], r[5]): r for r in rows}
    assert by_key[("F27", 30, "winning_proportion")][6] == repr(frac)
    assert by_key[("F27", 30, "relative_error_orig")][6] == repr(re_a)
    assert by_key[("ALL", 30, "relative_error_mod")][6] == repr(re_b)


def test_failed_cell_record_excluded_from_metrics(tmp_path, monkeypatch):
    # one stack: the groups (PSO, 5) and (mPSO, 5), three runs each; mPSO run
    # 1 meets a NaN at its first step, and the stack's other runs go on
    plan = small_plan()
    execute(plan, tmp_path / "whole")
    failing = derive_seed(7, "mPSO", "F27", 5, 1)
    real_run = algorithms.run

    def nan_after_init(fbatch):
        calls = []

        def f(X):
            calls.append(None)
            return fbatch(X) if len(calls) == 1 else np.full(len(X), np.nan)

        return f

    def run(config, fbatches, boxes, seeds, *args, **kwargs):
        fbatches = [nan_after_init(fb) if seed == failing else fb for fb, seed in zip(fbatches, seeds)]
        return real_run(config, fbatches, boxes, seeds, *args, **kwargs)

    monkeypatch.setattr(algorithms, "run", run)
    out = tmp_path / "f"
    with pytest.warns(UserWarning, match=r"excluded 1 failed run pair\(s\) for PSO/mPSO on F27 d=5"):
        rows = execute(plan, out)
    failed = [line for line in (out / "runs.jsonl").read_text().splitlines() if "failed" in line]
    assert failed == [
        '{"algorithm": "mPSO", "checkpoints": {}, "config_digest": "ef7b79379d08d2ad", '
        '"dimension": 5, "final_best_point": null, "final_best_value": null, "function": "F27", '
        '"n_evals": 0, "run": 1, "seed": 9600361120611314826, '
        '"status": "failed: non-finite objective value in a PSO step", '
        '"violations_c1": 0, "violations_c3": 0}'
    ]
    whole = (tmp_path / "whole" / "runs.jsonl").read_text().splitlines()
    assert [line for line in (out / "runs.jsonl").read_text().splitlines() if line not in whole] == failed
    records = ResultStore(out).read_runs()
    from swarmpp.metrics import win_fraction

    a = np.array([records[("PSO", "F27", 5, r)]["checkpoints"]["30"] for r in (0, 2)])
    b = np.array([records[("mPSO", "F27", 5, r)]["checkpoints"]["30"] for r in (0, 2)])
    frac, ties = win_fraction(a, b)
    by_key = {(r[2], r[4], r[5]): r for r in rows}
    assert by_key[("F27", 30, "winning_proportion")][6] == repr(frac)
    assert by_key[("ALL", 30, "winning_proportion")][7] == ties


class Interrupted(Exception):
    """Stands in for anything that stops a run between cells."""


def test_interrupted_execute_keeps_finished_cells(tmp_path, monkeypatch):
    # the plan lists mPSO first; cells still run and are stored in cell order,
    # as two stacks of five runs, (CSO, 5) then (mPSO, 5), one run() call
    # each (two families never share a stack)
    plan = small_plan(runs=5, algorithms=("mPSO", "CSO"), pairs=(("CSO", "mPSO"),))
    execute(plan, tmp_path / "whole")
    real_run = algorithms.run
    calls = []

    def run(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise Interrupted
        return real_run(*args, **kwargs)

    monkeypatch.setattr(algorithms, "run", run)
    out = tmp_path / "cut"
    with pytest.raises(Interrupted):
        execute(plan, out)
    assert len(ResultStore(out).read_runs()) == 5  # the finished group, no more
    monkeypatch.undo()
    resume(plan, out)
    for name in ("runs.jsonl", "metrics.csv"):
        assert (out / name).read_bytes() == (tmp_path / "whole" / name).read_bytes()
    records = [json.loads(line) for line in (out / "runs.jsonl").read_text().splitlines()]
    keys = [(r["algorithm"], r["function"], r["dimension"], r["run"]) for r in records]
    assert keys == plan.cells()


def test_resume_drops_torn_last_line(tmp_path, monkeypatch):
    plan = small_plan(algorithms=("PSO", "CSO"), pairs=(("CSO", "PSO"),))
    out = tmp_path / "t"
    execute(plan, out)
    full_runs = (out / "runs.jsonl").read_bytes()
    full_metrics = (out / "metrics.csv").read_bytes()
    lines = full_runs.decode().splitlines(keepends=True)
    (out / "runs.jsonl").write_text("".join(lines[:2]) + lines[2][: len(lines[2]) // 2])
    assert len(ResultStore(out).read_runs()) == 2
    # the rest is two stacks: the last run of (CSO, 5), then the three of
    # (PSO, 5).  As each stack starts, the store on disk holds every cell
    # finished before it, and the torn fragment is gone (a line after it
    # would not parse)
    real_run = algorithms.run
    on_disk = []

    def run(*args, **kwargs):
        on_disk.append(len(ResultStore(out).read_runs()))
        return real_run(*args, **kwargs)

    monkeypatch.setattr(algorithms, "run", run)
    resume(plan, out)
    assert on_disk == [2, 3]
    assert (out / "runs.jsonl").read_bytes() == full_runs
    assert (out / "metrics.csv").read_bytes() == full_metrics
    # only the last line may be cut short; a corrupt earlier line still raises
    (out / "runs.jsonl").write_text(lines[0] + lines[1][:20] + "\n" + "".join(lines[2:]))
    with pytest.raises(json.JSONDecodeError):
        ResultStore(out).read_runs()


def test_cells_in_cell_order():
    # cells sort by family, dimension, algorithm label, function label, run
    plan = small_plan(algorithms=("mPSO", "hmCSO", "PSO", "CSO", "hmPSO"),
                      dimensions=(5, 2), functions=("F27", "F13", "F1"))
    cells = plan.cells()
    family = {"CSO": 0, "hmCSO": 0, "PSO": 1, "hmPSO": 1, "mPSO": 1}
    assert cells == sorted(cells, key=lambda cell: (family[cell[0]], cell[2], cell[0], cell[1], cell[3]))
    assert len(set(cells)) == len(cells)
    assert len(cells) == 5 * len(plan.collection()) * plan.runs == 45
    # F13 is the d=2 member, F1 and F27 the d=5 ones
    assert [(alg, label, d) for alg, label, d, r in cells[:: plan.runs]] == [
        ("CSO", "F13", 2), ("hmCSO", "F13", 2),
        ("CSO", "F1", 5), ("CSO", "F27", 5), ("hmCSO", "F1", 5), ("hmCSO", "F27", 5),
        ("PSO", "F13", 2), ("hmPSO", "F13", 2), ("mPSO", "F13", 2),
        ("PSO", "F1", 5), ("PSO", "F27", 5), ("hmPSO", "F1", 5), ("hmPSO", "F27", 5),
        ("mPSO", "F1", 5), ("mPSO", "F27", 5),
    ]
    assert [r for _, _, _, r in cells[:6]] == [0, 1, 2, 0, 1, 2]


def _stacking_plans():
    """Plans over a grid of label subsets, dimensions, function subsets and
    runs, and the full protocol at 100 runs."""
    labels = [("PSO",), ("PSO", "mPSO"), ("hmCSO", "CSO", "mDE"), ("BAT", "hmBAT", "mBAT", "DE"),
              algorithms.ALGORITHM_LABELS]
    dims = [(2,), (5, 40), (2, 10, 20), objectives.COLLECTION_DIMS]
    functions = [None, ("F4", "F15", "F16", "F27")]
    for algs, ds, fs, runs in itertools.product(labels, dims, functions, (1, 3)):
        if any(spec.label in (fs or spec.label) for d in ds for spec, _ in objectives.list_collection(d)):
            yield small_plan(algorithms=algs, pairs=(), dimensions=ds, functions=fs, runs=runs)
    yield small_plan(algorithms=algorithms.ALGORITHM_LABELS, pairs=(), dimensions=objectives.COLLECTION_DIMS,
                     functions=None, runs=100)


def _check_stacks(stacks, cells, cap):
    family = lambda alg: algorithms.split_label(alg)[0]  # noqa: E731
    assert sum(stacks, []) == cells
    for stack in stacks:
        assert len({(family(alg), d) for alg, _, d, _ in stack}) == 1
        assert len(stack) * stack[0][2] <= cap
    # every merge that fits is made: a stack ends where the next group would
    # break its family and dimension, or the cap
    for stack, after in zip(stacks, stacks[1:]):
        alg, _, d, _ = after[0]
        if (family(alg), d) == (family(stack[0][0]), stack[0][2]):
            first = sum(1 for _ in itertools.takewhile(lambda cell: cell[0] == alg, after))
            assert (len(stack) + first) * d > cap


def test_groups_merge_a_familys_groups_within_the_largest():
    for plan in _stacking_plans():
        cells = plan.cells()
        sizes = collections.Counter((alg, d) for alg, _, d, _ in cells)
        largest = max(n * d for (_, d), n in sizes.items())  # the plan's largest group
        # at parallelism 1, the full protocol's largest group at the plan's
        # runs (14 members at d=40), never less than the plan's own
        protocol = plan.runs * 14 * 40
        assert largest <= protocol
        for parallelism, cap in ((1, protocol), (2, largest)):
            assert harness._cap(replace(plan, parallelism=parallelism)) == cap
            stacks = harness._groups(cells, cap)
            _check_stacks(stacks, cells, cap)
            # each (label, dimension) group lies whole in one stack
            assert all(sizes[key] == n for stack in stacks
                       for key, n in collections.Counter((alg, d) for alg, _, d, _ in stack).items())
            # the cells a resume runs are cut under the whole plan's cap
            for done in (1, len(cells) // 3, len(cells) - 1):
                _check_stacks(harness._groups(cells[done:], cap), cells[done:], cap)


def test_plan_refuses_repeated_dimensions_and_pairs():
    with pytest.raises(ValueError, match=r"dimensions must be distinct, got \[5, 2, 5\]"):
        small_plan(dimensions=(5, 2, 5))
    with pytest.raises(ValueError, match="pairs must be distinct"):
        small_plan(pairs=(("PSO", "mPSO"), ("PSO", "mPSO")))
    with pytest.raises(ValueError, match="dimensions must be distinct"):
        ExperimentPlan.from_dict(small_plan().to_dict() | {"dimensions": [5, 5]})
    with pytest.raises(ValueError, match="pairs must be distinct"):
        ExperimentPlan.from_dict(small_plan().to_dict() | {"pairs": [["PSO", "mPSO"], ["PSO", "mPSO"]]})
    # a pair and its reverse are two comparisons
    assert len(small_plan(pairs=(("PSO", "mPSO"), ("mPSO", "PSO"))).pairs) == 2


def test_record_line_is_sorted_json_dumps():
    cfg = algorithms.config_for_label("mPSO", n=4)
    box = objectives.default_domain(objectives.get("F27"), 20)
    ok = algorithms.run(cfg, objectives.batch_evaluator(objectives.get("F27"), 20), box, 3, 5, [0, 5]).to_dict()
    failed = algorithms.RunRecord(3, cfg.digest(), {}, None, None, status="failed: non-finite").to_dict()
    for rec in (ok | {"function": "F27", "dimension": 20}, failed):
        assert harness._record_line(rec) == json.dumps(rec, sort_keys=True) + "\n"


def test_execute_serialises_each_record_once(tmp_path, monkeypatch):
    plan = small_plan()
    real_record_line = harness._record_line
    calls = []

    def record_line(rec):
        calls.append(None)
        return real_record_line(rec)

    monkeypatch.setattr(harness, "_record_line", record_line)
    execute(plan, tmp_path / "once")
    assert len(calls) == len(plan.cells())


def _drop_middle_line(lines, plan):
    return lines[:2] + lines[3:], str(plan.cells()[3])


def _cell_outside_plan(lines, plan):
    stray = json.loads(lines[2]) | {"run": 99}
    return lines[:2] + [json.dumps(stray, sort_keys=True) + "\n"], str(("PSO", "F4", 2, 99))


def _repeated_line(lines, plan):
    return lines[:3] + lines[2:], str(plan.cells()[2])


def _label_dimension_order(lines, plan):
    # complete, in the order of stores written when members were sorted by
    # (label, dimension): F27@5 before F4@2, so the first line is out of place
    key = ("algorithm", "function", "dimension", "run")
    named = "record 1 is cell ('PSO', 'F27', 5, 0), not the plan's next cell in cell order"
    return sorted(lines, key=lambda line: tuple(json.loads(line)[k] for k in key)), named


def _label_major_order(lines, plan):
    # complete, in the order of stores written when cells were sorted by
    # algorithm label, then dimension: PSO's F27@5 before mPSO's F4@2
    key = ("algorithm", "dimension", "function", "run")
    named = "record 4 is cell ('PSO', 'F27', 5, 0), not the plan's next cell in cell order"
    return sorted(lines, key=lambda line: tuple(json.loads(line)[k] for k in key)), named


@pytest.mark.parametrize("doctor", [_drop_middle_line, _cell_outside_plan, _repeated_line, _label_dimension_order,
                                    _label_major_order])
def test_resume_refuses_store_out_of_cell_order(tmp_path, capsys, doctor):
    plan = small_plan(dimensions=(2, 5), functions=("F4", "F27"))
    out = tmp_path / "bad"
    execute(plan, out)
    fresh = {name: (out / name).read_bytes() for name in ("runs.jsonl", "metrics.csv")}
    lines = (out / "runs.jsonl").read_text().splitlines(keepends=True)
    doctored, named_cell = doctor(lines, plan)
    (out / "runs.jsonl").write_text("".join(doctored))
    before = (out / "runs.jsonl").read_bytes()
    with pytest.raises(ValueError, match="refusing to resume|two records") as exc:
        resume(plan, out)
    assert named_cell in str(exc.value)
    assert (out / "runs.jsonl").read_bytes() == before
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan.to_dict()))
    assert main(["run", str(plan_path), "--out", str(out)]) == 2
    assert named_cell in capsys.readouterr().err
    assert (out / "runs.jsonl").read_bytes() == before
    assert main(["run", str(plan_path), "--out", str(out), "--force"]) == 0
    for name, data in fresh.items():
        assert (out / name).read_bytes() == data


def test_killed_child_run_resumes_identically(tmp_path):
    # two stacks of 60 runs, (CSO, 5) then (PSO, 5), of ~0.1 s each: the
    # child is killed after the first stack's first record, before the
    # second stack's last
    plan = small_plan(algorithms=("PSO", "CSO"), pairs=(("CSO", "PSO"),), runs=20, functions=("F27", "F16", "F1"),
                      max_iter=100, checkpoints=(50, 100))
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan.to_dict()))
    out = tmp_path / "killed"
    runs_path = out / "runs.jsonl"
    src = str(Path(swarmpp.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    child = subprocess.Popen(
        [sys.executable, "-m", "swarmpp.cli", "run", str(plan_path), "--out", str(out)],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 120
        while not (runs_path.exists() and b"\n" in runs_path.read_bytes()):
            assert child.poll() is None, "the child exited before writing a record"
            assert time.monotonic() < deadline, "no record within 120 s"
            time.sleep(0.005)
        child.send_signal(signal.SIGKILL)
    finally:
        child.kill()
        child.wait(timeout=30)
    assert child.returncode == -signal.SIGKILL
    records = ResultStore(out).read_runs()
    cells = plan.cells()
    assert 1 <= len(records) < len(cells), "the child finished the plan before it was killed"
    assert list(records) == cells[: len(records)]
    assert main(["run", str(plan_path), "--out", str(out)]) == 0
    execute(plan, tmp_path / "whole")
    for name in ("runs.jsonl", "metrics.csv"):
        assert (out / name).read_bytes() == (tmp_path / "whole" / name).read_bytes()

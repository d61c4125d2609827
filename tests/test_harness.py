import collections
import concurrent.futures
import hashlib
import importlib.util
import io
import itertools
import json
import os
import re
import signal
import subprocess
import sys
import time
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import swarmpp
from swarmpp import algorithms, harness, metrics, objectives
from swarmpp.cli import main
from swarmpp.harness import (
    ExperimentPlan,
    ResultStore,
    StoreError,
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
    with pytest.raises(ValueError, match=re.escape("max_iter must be at least 0, got -1")):
        small_plan(max_iter=-1, checkpoints=())
    # a noise model given as its dict built, then failed at digest(); a plan
    # of no algorithm builds no AlgorithmConfig, so the plan checks it itself
    for algs, pairs in ((("PSO", "mPSO"), (("PSO", "mPSO"),)), ((), ())):
        with pytest.raises(TypeError, match=re.escape("noise must be a NoiseModel, got {'kind': 'gaussian'")):
            small_plan(algorithms=algs, pairs=pairs, noise={"kind": "gaussian", "sigma": 0.01})
    # per-family swarm constraints are checked when the plan is built
    with pytest.raises(ValueError, match="even swarm size"):
        small_plan(algorithms=("PSO", "CSO"), pairs=(("PSO", "CSO"),), n=5)
    with pytest.raises(ValueError, match="n >= 4"):
        small_plan(algorithms=("DE", "mDE"), pairs=(("DE", "mDE"),), n=3)
    # hmCSO at n=2 perturbs no loser, so a CSO:hmCSO pair would compare two
    # equal trajectories; CSO and mCSO still run at n=2
    with pytest.raises(ValueError, match="hpp CSO .* needs n >= 4"):
        small_plan(algorithms=("CSO", "hmCSO"), pairs=(("CSO", "hmCSO"),), n=2)
    assert small_plan(algorithms=("CSO", "mCSO"), pairs=(("CSO", "mCSO"),), n=2).n == 2
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
    with pytest.raises(ValueError, match=re.escape("a checkpoints entry must be at least 0, got -1")):
        small_plan(checkpoints=(-1, 3))
    with pytest.raises(ValueError, match="distinct"):
        small_plan(checkpoints=(2, 2, 3))
    assert small_plan(checkpoints=(0, 3)).checkpoints == (0, 3)
    # and integers, as runs is: 2.5 and 10.0 are refused (10.0 was read as 10),
    # and a numpy integer is stored as the int, the key runs.jsonl holds
    for bad in (2.5, 10.0):
        with pytest.raises(TypeError, match=re.escape(f"a checkpoints entry must be an integer, got {bad!r}")):
            small_plan(checkpoints=(bad, 30))
    assert [type(t) for t in small_plan(checkpoints=(np.int64(10), 30)).checkpoints] == [int, int]
    # a bool is no checkpoint, though int(True) is 1
    with pytest.raises(TypeError, match="a checkpoints entry must be an integer, got True"):
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


def test_every_integer_input_takes_one_check():
    # one check decides what an integer is, wherever it is given: before,
    # np.int64(4) was refused as a plan's n and taken as a config's, and a
    # float checkpoint or df was taken while a float runs was refused
    def plan_field(key):
        return lambda value: small_plan(**{key: value})

    inputs = [(key, plan_field(key), lo) for key, lo in
              (("runs", 1), ("max_iter", 0), ("n", 2), ("parallelism", 1), ("master_seed", None))] + [
        ("a dimensions entry", lambda value: small_plan(dimensions=(value,)), None),
        ("a checkpoints entry", lambda value: small_plan(checkpoints=(value,)), 0),
        ("n", lambda value: algorithms.AlgorithmConfig("PSO", n=value), 2),
        ("df", lambda value: NoiseModel(kind="scaled_t", df=value), 3),
        ("max_iter", lambda value: algorithms.check_checkpoints([], value), 0),
        ("a checkpoints entry", lambda value: algorithms.check_checkpoints([value], 30), 0),
        ("a seed", algorithms._seed_value, None),
    ]
    for name, take, lo in inputs:
        for bad in (True, np.True_, 2.0, "7", None):
            with pytest.raises(TypeError, match=re.escape(f"{name} must be an integer, got {bad!r}") + "$"):
                take(bad)
        if lo is not None:
            with pytest.raises(ValueError, match=re.escape(f"{name} must be at least {lo}, got {lo - 1}") + "$"):
                take(lo - 1)
    # a numpy integer is stored as the int, so the plan digests and seeds its
    # cells as the plan of Python ints does
    for key, value in (("runs", 3), ("max_iter", 30), ("n", 4), ("parallelism", 2), ("master_seed", 7),
                       ("dimensions", (5,)), ("checkpoints", (10, 30))):
        python = small_plan(**{key: value})
        given = small_plan(**{key: np.int64(value) if isinstance(value, int) else tuple(map(np.int64, value))})
        stored = getattr(given, key)
        assert {type(v) for v in (stored if isinstance(stored, tuple) else (stored,))} == {int}, key
        assert given.digest() == python.digest()
        assert [derive_seed(given.master_seed, *cell) for cell in given.cells()] == [
            derive_seed(python.master_seed, *cell) for cell in python.cells()]


def test_plan_bounds_runs_and_max_iter_up_front(monkeypatch):
    # a plan that cannot finish is refused when it is built: before, this one
    # built and digested, and a run would have listed 10**12 x members cells
    monkeypatch.setattr(ExperimentPlan, "cells", lambda self: pytest.fail("cells() was built"))
    with pytest.raises(ValueError, match=re.escape("runs must be at most 1000, got 1000000000000") + "$"):
        ExperimentPlan(runs=10**12, max_iter=10**400, checkpoints=(10,))
    for name, hi in (("runs", 1000), ("max_iter", 10**6)):
        for value in (hi + 1, 10**400):
            with pytest.raises(ValueError, match=re.escape(f"{name} must be at most {hi}, got {value}") + "$"):
                small_plan(**{name: value})
    # each bound itself is accepted, from Python and from JSON
    for plan in (small_plan(runs=1000, max_iter=10**6), ExperimentPlan.from_dict(
            small_plan().to_dict() | {"runs": 1000, "max_iter": 10**6})):
        assert (plan.runs, plan.max_iter) == (1000, 10**6)


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


def _tables(plan, records):
    """The plan's run tables, filled with `records` as resume fills them."""
    tables = harness._RunTables(plan)
    for key, rec in records.items():
        tables.add(key, rec)
    return tables


def _synthetic_records(runs: int):
    """A plan of PSO and mPSO on the 14 d=10 members and records made up for
    it: lognormal best-so-far values, wide enough apart that the order of a
    sum shows in its bits, with every value of F1 equal (zero spread), mPSO
    equal to PSO on F2's even runs (exact ties) and mPSO's run 3 on F16
    failed."""
    plan = ExperimentPlan(name="sums", algorithms=("PSO", "mPSO"), pairs=(("PSO", "mPSO"),), dimensions=(10,),
                          functions=None, runs=runs, max_iter=100, checkpoints=(0, 10, 50, 100))
    labels = [spec.label for spec, _ in plan.collection()]
    values = np.random.default_rng(runs).lognormal(0.0, 3.0, (2, len(labels), runs, 4))
    values[:, 0] = 1.5
    values[1, 1, ::2] = values[0, 1, ::2]
    keys = [str(t) for t in plan.checkpoints]
    records = {(alg, label, 10, r): {"status": "ok", "checkpoints": dict(zip(keys, values[i, f, r].tolist()))}
               for i, alg in enumerate(plan.algorithms) for f, label in enumerate(labels) for r in range(runs)}
    records[("mPSO", labels[5], 10, 3)] = {"status": "failed: non-finite objective value", "checkpoints": {}}
    return plan, records, labels


def test_metric_summation_order_is_pinned(tmp_path):
    # 9 and 20 runs and 14 functions pass the 8 values from which numpy's
    # pairwise sum departs from a plain loop, so a mean taken along another
    # axis or in another order changes these bytes; 8 or 19 runs are compared
    # on F16, grouped apart from the other functions.  The pins are the bytes
    # of the per-vector code (win_fraction and relative_error on each
    # function's runs) that metrics.pair_figures replaced
    pins = {9: "709ebf2a64b839e2a2454bb7920592f597b0a4dff7f4e39cca50868ea9e524d5",
            20: "7a9c0ba49e264d601c8528e9602234ae42217f8ed511aaa8d4b228b71ebf3d75"}
    for runs, pin in pins.items():
        plan, records, labels = _synthetic_records(runs)
        assert (labels[0], labels[1], labels[5]) == ("F1", "F2", "F16")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rows = compute_metric_rows(plan, _tables(plan, records))
        assert [str(w.message) for w in caught] == ["excluded 1 failed run pair(s) for PSO/mPSO on F16 d=10"]
        by_key = {(r[2], r[4], r[5]): r for r in rows}
        assert by_key[("F1", 50, "relative_error_mod")][6:] == ("0.0", runs)
        assert by_key[("F2", 50, "winning_proportion")][7] == (runs + 1) // 2
        store = ResultStore(tmp_path / str(runs))
        store.outdir.mkdir()
        store.write_metrics(rows)
        assert hashlib.sha256(store.metrics_path.read_bytes()).hexdigest() == pin


def _bench_module(name):
    """bench/<name>.py, imported by its path."""
    path = Path(__file__).resolve().parents[1] / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_workload_store_bytes_are_pinned(tmp_path):
    # the benchmark's three plans at seeds 1 and 2, built as `swarmpp run`
    # builds them: every draw, kernel, record and metric line of the
    # measured workloads
    workloads = _bench_module("workloads")
    pins = {
        ("trend-d10", 1): ("bccffba2a89eb7abeb9aebf0f36e7388d8f7f9c4a1553d6692ea3c06d85769c0",
                           "9c65e7c3bd6bef250098e0af9936a10cb40bec7b184ba77cdaceeb922ac9c066",
                           "90e748b18f66cca25d9325bc83738433064ecc6f7e2b797814fd950efa60714a"),
        ("trend-d10", 2): ("cb8afc3b95fbdb628596c6495cf094b37ab4dbd4ded3669967b014a2f86b2020",
                           "c552708842f028824d501f5bacc45659fee63e4ff13b5865011ecc2dafffbd76",
                           "c615b08bd3c0b8efac7c4be2daccd8dfc576393b73d2f6c6245c1b7aafd6afd3"),
        ("protocol-sample", 1): ("0a9707eec94bb6f7dc6373a51672d29785622ced6409ffb22efafe8118e39171",
                                 "35c06c7690fe341eb35751bd837064f594b86766bb4aa12258d2c3deab9c32b0",
                                 "521d2896db711e0eb5d9eda5e6e18a4e996d398127903588f2d679b4e2c945ee"),
        ("protocol-sample", 2): ("e427af12c83f70975f48e2ab2a37257fa262293affce103fb6b326c5e2026e30",
                                 "f3c1f48974de5d5736a5abe22e7e25e61b371129598b0f6b41ac086525bf3e2f",
                                 "b87d063bbcbc39102e08a4df7b6d0de99ee39a97f82755ac7bfec60372a1f5da"),
        ("store-roundtrip", 1): ("0d3c1199deea15fd50bb6a412ff194ea0d9cba52f50ffb6ebefd5d3e44c46b9d",
                                 "ef9c041037342ae9e5e3244d5c1c7125f250e0bc0263882dae0cf31dc1e3a8d8",
                                 "03df9eebb3c92bf1fcfba9c438ca0fb3dea2a0cd4fea8ba52edbd236a48a2ead"),
        ("store-roundtrip", 2): ("d63c58056c003c933c50c3c54f9942586d23d629743c3b113055b1588a10fa11",
                                 "bbc005dacafc9eae1cade0d6baf3dec7edfdc13f3bf5bad7d96b6d05e469b295",
                                 "5d4df36c1722db855538214185dcb4545644a05468c51e569688a7783138d768"),
    }
    assert sorted({w for w, _ in pins}) == sorted(workloads.WORKLOADS)
    for (workload, seed), pin in pins.items():
        plan_path, out = tmp_path / f"{workload}-{seed}.json", tmp_path / f"{workload}-{seed}"
        plan_path.write_text(json.dumps(workloads.plan_dict(workload, seed), indent=2) + "\n")
        execute(ExperimentPlan.from_json_file(plan_path), out)
        digests = tuple(hashlib.sha256((out / name).read_bytes()).hexdigest()
                        for name in ("runs.jsonl", "metrics.csv", "manifest.json"))
        assert digests == pin, (workload, seed)


def test_metrics_leave_numpy_ma_unloaded(tmp_path):
    # pair_figures groups by count without np.unique, which imports numpy.ma
    code = (
        "import sys\n"
        "from swarmpp import harness\n"
        "plan = harness.ExperimentPlan(name='t', algorithms=('PSO', 'mPSO'), pairs=(('PSO', 'mPSO'),),\n"
        "                              dimensions=(5,), functions=('F27',), runs=3, max_iter=10, checkpoints=(5, 10))\n"
        "harness.execute(plan, sys.argv[1])\n"
        "harness.resume(plan, sys.argv[1])\n"
        "sys.exit('numpy.ma' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    assert subprocess.run([sys.executable, "-c", code, str(tmp_path / "s")], env=env).returncode == 0
    assert (tmp_path / "s" / "metrics.csv").exists()


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
        groups = list(harness._groups(cells, cap))
        assert sum(groups, []) == cells
        assert [(tuple(dict.fromkeys(alg for alg, _, _, _ in g)), g[0][2], len(g)) for g in groups] == expected
        assert all({d for _, _, d, _ in g} == {g[0][2]} for g in groups)
        assert max(len(g) * g[0][2] for g in groups) == 2240
    # at 1 and 100 runs, the same 32 stacks, scaled by the runs, at any parallelism
    for runs in (1, 100):
        plan = replace(plan, runs=runs)
        for parallelism in (1, 2):
            groups = list(harness._groups(plan.cells(), harness._cap(replace(plan, parallelism=parallelism))))
            assert [(tuple(dict.fromkeys(alg for alg, _, _, _ in g)), g[0][2], len(g)) for g in groups] == [
                (labels, d, n * runs // 4) for labels, d, n in expected]


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
    stacks = list(harness._groups(cells, harness._cap(plan)))
    assert [(stack[0][0], stack[-1][0], len(stack)) for stack in stacks] == [("CSO", "hmCSO", 56), ("PSO", "hmPSO", 56)]
    assert harness._cap(replace(plan, parallelism=2)) == 28 * 10
    stacks = list(harness._groups(cells, harness._cap(replace(plan, parallelism=2))))
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
        groups = list(harness._groups(cells, harness._cap(replace(plan, parallelism=parallelism))))
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
    store.write_runs(keep.values())
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
        cells = list(cells)
        cut.append((len(cells), cap))
        return real_groups(cells, cap)

    monkeypatch.setattr(harness, "_groups", groups)
    for parallelism, expected in ((1, (5, 1120)), (2, (5, 30))):
        store.write_runs(list(store.read_runs().values())[:15])
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
        real_write_runs(self, records)
        writes.append(self.runs_path.read_bytes().count(b"\n"))  # the records written

    monkeypatch.setattr(ResultStore, "write_runs", write_runs)
    monkeypatch.setattr(algorithms, "run", lambda *a, **k: pytest.fail("a complete store ran a cell"))
    resume(plan, out)
    assert writes == []  # a clean complete store: only its metrics are written
    # junk after the last record, with or without a newline, a last record
    # that lost its newline, and junk after a blank line
    fragment = b'{"algorithm": "PS'
    for torn in (full_runs + fragment, full_runs + fragment + b"\n", full_runs[:-1], full_runs + b"\n" + fragment):
        (out / "runs.jsonl").write_bytes(torn)
        resume(plan, out)
        assert (out / "runs.jsonl").read_bytes() == full_runs
        assert (out / "metrics.csv").read_bytes() == full_metrics
    assert writes == [6, 6, 6, 6]
    # a blank line in mid-file is skipped, and a complete store that is not
    # torn is not rewritten, so the line stays
    lines = full_runs.splitlines(keepends=True)
    blank = b"".join(lines[:2]) + b"\n" + b"".join(lines[2:])
    (out / "runs.jsonl").write_bytes(blank)
    resume(plan, out)
    assert (out / "runs.jsonl").read_bytes() == blank
    assert (out / "metrics.csv").read_bytes() == full_metrics
    assert writes == [6, 6, 6, 6]


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
    rows = compute_metric_rows(plan, _tables(plan, records))
    a = np.array([records[("PSO", "F27", 5, r)]["checkpoints"]["30"] for r in range(3)])
    b = np.array([records[("mPSO", "F27", 5, r)]["checkpoints"]["30"] for r in range(3)])
    from swarmpp.metrics import relative_error, win_fraction

    frac, ties = win_fraction(a, b)
    re_a, re_b = relative_error(a, b)
    by_key = {(r[2], r[4], r[5]): r for r in rows}
    assert by_key[("F27", 30, "winning_proportion")][6] == repr(frac)
    assert by_key[("F27", 30, "relative_error_orig")][6] == repr(re_a)
    assert by_key[("ALL", 30, "relative_error_mod")][6] == repr(re_b)
    # a dimension with no listed member adds no row, and a plan without
    # pairs or checkpoints has none
    wider = replace(plan, dimensions=(2, 5))
    assert compute_metric_rows(wider, _tables(wider, records)) == rows
    no_pairs, no_checkpoints = replace(plan, pairs=()), replace(plan, checkpoints=())
    assert compute_metric_rows(no_pairs, _tables(no_pairs, records)) == []
    bare = {key: rec | {"checkpoints": {}} for key, rec in records.items()}  # the records such a plan's runs give
    assert compute_metric_rows(no_checkpoints, _tables(no_checkpoints, bare)) == []


@pytest.mark.parametrize("checkpoints, given, fault", [
    ((), [], "checkpoints [] are not an object"),
    ((), {"10": 1.0}, "checkpoint '10' is not one of the plan's ()"),
    ((10, 30), {"10": 1.0}, "checkpoint 30 is missing"),
    ((10, 30), {"10": 1.0, "30": False}, "checkpoint 30 is False, not a finite number"),
    ((10, 30), {"30": 1.0, "10": -float("inf")}, "checkpoint 10 is -inf, not a finite number"),
    # a missing checkpoint is named before an extra key, and refusals follow plan order
    ((10, 30), {"10": 1.0, "20": 1.0}, "checkpoint 30 is missing"),
    ((10, 30), {"30": "x", "20": 1.0}, "checkpoint 10 is missing"),
    ((10, 30), {"10": 1.0, "30": 2.0, "20": "x"}, "checkpoint '20' is not one of the plan's (10, 30)"),
])
def test_run_tables_refuse_checkpoints_that_are_not_the_plans(checkpoints, given, fault):
    # at plans of no checkpoint and of two; tests/test_cli.py runs the
    # faults of one through swarmpp run
    plan = small_plan(checkpoints=checkpoints)
    tables, key = harness._RunTables(plan), plan.cells()[0]
    with pytest.raises(ValueError) as exc:
        tables.add(key, {"status": "ok", "checkpoints": given})
    assert str(exc.value) == fault
    tables.add(key, {"status": "ok", "checkpoints": {str(t): 1 for t in checkpoints}})  # an int is a number
    tables.add(key, {"status": "failed: non-finite objective value", "checkpoints": given})


def test_stack_with_a_record_missing_stores_none_of_it(tmp_path, monkeypatch):
    # two stacks, of 8 and 12 runs (test_groups_run_alike_at_any_parallelism);
    # the second returns one record too few, and fails before it is stored
    plan = small_plan(runs=2, dimensions=(2, 5), functions=("F4", "F15", "F18", "F26", "F27"))
    real_run, stacks = algorithms.run, []

    def run(*args, **kwargs):
        stacks.append(real_run(*args, **kwargs))
        return stacks[-1][:-1] if len(stacks) == 2 else stacks[-1]

    monkeypatch.setattr(algorithms, "run", run)
    out = tmp_path / "short"
    with pytest.raises(RuntimeError, match="the PSO stack at d=5 returned 11 records for its 12 cells"):
        execute(plan, out)
    assert [len(stack) for stack in stacks] == [8, 12]
    assert [json.loads(line)["dimension"] for line in (out / "runs.jsonl").read_text().splitlines()] == [2] * 8


def _fail_after_init(monkeypatch, failing):
    """Patch algorithms.run so that the run of seed `failing` meets a NaN at
    its first step, while the other runs of its stack go on."""
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


def test_failed_cell_record_excluded_from_metrics(tmp_path, monkeypatch):
    # one stack: the groups (PSO, 5) and (mPSO, 5), three runs each; mPSO run
    # 1 meets a NaN at its first step, and the stack's other runs go on
    plan = small_plan()
    execute(plan, tmp_path / "whole")
    _fail_after_init(monkeypatch, derive_seed(7, "mPSO", "F27", 5, 1))
    out = tmp_path / "f"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rows = execute(plan, out)
    # once for the function, not once per checkpoint
    assert [str(w.message) for w in caught] == ["excluded 1 failed run pair(s) for PSO/mPSO on F27 d=5"]
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


def test_metrics_of_unequal_dimensions_with_a_failed_run_are_pinned(tmp_path, monkeypatch):
    # two dimensions of 2 and 3 members (d=2 is padded by a function slot),
    # two pairs that share a side, and mPSO's run 1 on F27 at d=5 failed:
    # metrics.csv keeps the bytes of per-(label, dimension) run tables
    plan = small_plan(algorithms=("PSO", "mPSO", "hmPSO"), pairs=(("PSO", "mPSO"), ("PSO", "hmPSO")),
                      dimensions=(2, 5), functions=("F4", "F15", "F18", "F26", "F27"))
    assert [(spec.label, d) for spec, d in plan.collection()] == [
        ("F4", 2), ("F18", 2), ("F15", 5), ("F26", 5), ("F27", 5)]
    _fail_after_init(monkeypatch, derive_seed(7, "mPSO", "F27", 5, 1))
    for step in (execute, resume):  # resume re-reads the complete store
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            step(plan, tmp_path / "s")
        assert [str(w.message) for w in caught] == ["excluded 1 failed run pair(s) for PSO/mPSO on F27 d=5"]
        digest = hashlib.sha256((tmp_path / "s" / "metrics.csv").read_bytes()).hexdigest()
        assert digest == "0d63696b287a5901998392345190cac55acbad5adef1b2893bd1dea0eb8b8821", step.__name__


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
    real_write_runs = ResultStore.write_runs
    writes = []

    def write_runs(self, records):
        real_write_runs(self, records)
        writes.append(self.runs_path.read_bytes().count(b"\n"))  # the records written

    monkeypatch.setattr(ResultStore, "write_runs", write_runs)
    resume(plan, out)
    assert on_disk == [2, 3]
    assert writes == [2]
    assert (out / "runs.jsonl").read_bytes() == full_runs
    assert (out / "metrics.csv").read_bytes() == full_metrics
    # partial stores: a blank line in mid-file, a complete last record that
    # lost its newline, a torn fragment after a blank line, and a torn
    # fragment that is not UTF-8.  Each is rewritten once, to its records
    # alone, before the missing cells run
    head = "".join(lines[:2]).encode()
    for partial, kept in (((lines[0] + "\n" + lines[1]).encode(), 2), ("".join(lines[:3])[:-1].encode(), 3),
                          (head + b"\n" + lines[2][:20].encode(), 2), (head + b'{"algorithm": "\xff', 2)):
        (out / "runs.jsonl").write_bytes(partial)
        writes.clear()
        resume(plan, out)
        assert writes == [kept]
        assert (out / "runs.jsonl").read_bytes() == full_runs
        assert (out / "metrics.csv").read_bytes() == full_metrics
    # only the last line may be cut short; a corrupt earlier line, cut short
    # or not UTF-8, still raises, and resume leaves the store as it is
    cut = (lines[0] + lines[1][:20] + "\n" + "".join(lines[2:])).encode()
    for corrupt, fault in ((cut, ""), (full_runs.replace(b"\n", b"\n\xff", 1), "'utf-8' codec can't decode byte 0xff")):
        (out / "runs.jsonl").write_bytes(corrupt)
        with pytest.raises(StoreError, match=f"runs.jsonl line 2 is not JSON: {fault}"):
            ResultStore(out).read_runs()
        writes.clear()
        with pytest.raises(StoreError, match=f"runs.jsonl line 2 is not JSON: {fault}"):
            resume(plan, out)
        assert writes == []
        assert (out / "runs.jsonl").read_bytes() == corrupt


@pytest.mark.parametrize("number", [2, 4])
@pytest.mark.parametrize("line", ["[1, 2]", '{"algorithm": "PSO"}', "7"])
def test_runs_jsonl_line_that_is_no_record_is_refused(tmp_path, line, number):
    # a line that parses is a record or an error, wherever it stands: only
    # an unparsable last line is torn, even without its newline
    plan = small_plan(runs=2)
    out = tmp_path / "s"
    execute(plan, out)
    lines = (out / "runs.jsonl").read_text().splitlines(keepends=True)
    lines[number - 1] = line + ("\n" if number < len(lines) else "")
    (out / "runs.jsonl").write_text("".join(lines))
    before = (out / "runs.jsonl").read_bytes()
    message = f"runs.jsonl line {number} is not a run record"
    with pytest.raises(ValueError, match=message):
        ResultStore(out).read_runs()
    with pytest.raises(ValueError, match=message):
        resume(plan, out)
    assert (out / "runs.jsonl").read_bytes() == before


def test_bench_tracing_restores_what_it_patches():
    # bench/tracing.py replaces these program names for a traced round
    # (`bench/run.py --trace 1`), looked up by name: a rename or deletion
    # fails here, and every patched attribute must be restored on exit
    tracing = _bench_module("tracing")
    owners = (objectives, algorithms, harness, metrics, ResultStore)
    before = [dict(vars(owner)) for owner in owners]

    def changed():
        return {(owner.__name__, name) for owner, old in zip(owners, before)
                for name in old.keys() | vars(owner).keys() if vars(owner).get(name) is not old.get(name)}

    with tracing.traced_program(tracing.Tracer()):
        patched = changed()
    needed = {"swarmpp.objectives": ("batch_evaluator",), "swarmpp.algorithms": ("sample_noise", "step", "run"),
              "swarmpp.harness": ("compute_metric_rows",), "swarmpp.metrics": ("win_fraction", "relative_error"),
              "ResultStore": ("write_manifest", "write_runs", "read_runs", "write_metrics")}
    assert patched >= {(owner, name) for owner, names in needed.items() for name in names}
    assert changed() == set()


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
            stacks = list(harness._groups(cells, cap))
            _check_stacks(stacks, cells, cap)
            # each (label, dimension) group lies whole in one stack
            assert all(sizes[key] == n for stack in stacks
                       for key, n in collections.Counter((alg, d) for alg, _, d, _ in stack).items())
            # the cells a resume runs are cut under the whole plan's cap
            for done in (1, len(cells) // 3, len(cells) - 1):
                _check_stacks(list(harness._groups(cells[done:], cap)), cells[done:], cap)


def test_groups_cut_a_group_larger_than_the_cap():
    # past 100 runs the cap stays at the full protocol's largest group at 100
    # runs (100 x 560), at any parallelism, and a (label, dimension) group
    # larger than that is cut into stacks of cap // d cells: before, at 400
    # runs each d=40 group stepped as one stack of 5600 runs, 224 000
    # run-coordinates.  Groups that fit still merge whole
    plan = small_plan(algorithms=algorithms.ALGORITHM_LABELS, pairs=(), dimensions=objectives.COLLECTION_DIMS,
                      functions=None)
    prefixes = ("", "hm", "m")
    per_family = {  # runs -> (label prefixes, d, runs) of each of a family's stacks
        101: [(prefixes, 2, 3939), (prefixes, 5, 4545), (prefixes, 10, 4242)]
        + [((p,), 20, 1414) for p in prefixes] + [((p,), 40, n) for p in prefixes for n in (1400, 14)],
        400: [(prefixes, 2, 15600)] + [((p,), 5, 6000) for p in prefixes] + [((p,), 10, 5600) for p in prefixes]
        + [((p,), 20, 2800) for p in prefixes for _ in range(2)] + [((p,), 40, 1400) for p in prefixes for _ in range(4)],
    }
    for runs, shape in per_family.items():
        plan = replace(plan, runs=runs)
        cells = plan.cells()
        expected = [(tuple(p + fam for p in labels), d, n) for fam in ("BAT", "CSO", "DE", "PSO") for labels, d, n in shape]
        for parallelism in (1, 2):
            cap = harness._cap(replace(plan, parallelism=parallelism))
            assert cap == 56_000
            stacks = list(harness._groups(cells, cap))
            _check_stacks(stacks, cells, cap)
            assert [(tuple(dict.fromkeys(alg for alg, _, _, _ in g)), g[0][2], len(g)) for g in stacks] == expected
            assert max(len(stack) * stack[0][2] for stack in stacks) == 56_000


def test_groups_stacks_are_pinned():
    # the stacks of the 12-label protocol, each stack's repr and a newline
    # into one sha256, at 1 to 400 runs and parallelism 1 and 2: the values
    # that _groups gave over the listed cells before it took them as a stream
    plan = small_plan(algorithms=algorithms.ALGORITHM_LABELS, pairs=(), dimensions=objectives.COLLECTION_DIMS,
                      functions=None)
    pins = {1: "3d75f4abd4b9ef96fdd4ca2756166d84fad5b3162804ff2c2dba445d44dda1ec",
            4: "bebd7e81863365fa0b4caa89b575c436ec314b95690935d02f9de8bd3a666862",
            100: "ed44e2e75ce0973fe028f7c22c74b05e6d74dad75969778583bf6c51d03983d3",
            101: "684db1804c4572cd71d8c467d06157321251f7c4f5cedb39200e2fbdd2fbd5ac",
            400: "8fd3abc99c1951765a2c0d74cfaa42e71e59e33f49fbfc30af62f3fe8190e58b"}
    for runs, pin in pins.items():
        for parallelism in (1, 2):
            given = replace(plan, runs=runs, parallelism=parallelism)
            digest = hashlib.sha256()
            for stack in harness._groups(given.iter_cells(), harness._cap(given)):
                digest.update(repr(stack).encode() + b"\n")
            assert digest.hexdigest() == pin, (runs, parallelism)


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


def test_execute_writes_each_stack_once(tmp_path, monkeypatch):
    # two stacks, of 8 and 12 runs (test_groups_run_alike_at_any_parallelism):
    # each stack's lines reach runs.jsonl in one write, at its one flush
    plan = small_plan(runs=2, dimensions=(2, 5), functions=("F4", "F15", "F18", "F26", "F27"))
    writes = []

    class Counted(io.FileIO):
        def write(self, data):
            writes.append(bytes(data).count(b"\n"))
            return super().write(data)

    def spy_open(path, mode="r", **kwargs):
        if mode == "a":
            return io.TextIOWrapper(io.BufferedWriter(Counted(path, mode)), **kwargs)
        return open(path, mode, **kwargs)

    monkeypatch.setattr(harness, "open", spy_open, raising=False)
    execute(plan, tmp_path / "w")
    assert writes == [8, 12]
    monkeypatch.undo()
    execute(plan, tmp_path / "plain")
    assert (tmp_path / "w" / "runs.jsonl").read_bytes() == (tmp_path / "plain" / "runs.jsonl").read_bytes()


def test_label_configs_are_built_once_per_call(tmp_path, monkeypatch):
    # all 12 labels at two dimensions, so each family runs two stacks: the
    # record checks and the stacks share one config per label and call
    plan = small_plan(algorithms=algorithms.ALGORITHM_LABELS, pairs=(("PSO", "mPSO"),), dimensions=(2, 5),
                      functions=("F4", "F27"), runs=2, max_iter=2, checkpoints=(2,))
    real_config_for_label, built = harness.config_for_label, collections.Counter()

    def config_for_label(label, **kwargs):
        built[label] += 1
        return real_config_for_label(label, **kwargs)

    monkeypatch.setattr(harness, "config_for_label", config_for_label)
    execute(plan, tmp_path / "s")
    assert set(built) <= set(plan.algorithms) and max(built.values()) == 1
    built.clear()
    resume(plan, tmp_path / "s")
    assert built == dict.fromkeys(plan.algorithms, 1)


def test_execute_and_resume_hold_no_records(tmp_path, monkeypatch):
    # the tracemalloc peak of execute, and of resume on the complete store,
    # at 500 and at 2000 records: each record past the first 500 may cost
    # what its run table and the metric arithmetic need (24 and 59 B; the
    # table alone is 16 B), not a record dict (~1.1 and ~2.7 KB when they
    # were kept), a listed cell (85 and 154 B when the cells were listed),
    # per-pair tables stacked for the metrics (32 and 115 B) nor the pair
    # sides stacked again in metrics.pair_figures (83 B on resume).
    # Stacks hold 50 cells at any runs, so only the records grow
    monkeypatch.setattr(harness, "_cap", lambda plan: 100)
    plans = {runs: small_plan(dimensions=(2,), functions=("F4",), runs=runs, max_iter=1, checkpoints=(0, 1))
             for runs in (250, 1000)}
    for runs, plan in plans.items():
        execute(plan, tmp_path / f"warm{runs}")  # imports and caches
    peaks = {}
    for runs, plan in plans.items():
        for step in (execute, resume):
            tracemalloc.start()
            try:
                step(plan, tmp_path / str(runs))
                peaks[step.__name__, runs] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
    for step, bound in (("execute", 50), ("resume", 70)):
        per_record = (peaks[step, 1000] - peaks[step, 250]) / (2 * 750)
        assert per_record < bound, f"{step}: {per_record:.0f} B per record"


def _drop_middle_line(lines, plan):
    return lines[:2] + lines[3:], str(plan.cells()[3])


def _cell_outside_plan(lines, plan):
    stray = json.loads(lines[2]) | {"run": 99}
    return lines[:2] + [json.dumps(stray, sort_keys=True) + "\n"], str(("PSO", "F4", 2, 99))


def _repeated_line(lines, plan):
    return lines[:3] + lines[2:], str(plan.cells()[2])


def _line_past_the_last_cell(lines, plan):
    return lines + lines[-1:], str(plan.cells()[-1])


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


@pytest.mark.parametrize("doctor", [_drop_middle_line, _cell_outside_plan, _repeated_line, _line_past_the_last_cell,
                                    _label_dimension_order, _label_major_order])
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


def _another_masters_record(rec, plan, tmp_path):
    # the same cell's record from a store of another master seed
    execute(replace(plan, master_seed=8), tmp_path / "other")
    other = next(r for key, r in ResultStore(tmp_path / "other").scan_runs() if key == ("PSO", "F27", 5, 1))
    return other, f"seed {other['seed']} is not the cell's, {rec['seed']}"


def _float_seed(rec, plan, tmp_path):
    return rec | {"seed": float(rec["seed"])}, f"seed {float(rec['seed'])!r} is not the cell's, {rec['seed']}"


def _another_labels_digest(rec, plan, tmp_path):
    digest = algorithms.config_for_label("mPSO", n=plan.n, noise=plan.noise).digest()
    return rec | {"config_digest": digest}, f"config_digest {digest!r} is not PSO's, {rec['config_digest']!r}"


def _another_noises_digest(rec, plan, tmp_path):
    digest = algorithms.config_for_label("PSO", n=plan.n, noise=NoiseModel(sigma=0.5)).digest()
    return rec | {"config_digest": digest}, f"config_digest {digest!r} is not PSO's, {rec['config_digest']!r}"


def _status_without_reason(rec, plan, tmp_path):
    return rec | {"status": "failed"}, "status 'failed' is neither 'ok' nor 'failed: <reason>'"


def _status_not_a_string(rec, plan, tmp_path):
    return rec | {"status": 0}, "status 0 is neither 'ok' nor 'failed: <reason>'"


@pytest.mark.parametrize("doctor", [_another_masters_record, _float_seed, _another_labels_digest,
                                    _another_noises_digest, _status_without_reason, _status_not_a_string])
def test_resume_refuses_a_record_that_is_not_the_plans(tmp_path, doctor):
    # record 2, the cell ('PSO', 'F27', 5, 1), in its place but not the one
    # the plan gives it: resume names the record and the field, and the
    # store keeps its bytes.  tests/test_cli.py runs these through swarmpp run
    plan = small_plan()
    out = tmp_path / "s"
    execute(plan, out)
    lines = (out / "runs.jsonl").read_text().splitlines(keepends=True)
    rec = json.loads(lines[1])
    assert rec["seed"] == derive_seed(plan.master_seed, "PSO", "F27", 5, 1)
    doctored, fault = doctor(rec, plan, tmp_path)
    lines[1] = json.dumps(doctored, sort_keys=True) + "\n"
    (out / "runs.jsonl").write_text("".join(lines))
    before = {name: (out / name).read_bytes() for name in ("runs.jsonl", "metrics.csv")}
    with pytest.raises(StoreError) as exc:
        resume(plan, out)
    assert str(exc.value) == f"runs.jsonl record 2 (cell ('PSO', 'F27', 5, 1)): {fault}; refusing to resume"
    assert {name: (out / name).read_bytes() for name in before} == before


def test_execute_and_resume_build_no_cell_list(tmp_path, monkeypatch):
    # the cells stream from ExperimentPlan.iter_cells into the stacks: a
    # fresh run, a resume of a partial store and a run at parallelism 2
    # never list them
    plan = small_plan(runs=2, dimensions=(2, 5), functions=("F4", "F15", "F18", "F26", "F27"))
    execute(plan, tmp_path / "whole")
    whole = (tmp_path / "whole" / "runs.jsonl").read_bytes()
    monkeypatch.setattr(ExperimentPlan, "cells", lambda self: pytest.fail("cells() was built"))
    out = tmp_path / "s"
    execute(plan, out)
    (out / "runs.jsonl").write_bytes(b"".join(whole.splitlines(keepends=True)[:11]))
    resume(plan, out)
    execute(replace(plan, parallelism=2), tmp_path / "p2")
    assert (out / "runs.jsonl").read_bytes() == (tmp_path / "p2" / "runs.jsonl").read_bytes() == whole


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

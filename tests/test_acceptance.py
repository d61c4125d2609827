"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -s` to see them
live).  The trend criteria run scaled-down benchmark plans and take a few
minutes in total.
"""

import numpy as np
import pytest

import swarmpp as sp
from swarmpp import objectives as ob
from swarmpp.harness import ExperimentPlan, ResultStore, derive_seed, execute
from swarmpp.metrics import relative_error, win_fraction
from swarmpp.perturbation import NoiseModel


def _report(num, name, ok):
    print(f"\nACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} ({name}) failed"


# --- 1. invariant suite -----------------------------------------------------

def test_criterion_1_invariants():
    funcs = ("F1", "F8", "F16", "F23", "F27")
    violations = 0
    for label in sp.ALGORITHM_LABELS:
        cfg = sp.config_for_label(label)
        for flabel in funcs:
            spec = ob.get(flabel)
            box = ob.default_domain(spec, 5)
            fb = ob.batch_evaluator(spec, 5)
            for seed in (1, 2, 3):
                rec = sp.run(cfg, fb, box, seed, 500, [500])
                violations += rec.violations_c1 + rec.violations_c3
    _report(1, "invariants", violations == 0)


# --- 2. determinism across parallelism --------------------------------------

def test_criterion_2_determinism(tmp_path):
    def plan(par):
        return ExperimentPlan(
            name="det",
            algorithms=("PSO", "mPSO"),
            pairs=(("PSO", "mPSO"),),
            dimensions=(5,),
            functions=("F27", "F16"),
            runs=4,
            max_iter=50,
            checkpoints=(25, 50),
            master_seed=11,
            parallelism=par,
        )

    execute(plan(1), tmp_path / "p1")
    execute(plan(1), tmp_path / "p1b")
    execute(plan(8), tmp_path / "p8")
    ok = (
        (tmp_path / "p1" / "metrics.csv").read_bytes()
        == (tmp_path / "p1b" / "metrics.csv").read_bytes()
        == (tmp_path / "p8" / "metrics.csv").read_bytes()
    )
    _report(2, "determinism", ok)


# --- 3. metric oracles -------------------------------------------------------

def test_criterion_3_metric_oracles():
    ok = True
    frac, ties = win_fraction([2.0, 2.0, 2.0, 2.0], [1.0, 2.0, 3.0, 4.0])
    ok &= frac == 0.375 and ties == 1
    ok &= win_fraction([3.0], [3.0])[0] == 0.5
    ok &= relative_error([0.0, 1.0], [2.0, 4.0]) == (0.125, 0.75)
    ok &= relative_error([0.0, 0.0], [1.0, 1.0]) == (0.0, 1.0)
    ok &= relative_error([5.0, 5.0], [5.0, 5.0]) == (0.0, 0.0)
    rng = np.random.default_rng(0)
    a = rng.normal(2, 1, 60)
    b = rng.normal(2.2, 1, 60)
    base = relative_error(a, b)
    for _ in range(100):
        c = rng.uniform(1e-8, 1e8)
        shift = rng.uniform(-1e3, 1e3)
        got = relative_error(c * a + shift * c, c * b + shift * c)
        ok &= abs(got[0] - base[0]) < 1e-10 and abs(got[1] - base[1]) < 1e-10
    _report(3, "metric oracles", bool(ok))


# --- 4. projection oracle ----------------------------------------------------

def test_criterion_4_projection_oracle():
    rng = np.random.default_rng(4)
    ok = True
    for _ in range(1000):
        d = int(rng.integers(1, 4))
        lo = rng.uniform(-3, 0, d)
        hi = lo + rng.uniform(0.5, 3, d)
        box = sp.Box(lo, hi)
        x = rng.normal(0, 4, d)
        p = sp.project(x, box)
        # brute force: nearest point among a per-axis grid of the box
        axes = [np.linspace(lo[k], hi[k], 41) for k in range(d)]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
        nearest = mesh[np.argmin(np.sum((mesh - x) ** 2, axis=1))]
        resolution = max((hi - lo) / 40)
        ok &= np.max(np.abs(p - nearest)) <= resolution + 1e-12
    box = sp.Box.cube(-1, 1, 5)
    for _ in range(10_000):
        x = rng.normal(0, 3, 5)
        p = sp.project(x, box)
        ok &= np.array_equal(sp.project(p, box), p)
        y = sp.sample_uniform(box, rng)
        ok &= np.linalg.norm(p - y) <= np.linalg.norm(x - y) + 1e-12
    _report(4, "projection oracle", bool(ok))


# --- 5. convergence smoke ----------------------------------------------------

def test_criterion_5_convergence_smoke():
    spec = ob.get("F27")
    box = ob.default_domain(spec, 5)
    fb = ob.batch_evaluator(spec, 5)
    ok = True
    for label in ("mPSO", "mBAT", "mCSO"):
        cfg = sp.config_for_label(label)
        # the 20 seeds step as one stack; each record is its seed's run alone
        seeds = [derive_seed(500, label, "F27", 5, run_idx) for run_idx in range(20)]
        recs = sp.run(cfg, [fb] * 20, [box] * 20, seeds, 10_000, [10_000], check_invariants=False)
        hits = sum(rec.checkpoints[10_000] <= 1e-2 for rec in recs)
        print(f"  {label}: {hits}/20 runs reached 1e-2")
        ok &= hits >= 18
    _report(5, "convergence smoke", bool(ok))


# --- 6 & 7. scaled-down benchmark trend --------------------------------------

@pytest.fixture(scope="module")
def trend_store(tmp_path_factory):
    plan = ExperimentPlan(
        name="trend",
        algorithms=("PSO", "hmPSO", "CSO", "hmCSO"),
        pairs=(("PSO", "hmPSO"), ("CSO", "hmCSO")),
        dimensions=(10,),
        functions=None,
        runs=20,
        max_iter=3000,
        checkpoints=(50, 100, 200, 400, 1000, 3000),
        master_seed=2718,
        parallelism=1,
    )
    out = tmp_path_factory.mktemp("trend")
    execute(plan, out)
    return out


def _aggregated(store_dir, pair, metric, checkpoint):
    lines = (ResultStore(store_dir).metrics_path).read_text().splitlines()[1:]
    for line in lines:
        parts = line.split(",")
        if (
            parts[1] == pair
            and parts[2] == "ALL"
            and parts[4] == str(checkpoint)
            and parts[5] == metric
        ):
            return float(parts[6])
    raise KeyError((pair, metric, checkpoint))


def test_criterion_6_winning_proportion_trend(trend_store):
    p_cso = _aggregated(trend_store, "CSO:hmCSO", "winning_proportion", 3000)
    p_pso = _aggregated(trend_store, "PSO:hmPSO", "winning_proportion", 3000)
    print(f"  P(hmCSO>CSO)(3000) = {p_cso:.3f}, P(hmPSO>PSO)(3000) = {p_pso:.3f}")
    _report(6, "winning-proportion trend", p_cso >= 0.55 and p_pso >= 0.55)


def test_criterion_7_relative_error_trend(trend_store):
    re_orig = _aggregated(trend_store, "PSO:hmPSO", "relative_error_orig", 3000)
    re_mod = _aggregated(trend_store, "PSO:hmPSO", "relative_error_mod", 3000)
    print(f"  RE(PSO)={re_orig:.3f}, RE(hmPSO)={re_mod:.3f} at t=3000")
    _report(7, "relative-error trend", re_mod < re_orig)


# --- 8. noise-sweep sanity ---------------------------------------------------

def test_criterion_8_noise_sweep(tmp_path):
    checkpoints = (50, 100, 200, 400, 1000)

    def sweep_plan(noise):
        return ExperimentPlan(
            name="sweep",
            algorithms=("CSO", "hmCSO"),
            pairs=(("CSO", "hmCSO"),),
            dimensions=(10,),
            runs=10,
            max_iter=1000,
            checkpoints=checkpoints,
            master_seed=31415,
            noise=noise,
            parallelism=1,
        )

    settings = {
        "g005": NoiseModel(kind="gaussian", sigma=0.005),
        "g01": NoiseModel(kind="gaussian", sigma=0.01),
        "t60": NoiseModel(kind="scaled_t", df=60),
    }
    curves = {}
    for tag, noise in settings.items():
        out = tmp_path / tag
        execute(sweep_plan(noise), out)
        curves[tag] = [
            _aggregated(out, "CSO:hmCSO", "winning_proportion", t) for t in checkpoints
        ]
    gap_sigma = max(abs(a - b) for a, b in zip(curves["g005"], curves["g01"]))
    gap_tail = max(abs(a - b) for a, b in zip(curves["t60"], curves["g01"]))
    print(f"  max gap sigma 0.005 vs 0.01: {gap_sigma:.3f}; t(60) vs gaussian 0.01: {gap_tail:.3f}")
    _report(8, "noise-sweep sanity", gap_sigma <= 0.15 and gap_tail <= 0.15)


# --- 9. golden traces ---------------------------------------------------------

def test_criterion_9_golden_traces():
    from test_algorithms import (
        GOLDEN_BAT_X,
        GOLDEN_CSO_X,
        GOLDEN_DE_X,
        GOLDEN_PSO_X,
        _golden_state,
    )

    ok = True
    for family, n, seeds, pinned in (
        ("PSO", 2, (101, 202), GOLDEN_PSO_X),
        ("BAT", 2, (303, 404), GOLDEN_BAT_X),
        ("CSO", 4, (505, 606), GOLDEN_CSO_X),
        ("DE", 4, (707, 808), GOLDEN_DE_X),
    ):
        st = _golden_state(family, n, *seeds)
        ok &= np.array_equal(st.X, np.asarray(pinned))
    _report(9, "golden traces", bool(ok))

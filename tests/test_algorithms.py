import collections
import hashlib
import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from swarmpp import algorithms, objectives
from swarmpp.algorithms import (
    ALGORITHM_LABELS,
    AlgorithmConfig,
    RunRecord,
    _check_invariants,
    _de_draws_loop,
    config_for_label,
    init_state,
    run,
    step,
)
from swarmpp.perturbation import NoiseModel
from swarmpp.search_space import Box, contains, sample_uniform

BOX = Box.cube(-1, 1, 2)


def sphere(X):
    return np.sum(np.asarray(X) ** 2, axis=-1)


TINY = NoiseModel(sigma=1e-300)  # degenerate noise: below one ulp of any position


def test_config_validation():
    with pytest.raises(ValueError):
        AlgorithmConfig("CSO", n=5)
    with pytest.raises(ValueError):
        AlgorithmConfig("DE", n=3)
    with pytest.raises(ValueError):
        AlgorithmConfig("PSO", n=1)
    with pytest.raises(ValueError):
        AlgorithmConfig("GA")
    with pytest.raises(ValueError):
        AlgorithmConfig("PSO", variant="xpp")


def test_label_mapping():
    assert len(ALGORITHM_LABELS) == 12
    assert config_for_label("hmCSO").variant == "hpp"
    assert config_for_label("mBAT").variant == "pp"
    assert config_for_label("DE").variant == "base"
    with pytest.raises(ValueError):
        config_for_label("mXYZ")


def test_init_state():
    cfg = AlgorithmConfig("PSO", n=2)
    rng = np.random.default_rng(1)
    st = init_state(cfg, BOX, sphere, rng)
    assert st.gbest_f == min(sphere(st.X))
    np.testing.assert_array_equal(st.V, 0.0)
    np.testing.assert_array_equal(st.pbest_X, st.X)


def test_init_contained_many_seeds():
    cfg = AlgorithmConfig("CSO", n=8)
    for seed in range(1000):
        st = init_state(cfg, BOX, sphere, np.random.default_rng(seed))
        assert contains(st.X, BOX)


def test_init_deterministic():
    cfg = AlgorithmConfig("BAT", n=4)
    a = init_state(cfg, BOX, sphere, np.random.default_rng(3))
    b = init_state(cfg, BOX, sphere, np.random.default_rng(3))
    np.testing.assert_array_equal(a.X, b.X)


def _one_step(cfg, seed_dyn=11, seed_noise=12):
    rng = np.random.default_rng(seed_dyn)
    rng_noise = np.random.default_rng(seed_noise)
    st = init_state(cfg, BOX, sphere, rng)
    before = st.X.copy()
    step(st, cfg, BOX, sphere, rng, rng_noise)
    return before, st


def test_pso_zero_constants_freeze_positions():
    cfg = AlgorithmConfig("PSO", "pp", n=4, w=0.0, c1=0.0, c2=0.0, noise=TINY)
    before, st = _one_step(cfg)
    np.testing.assert_array_equal(st.X, before)


def test_pso_velocity_identity_single_memory():
    # with pbest == gbest the velocity collapses to (c1 U1 + c2 U2) o (p - x)
    cfg = AlgorithmConfig("PSO", n=2, w=0.3)
    rng = np.random.default_rng(21)
    st = init_state(cfg, BOX, sphere, rng)
    j = int(np.argmin(st.fvals))
    st.pbest_X[:] = st.X[j]
    st.pbest_f[:] = st.fvals[j]
    x_before = st.X.copy()
    rng_check = np.random.default_rng(21)
    rng_check.uniform(BOX.lower, BOX.upper, size=(2, 2))  # replay init draws
    U1 = rng_check.random((2, 2))
    U2 = rng_check.random((2, 2))
    expected_v = (1.5 * U1 + 1.5 * U2) * (st.pbest_X - x_before)
    step(st, cfg, BOX, sphere, rng, np.random.default_rng(0))
    np.testing.assert_allclose(st.V, expected_v, rtol=1e-12, atol=1e-15)


def test_bat_forced_revert_freezes_positions():
    cfg = AlgorithmConfig(
        "BAT", "pp", n=4, q_min=0.0, q_max=0.0, pulse_rate=1.0, loudness=1.0, noise=TINY
    )
    before, st = _one_step(cfg)
    np.testing.assert_array_equal(st.X, before)


def test_bat_zero_velocity_candidate_equals_current():
    # r0=1 always takes the x+v branch; v stays 0, so accepted moves are no-ops
    cfg = AlgorithmConfig(
        "BAT", "pp", n=4, q_min=0.0, q_max=0.0, pulse_rate=1.0, loudness=0.0, noise=TINY
    )
    before, st = _one_step(cfg)
    np.testing.assert_array_equal(st.X, before)


def test_cso_winner_invariance():
    cfg = AlgorithmConfig("CSO", "pp", n=2, noise=NoiseModel(sigma=0.05))
    rng = np.random.default_rng(31)
    st = init_state(cfg, BOX, sphere, rng)
    best = int(np.argmin(st.fvals))
    x_best = st.X[best].copy()
    step(st, cfg, BOX, sphere, rng, np.random.default_rng(32))
    np.testing.assert_array_equal(st.X[best], x_best)


def test_cso_winner_invariance_many():
    cfg = AlgorithmConfig("CSO", "hpp", n=8, noise=NoiseModel(sigma=0.05))
    for seed in range(50):
        rng = np.random.default_rng(seed)
        st = init_state(cfg, BOX, sphere, rng)
        best = int(np.argmin(st.fvals))
        x_best = st.X[best].copy()
        step(st, cfg, BOX, sphere, rng, np.random.default_rng(seed + 1))
        np.testing.assert_array_equal(st.X[best], x_best)


def test_cso_phi_zero_ignores_mean():
    # phi=0 must not read the swarm mean at all: corrupting one agent position
    # after computing values must not change the losers' moves vs the formula
    cfg = AlgorithmConfig("CSO", n=4, phi=0.0)
    rng_a = np.random.default_rng(41)
    st_a = init_state(cfg, BOX, sphere, rng_a)
    step(st_a, cfg, BOX, sphere, rng_a, np.random.default_rng(0))
    cfg_phi = AlgorithmConfig("CSO", n=4, phi=1.0)
    rng_b = np.random.default_rng(41)
    st_b = init_state(cfg_phi, BOX, sphere, rng_b)
    step(st_b, cfg_phi, BOX, sphere, rng_b, np.random.default_rng(0))
    # same draws, different phi: identical iff the mean term actually engages
    assert not np.array_equal(st_a.X, st_b.X)


def test_de_no_move_with_zero_weight():
    cfg = AlgorithmConfig("DE", "pp", n=4, f_weight=0.0, crossover=1.0, noise=TINY)
    before, st = _one_step(cfg)
    np.testing.assert_array_equal(st.X, before)


def test_de_greedy_never_worsens():
    cfg = AlgorithmConfig("DE", n=6)
    rng = np.random.default_rng(51)
    st = init_state(cfg, BOX, sphere, rng)
    f_before = st.fvals.copy()
    step(st, cfg, BOX, sphere, rng, np.random.default_rng(0))
    assert np.all(st.fvals <= f_before)


def _evaluated_rows(cfg, box, seed=71):
    """The candidate rows the first step hands to the objective."""
    seen = []

    def recording(X):
        seen.append(np.atleast_2d(X).copy())
        return sphere(X)

    rng = np.random.default_rng(seed)
    st = init_state(cfg, box, sphere, rng)
    step(st, cfg, box, recording, rng, np.random.default_rng(seed + 1))
    return np.concatenate(seen)


@pytest.mark.parametrize("family", ["PSO", "BAT", "CSO", "DE"])
def test_hpp_perturbs_first_half_of_candidate_rows(family):
    # hpp moves exactly the first floor(m/2) candidate rows off the noise-free
    # candidate: m = n for PSO/BAT/DE, the n/2 losers in pair order for CSO
    box = Box.cube(-1, 1, 10)
    loud = NoiseModel(sigma=0.5)
    for n in (6, 10):
        plain = _evaluated_rows(AlgorithmConfig(family, "base", n=n), box)
        noisy = _evaluated_rows(AlgorithmConfig(family, "hpp", n=n, noise=loud), box)
        m = n // 2 if family == "CSO" else n
        assert len(plain) == len(noisy) == m
        moved = np.any(plain != noisy, axis=1)
        np.testing.assert_array_equal(moved, np.arange(m) < m // 2, err_msg=f"n={n}")


def test_variant_consistency_degenerate_noise():
    # pp with degenerate noise replays the base trajectory bit for bit
    for family, n in (("PSO", 4), ("BAT", 4), ("CSO", 4), ("DE", 4)):
        base = AlgorithmConfig(family, "base", n=n)
        pp = AlgorithmConfig(family, "pp", n=n, noise=TINY)
        rec_a = run(base, sphere, BOX, 99, 50, [10, 50])
        rec_b = run(pp, sphere, BOX, 99, 50, [10, 50])
        assert rec_a.checkpoints == rec_b.checkpoints, family
        np.testing.assert_array_equal(rec_a.final_best_point, rec_b.final_best_point)


def test_run_contract():
    cfg = AlgorithmConfig("PSO", "pp", n=4)
    rec = run(cfg, sphere, BOX, 7, 0, [0])
    st = init_state(cfg, BOX, sphere, np.random.default_rng(np.random.SeedSequence(7).spawn(2)[0]))
    assert rec.checkpoints == {0: st.best_f}
    with pytest.raises(ValueError):
        run(cfg, sphere, BOX, 7, 10, [5, 20])
    with pytest.raises(ValueError):
        run(cfg, sphere, BOX, 7, 10, [7, 5])
    with pytest.raises(ValueError, match="negative"):
        run(cfg, sphere, BOX, 7, 10, [-1, 5])
    with pytest.raises(ValueError, match="distinct"):
        run(cfg, sphere, BOX, 7, 10, [2, 2, 5])
    with pytest.raises(ValueError, match="integers"):
        run(cfg, sphere, BOX, 7, 10, [2.5, 5])


def test_run_deterministic():
    cfg = AlgorithmConfig("CSO", "hpp", n=8)
    a = run(cfg, sphere, BOX, 123, 100, [50, 100])
    b = run(cfg, sphere, BOX, 123, 100, [50, 100])
    assert a.checkpoints == b.checkpoints
    np.testing.assert_array_equal(a.final_best_point, b.final_best_point)
    assert a.n_evals == b.n_evals


def test_checkpoints_non_increasing():
    for label in ALGORITHM_LABELS:
        cfg = config_for_label(label, n=8)
        rec = run(cfg, sphere, BOX, 5, 200, [10, 50, 100, 200])
        vals = [rec.checkpoints[t] for t in (10, 50, 100, 200)]
        assert vals == sorted(vals, reverse=True) or all(
            vals[i] >= vals[i + 1] for i in range(len(vals) - 1)
        )
        assert rec.violations_c1 == 0 and rec.violations_c3 == 0


@pytest.mark.parametrize("family", ["PSO", "CSO"])
def test_check_invariants_counts_each_violation(family):
    box = Box.cube(-1, 1, 3)
    above = np.nextafter(1.0, 2.0)  # the nearest double outside the box

    def counts(attr=None, index=(), value=None, prev_delta=0.0):
        st = init_state(AlgorithmConfig(family, n=4), box, sphere, np.random.default_rng(5))
        if attr is not None:
            getattr(st, attr)[index] = value
        stack, runs = algorithms._stacked(st), algorithms._Runs([sphere], [box], [None], [None], ["base"])
        _check_invariants(stack, runs.box, stack.best_f + prev_delta, runs)
        return int(runs.violations_c1[0]), int(runs.violations_c3[0])

    assert counts() == (0, 0)
    assert counts("X", (0, 0), 1.0) == (0, 0)  # the closed box holds its faces
    cases = [("X", (1, 2), above), ("X", (0, 1), np.nan), ("gbest_x", (2,), -above)]
    if family == "PSO":
        cases.append(("pbest_X", (3, 0), above))
    for attr, index, value in cases:
        assert counts(attr, index, value) == (1, 0), (attr, value)
    assert counts(prev_delta=-1.0) == (0, 1)


def test_pso_personal_best_dominates_trajectory():
    cfg = AlgorithmConfig("PSO", "pp", n=4)
    rng = np.random.default_rng(61)
    rng_noise = np.random.default_rng(62)
    st = init_state(cfg, BOX, sphere, rng)
    history = [st.fvals.copy()]
    for _ in range(50):
        step(st, cfg, BOX, sphere, rng, rng_noise)
        history.append(st.fvals.copy())
        assert np.all(st.pbest_f <= np.min(history, axis=0) + 1e-15)


def test_mpso_convergence_smoke():
    from swarmpp import objectives as ob

    spec = ob.get("F27")
    box = ob.default_domain(spec, 5)
    cfg = config_for_label("mPSO")
    rec = run(cfg, ob.batch_evaluator(spec, 5), box, 2024, 10_000, [10_000])
    assert rec.checkpoints[10_000] <= 1e-2


# Golden single-step traces, pinned from an independent straight-line
# re-derivation of each kernel's documented draw order (see _rederive_*).
# The literal values guard against drift across refactors.

GOLDEN_PSO_X = [
    [0.4417736326040401, -0.1322757533486414],
    [0.5587545590777858, 0.17853725991870456],
]
GOLDEN_BAT_X = [
    [-0.5671718651140001, -0.1725169730738948],
    [-0.5677308372381609, -0.15635983004385437],
]
GOLDEN_CSO_X = [
    [0.7008459343626279, 0.40667623156015464],
    [-0.11055137664611946, 0.6210973512361656],
    [0.5585877593608171, 0.020226754907493483],
    [-0.42643676718957774, -0.019444786364401948],
]
GOLDEN_DE_X = [
    [0.2660774967237274, 0.18188519811690917],
    [-0.03396952211240567, -0.9278617240271909],
    [-0.35622050904102887, 0.012331057338969442],
    [0.5636076649841444, -0.7490542219977889],
]

NOISE01 = NoiseModel(sigma=0.01)


def _golden_state(family, n, seed_dyn, seed_noise):
    cfg = AlgorithmConfig(family, "pp", n=n, noise=NOISE01)
    rng = np.random.default_rng(seed_dyn)
    rng_noise = np.random.default_rng(seed_noise)
    st = init_state(cfg, BOX, sphere, rng)
    step(st, cfg, BOX, sphere, rng, rng_noise)
    return st


def _clip(X):
    return np.clip(X, -1.0, 1.0)


def _rederive_pso(seed_dyn, seed_noise, n=2, d=2):
    rng = np.random.default_rng(seed_dyn)
    rng_noise = np.random.default_rng(seed_noise)
    X = rng.uniform(BOX.lower, BOX.upper, size=(n, d))
    g = X[np.argmin(sphere(X))]
    U1 = rng.random((n, d))
    U2 = rng.random((n, d))
    V = 1.5 * U1 * (X - X) + 1.5 * U2 * (g - X)  # zero inertia term: V(0)=0
    w = rng_noise.normal(0.0, 0.01, size=(n, d))
    return _clip(_clip(X + V) + w)


def _rederive_bat(seed_dyn, seed_noise, n=2, d=2):
    rng = np.random.default_rng(seed_dyn)
    rng_noise = np.random.default_rng(seed_noise)
    X = rng.uniform(BOX.lower, BOX.upper, size=(n, d))
    f = sphere(X)
    g = X[np.argmin(f)].copy()
    freq = rng.uniform(0.0, 100.0, n)
    V = freq[:, None] * (X - g)
    pulse = rng.random(n)
    eps = rng.normal(0.0, 0.001, (n, d))
    cand = np.where((pulse < 0.5)[:, None], X + V, g + eps)
    w = rng_noise.normal(0.0, 0.01, (n, d))
    y = _clip(_clip(cand) + w)
    loud = rng.random(n)
    revert = (loud < 0.5) | (f < sphere(y))
    return np.where(revert[:, None], X, y)


def _rederive_cso(seed_dyn, seed_noise, n=4, d=2):
    rng = np.random.default_rng(seed_dyn)
    rng_noise = np.random.default_rng(seed_noise)
    X = rng.uniform(BOX.lower, BOX.upper, size=(n, d))
    f = sphere(X)
    perm = rng.permutation(n)
    first, second = perm[0::2], perm[1::2]
    first_wins = f[first] < f[second]
    winners = np.where(first_wins, first, second)
    losers = np.where(first_wins, second, first)
    U1 = rng.random((n // 2, d))
    U2 = rng.random((n // 2, d))
    rng.random((n // 2, d))  # U3 drawn but inert at phi=0
    Vl = U1 * 0.0 + U2 * (X[winners] - X[losers])
    w = rng_noise.normal(0.0, 0.01, (n // 2, d))
    out = X.copy()
    out[losers] = _clip(_clip(X[losers] + Vl) + w)
    return out


def _rederive_de(seed_dyn, seed_noise, n=4, d=2):
    rng = np.random.default_rng(seed_dyn)
    rng_noise = np.random.default_rng(seed_noise)
    X = rng.uniform(BOX.lower, BOX.upper, size=(n, d))
    f = sphere(X)
    out = X.copy()
    fout = f.copy()
    for i in range(n):
        j = int(rng.integers(n))
        while j == i:
            j = int(rng.integers(n))
        k = int(rng.integers(n))
        while k == i or k == j:
            k = int(rng.integers(n))
        y = X[i] + 0.8 * (X[j] - X[k])
        forced = int(rng.integers(d))
        coins = rng.random(d)
        keep = coins < 0.9
        keep[forced] = True
        y = np.where(keep, y, X[i])
        w = rng_noise.normal(0.0, 0.01, d)
        cand = _clip(_clip(y) + w)
        fc = float(sphere(cand))
        if fc < fout[i]:
            out[i] = cand
            fout[i] = fc
    return out


@pytest.mark.parametrize(
    "family,n,seeds,pinned,rederive",
    [
        ("PSO", 2, (101, 202), GOLDEN_PSO_X, _rederive_pso),
        ("BAT", 2, (303, 404), GOLDEN_BAT_X, _rederive_bat),
        ("CSO", 4, (505, 606), GOLDEN_CSO_X, _rederive_cso),
        ("DE", 4, (707, 808), GOLDEN_DE_X, _rederive_de),
    ],
)
def test_golden_traces(family, n, seeds, pinned, rederive):
    st = _golden_state(family, n, *seeds)
    np.testing.assert_array_equal(st.X, rederive(*seeds))
    np.testing.assert_array_equal(st.X, np.asarray(pinned))


# Multi-step golden pin: every label under both noise kinds, on the two
# members where evaluating DE's trials in one batched call drifts by an ulp
# (F7 at d=2, F26 at d=5).  The values were recorded from the kernels before
# they shared one step skeleton.  Besides run()'s record, each case pins a
# digest of the positions and values after every step, so a one-ulp drift in
# any accepted value shows even when the best-so-far never sees it.

PIN_PATH = Path(__file__).with_name("golden_runs.json")
PIN_NOISES = {"gauss": NoiseModel(sigma=0.005), "t10": NoiseModel(kind="scaled_t", df=10)}
PIN_MEMBERS = (("F7", 2), ("F26", 5))
PIN_N, PIN_ITERS, PIN_SEED = 6, 40, 7
PIN_FIELDS = ("checkpoints", "final_best_point", "final_best_value", "n_evals", "config_digest")


def _pin_case(label, noise, function, d):
    spec = objectives.get(function)
    box, fbatch = objectives.default_domain(spec, d), objectives.batch_evaluator(spec, d)
    cfg = config_for_label(label, n=PIN_N, noise=noise)
    rec = run(cfg, fbatch, box, PIN_SEED, PIN_ITERS, (0, 10, PIN_ITERS)).to_dict()
    dyn_ss, noise_ss = np.random.SeedSequence(PIN_SEED).spawn(2)
    rng, rng_noise = np.random.default_rng(dyn_ss), np.random.default_rng(noise_ss)
    st = init_state(cfg, box, fbatch, rng)
    trajectory = hashlib.sha256()
    for _ in range(PIN_ITERS):
        step(st, cfg, box, fbatch, rng, rng_noise)
        trajectory.update(st.X.tobytes())
        trajectory.update(st.fvals.tobytes())
    pinned = {k: rec[k] for k in PIN_FIELDS}
    pinned["trajectory_sha256"] = trajectory.hexdigest()[:16]
    return json.loads(json.dumps(pinned))


def _pin_all():
    return {
        f"{label}/{name}/{function}-{d}": _pin_case(label, noise, function, d)
        for label in ALGORITHM_LABELS
        for name, noise in PIN_NOISES.items()
        for function, d in PIN_MEMBERS
    }


def test_golden_pin_multistep():
    pinned = json.loads(PIN_PATH.read_text())
    got = _pin_all()
    assert sorted(got) == sorted(pinned)
    assert [k for k in pinned if got[k] != pinned[k]] == []


# DE's dynamics draws in a stack: raw PCG64 words, parsed as the per-agent
# loop draws them, must give the loop's draws and stop where the loop stops,
# its buffered uint32 half included.


def _words_stand_where(words, gen):
    """The next word `words` parses is `gen`'s next word, buffered half included."""
    state, peek = gen.bit_generator.state, np.random.PCG64()
    peek.state = state
    return (words.has, words.buf) == (state["has_uint32"], state["uinteger"]) and (
        words.raw.tolist() == peek.random_raw(len(words.raw)).tolist()
    )


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 32, 33, 64])
def test_de_block_draws_equal_loop(n):
    # one step per parse, as a stack draws, and a fresh stream on a buffered
    # uint32 half every third step
    for d in (1, 2, 3, 5, 10, 40):
        loop, bg = np.random.default_rng([n, d]), np.random.PCG64()
        for t in range(12):
            if t % 3 == 0:
                while not loop.bit_generator.state["has_uint32"]:
                    loop.integers(9)  # start this step with a buffered uint32 half
                bg.state = loop.bit_generator.state
                words = algorithms._Words(bg)
            draws = words.parse(n, d)
            assert [a.shape for a in draws] == [(n,)] * 3 + [(n, d)]
            for a, b in zip(draws, _de_draws_loop(loop, n, d)):
                np.testing.assert_array_equal(a, b, err_msg=f"d={d}, step {t}")
            assert _words_stand_where(words, loop), (d, t)


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 32, 33, 64])
def test_de_multistep_parse_equals_loop(n, monkeypatch):
    # a stack parses one step per call, step after step, off words it keeps
    # between calls, reading more as it runs out, even in the middle of a step
    reads, parsed_from = [], algorithms._Words._parsed
    monkeypatch.setattr(algorithms._Words, "_parsed", lambda self, *a: reads.append(a) or parsed_from(self, *a))
    refills = 0
    for d in (1, 2, 3, 5, 10, 40):
        for steps in (1, 3, 17):
            parsed, loop = np.random.default_rng([n, d, steps]), np.random.default_rng([n, d, steps])
            while not parsed.bit_generator.state["has_uint32"]:
                parsed.integers(9)  # start with a buffered uint32 half
                loop.integers(9)
            words = algorithms._Words(parsed.bit_generator)
            for t in range(steps):  # each call after the first starts on the words the last left
                reads.clear()
                draws = words.parse(n, d)
                refills += len(reads) - 1  # a parse that runs out of words reads more and starts over
                for a, b in zip(draws, _de_draws_loop(loop, n, d)):
                    np.testing.assert_array_equal(a, b, err_msg=f"d={d}, steps={steps}, step {t}")
            assert _words_stand_where(words, loop), (d, steps)
    assert refills > 0 or n >= 8  # small swarms redraw donors often enough to outrun the words of a step


class ProxyGenerator:
    """A Generator look-alike that forwards every call and counts them."""

    def __init__(self, gen):
        self._gen, self.calls = gen, 0

    def __getattr__(self, name):
        self.calls += 1
        return getattr(self._gen, name)


def _de_case(label="hmDE"):
    # F26 at d=5: one batched call of the plain evaluator moves DE's trajectory
    spec = objectives.get("F26")
    return config_for_label(label, n=8), objectives.default_domain(spec, 5), objectives.batch_evaluator(spec, 5)


@pytest.mark.parametrize("label", ["DE", "mDE", "hmDE"])
def test_de_fallbacks_give_the_same_record(label):
    cfg, box, fbatch = _de_case(label)
    rec = run(cfg, fbatch, box, 11, 60, [0, 30, 60]).to_dict()

    # a plain callable is evaluated one row per call
    shapes = []

    def plain(X):
        shapes.append(np.shape(X))
        return fbatch(X)

    assert run(cfg, plain, box, 11, 60, [0, 30, 60]).to_dict() == rec
    assert shapes.count((5,)) == 60 * 8 and shapes.count((8, 5)) == 1  # init is one block

    # a proxy generator takes the per-agent draw loop
    dyn_ss, noise_ss = np.random.SeedSequence(11).spawn(2)
    rng = ProxyGenerator(np.random.default_rng(dyn_ss))
    rng_noise = np.random.default_rng(noise_ss)
    st = init_state(cfg, box, fbatch, rng)
    for _ in range(60):
        step(st, cfg, box, fbatch, rng, rng_noise)
    assert rng.calls > 60 * 8 * 3
    assert (st.best_f, st.n_evals) == (rec["final_best_value"], rec["n_evals"])
    assert st.best_x.tolist() == rec["final_best_point"]


# Stacked runs: run() given sequences steps them as one (R, n, d) stack, and
# each record must be the one the run gives alone.  Each dimension's members
# mix boxes: Bukin6 (F4) is no cube, Michalewicz5 (F15) exists only at d=5.

STACK_MEMBERS = {2: ("F4", "F5", "F7"), 5: ("F15", "F26", "F27")}
STACK_SEEDS, STACK_ITERS, STACK_CPS = (1, 2, 3), 30, (0, 10, 30)


def _stack_cells(d, plain):
    specs = [objectives.get(f) for f in STACK_MEMBERS[d]]
    fbatches = [objectives.batch_evaluator(spec, d) for spec in specs]
    if plain:  # no per_point: DE evaluates its trials one row per call
        fbatches = [lambda X, fb=fb: fb(X) for fb in fbatches]
    boxes = [objectives.default_domain(spec, d) for spec in specs]
    return [(fb, box, seed) for fb, box in zip(fbatches, boxes) for seed in STACK_SEEDS]


# A label of the form "PSO+hmPSO+mPSO" names a stack that mixes a family's
# variants: the labels' runs on the same cells, label-major (the harness's
# order).
MIXED = tuple(f"{family}+hm{family}+m{family}" for family in ("PSO", "BAT", "CSO", "DE"))


def _label_cells(label, d, plain=False, **overrides):
    """(config, objective, box, seed) of each label's runs on the stack
    members at d, label after label; the labels share the objectives."""
    cells = _stack_cells(d, plain)
    return [(config_for_label(one, n=8, **overrides), *cell) for one in label.split("+") for cell in cells]


@pytest.mark.parametrize("plain", [False, True], ids=["evaluator", "plain"])
@pytest.mark.parametrize("label", ALGORITHM_LABELS + MIXED)
def test_stacked_runs_equal_solo_runs(label, plain):
    base = label in ("PSO", "BAT", "CSO", "DE")  # base runs draw no noise
    for noise, d in itertools.product([NoiseModel()] + ([] if base else [NoiseModel(kind="scaled_t", df=5)]),
                                      STACK_MEMBERS):
        cells = _label_cells(label, d, plain, noise=noise)
        solo = [run(*cell, STACK_ITERS, STACK_CPS).to_dict() for cell in cells]
        member = {key: i for i, key in enumerate(dict.fromkeys(id(cell[1]) for cell in cells))}
        # label-major, member-major (one objective call per member either
        # way) and seed-major
        orders = cells, sorted(cells, key=lambda cell: member[id(cell[1])]), sorted(cells, key=lambda cell: cell[3])
        for order in orders:
            stacked = run(*map(list, zip(*order)), STACK_ITERS, STACK_CPS)
            assert [rec.to_dict() for rec in stacked] == [solo[cells.index(cell)] for cell in order], (noise, d)


def test_mixed_stacks_value_an_objective_once_per_step():
    # label-major order puts each member's runs in three variant blocks;
    # the stack still values each member's rows in one call per step
    calls = collections.Counter()

    def counting(fb):
        return lambda X: calls.update([fb]) or fb(X)

    counted = {}
    cells = [(cfg, counted.setdefault(id(fb), counting(fb)), box, seed)
             for cfg, fb, box, seed in _label_cells("PSO+hmPSO+mPSO", 5)]
    run(*map(list, zip(*cells)), STACK_ITERS, STACK_CPS)
    assert sorted(calls.values()) == [1 + STACK_ITERS] * len(STACK_MEMBERS[5])


def test_stack_configs_may_differ_only_in_variant():
    fbatches, boxes, seeds = map(list, zip(*_stack_cells(5, plain=False)))
    configs = [config_for_label(label, n=8) for label in ("PSO", "mPSO", "hmPSO")] * 3
    records = run(configs, fbatches, boxes, seeds, 3, [3])
    assert [rec.config_digest for rec in records] == [cfg.digest() for cfg in configs]
    for other in (config_for_label("mPSO", n=10), config_for_label("mPSO", n=8, noise=NoiseModel(sigma=0.01)),
                  AlgorithmConfig("PSO", "pp", n=8, w=0.5), config_for_label("mCSO", n=8)):
        with pytest.raises(ValueError, match="may differ only in variant; two differ in"):
            run(configs[:-1] + [other], fbatches, boxes, seeds, 3, [3])
    with pytest.raises(ValueError, match="one config or one per seed"):
        run(configs[:-1], fbatches, boxes, seeds, 3, [3])


def _failing_after(fbatch, calls_ok):
    """fbatch, giving NaN for every row from its (calls_ok + 1)-th call on."""
    calls = []

    def f(X):
        calls.append(None)
        return fbatch(X) if len(calls) <= calls_ok else np.full(np.shape(X)[:-1], np.nan)

    return f


@pytest.mark.parametrize("label", ("PSO", "hmPSO", "hmBAT", "mCSO", "hmDE") + MIXED)
def test_failed_run_leaves_the_rest_of_its_stack_alone(label):
    cells = _label_cells(label, 5)
    family, mixed = cells[0][0].family, "+" in label
    # alone: run 1 fails at initialisation, run 4 at its fifth step, run 7 at
    # its last; mixed: base run 1, hpp run 13 and pp run 22 in those steps
    calls_at_step = 1 if family != "DE" else 8  # DE values its trials row by row here
    broken = dict(zip((1, 13, 22) if mixed else (1, 4, 7),
                      (0, 1 + 4 * calls_at_step, 1 + (STACK_ITERS - 1) * calls_at_step)))
    # a mixed stack runs label-major, then seed-major, each variant's runs
    # spread over the stack
    orders = [list(range(len(cells)))]
    if mixed:
        orders.append(sorted(orders[0], key=lambda i: cells[i][3]))
    for order in orders:
        cells = [(cfg, _failing_after(fb, broken[i]), box, seed) if i in broken else (cfg, fb, box, seed)
                 for i, (cfg, fb, box, seed) in enumerate(_label_cells(label, 5))]
        stacked = run(*map(list, zip(*(cells[i] for i in order))), STACK_ITERS, STACK_CPS)
        for i, rec in zip(order, stacked):
            cfg, fb, box, seed = cells[i]
            if i in broken:
                reason = "during initialization" if i == 1 else f"in a {family} step"
                assert rec.to_dict() == RunRecord(seed, cfg.digest(), {}, None, None,
                                                  status=f"failed: non-finite objective value {reason}").to_dict()
            else:
                assert rec.to_dict() == run(cfg, fb, box, seed, STACK_ITERS, STACK_CPS).to_dict()
    # alone, each broken run raises what its record says
    for i in broken:
        cfg, fb, box, seed = cells[i]
        with pytest.raises(algorithms.RunFailure, match=stacked[order.index(i)].status.removeprefix("failed: ")):
            run(cfg, _failing_after(_label_cells(label, 5)[i][1], broken[i]), box, seed, STACK_ITERS, STACK_CPS)
    # init_state raises it for a non-finite start value
    cfg, fb, box, _ = _label_cells(label, 5)[1]
    with pytest.raises(algorithms.RunFailure, match="during initialization"):
        init_state(cfg, box, _failing_after(fb, 0), np.random.default_rng(1))
    # a stack whose every run fails at its first step still gives one record each
    configs, fbatches, boxes, seeds = zip(*_label_cells(label, 5))
    every = run(configs, [_failing_after(fb, 1) for fb in fbatches], boxes, seeds, STACK_ITERS, STACK_CPS)
    assert [rec.status for rec in every] == [f"failed: non-finite objective value in a {family} step"] * len(seeds)


def test_run_stack_needs_one_box_and_objective_per_seed():
    cfg = AlgorithmConfig("PSO", n=4)
    with pytest.raises(ValueError, match="one objective and one box per seed"):
        run(cfg, [sphere, sphere], [BOX], [1, 2], 5, [5])


def test_empty_stack_gives_no_records():
    for label in ("hmPSO", "hmDE"):
        assert run(config_for_label(label, n=8), [], [], [], 3, [3]) == []


def test_stack_refuses_boxes_of_two_dimensions():
    spec = objectives.get("F27")
    boxes = [objectives.default_domain(spec, d) for d in (5, 10, 5)]
    with pytest.raises(ValueError, match=r"share one dimension, got dimensions \[5, 10\]"):
        run(config_for_label("PSO", n=8), [sphere] * 3, boxes, [1, 2, 3], 3, [3])


@pytest.mark.parametrize("label", ["hmPSO", "mBAT", "hmCSO", "mDE"])
def test_short_stacks_read_no_further_than_their_last_step(label):
    # max_iter 0, 1 and 3: each record is the one init_state/step give,
    # drawing step by step
    cfg = config_for_label(label, n=8)
    fbatches, boxes, seeds = zip(*_stack_cells(5, plain=False))
    for max_iter in (0, 1, 3):
        records = run(cfg, fbatches, boxes, seeds, max_iter, sorted({0, max_iter}))
        for rec, fb, box, seed in zip(records, fbatches, boxes, seeds):
            state = _replayed(cfg, fb, box, seed, max_iter)
            assert (rec.final_best_value, rec.final_best_point.tolist(), rec.n_evals) == (
                state.best_f, state.best_x.tolist(), state.n_evals), (max_iter, seed)


# Stack setup: a stack derives its runs' generators in array code, and each
# must be what SeedSequence gives.  Start positions and CSO pairings are
# swarmpp's own arithmetic over random() and shuffle; numpy's uniform and
# permutation are the references that keep them what stored runs were made of.

EDGE_SEEDS = [0, 1, 2**31, 2**32 - 1, 2**32, 2**63, 2**64 - 1]


@pytest.mark.parametrize("numpy_ints", [False, True], ids=["int", "numpy"])
def test_stack_generator_states_equal_seed_sequence(numpy_ints):
    seeds = EDGE_SEEDS + np.random.default_rng(11).integers(0, 2**64, 500, dtype=np.uint64).tolist()
    given = [np.uint64(s) for s in seeds] if numpy_ints else seeds
    children = [np.random.SeedSequence(seed).spawn(2) for seed in seeds]
    words = algorithms._spawned_words(given)
    assert words.tolist() == [[ss.generate_state(4, np.uint64).tolist() for ss in pair] for pair in children]
    generators = algorithms._run_generators([algorithms._seed_value(s) for s in given])
    assert len(generators) == 2 * len(seeds)
    for gen, child in zip(generators, (ss for pair in children for ss in pair)):
        assert type(gen.bit_generator) is np.random.PCG64
        assert gen.bit_generator.state == np.random.default_rng(child).bit_generator.state


def _assert_starts_equal_uniform(boxes, seeds, n):
    """sample_uniform per run, of n points and of one, and _starts of the runs
    as one stack give Generator.uniform's bytes."""
    ref = np.stack([np.random.default_rng(s).uniform(box.lower, box.upper, (n, box.dim)) for box, s in zip(boxes, seeds)])
    ours = np.stack([sample_uniform(box, np.random.default_rng(s), n) for box, s in zip(boxes, seeds)])
    runs = algorithms._Runs([None] * len(boxes), boxes, [np.random.default_rng(s) for s in seeds],
                            [None] * len(boxes), ["base"] * len(boxes))
    assert ours.tobytes() == ref.tobytes() and algorithms._starts(n, runs).tobytes() == ref.tobytes()
    for box, s in zip(boxes, seeds):
        point = np.random.default_rng(s).uniform(box.lower, box.upper)
        assert sample_uniform(box, np.random.default_rng(s)).tobytes() == point.tobytes()


def test_stacked_starts_equal_sample_uniform():
    labels = set()
    for d in objectives.COLLECTION_DIMS:
        members = objectives.list_collection(d)
        labels.update((spec.label, d) for spec, _ in members)
        # one stack per dimension, mixing every member's box
        boxes = [objectives.default_domain(spec, d) for spec, _ in members for _ in range(20)]
        _assert_starts_equal_uniform(boxes, list(range(20)) * len(members), 8)
    assert len(labels) == 70 and {("F4", 2), ("F9", 2), ("F14", 2)} <= labels  # per-coordinate boxes
    # sign bits included: boxes that are no cube, all negative, or straddle zero
    boxes = [Box([-15.0, -3.0], [-5.0, 3.0]), Box([-5.0, 0.0], [10.0, 15.0]), Box.cube(-1e-3, 0.5, 2),
             Box([-1e-300, -2.0], [0.0, -1.0]), Box.cube(-0.0, 1e-300, 2)]
    _assert_starts_equal_uniform(boxes, [0, 1, 2**31, 2**32 - 1, 2**64 - 1], 16)
    # a span past the largest double, which Generator.uniform would refuse, is no box
    with pytest.raises(ValueError, match="spans must be finite"):
        run(config_for_label("PSO", n=4), [sphere] * 2, [BOX, Box.cube(-1e308, 1e308, 2)], [1, 2], 5, [5])


def test_pairings_equal_permutation():
    for n in (2, 5, 8, 33):
        ours, ref = np.random.default_rng(n), np.random.default_rng(n)
        ours.integers(3)  # from a buffered uint32 half, which neither may take
        ref.integers(3)
        perm = algorithms._pairings([ours] * 3, n)
        assert perm.tolist() == [ref.permutation(n).tolist() for _ in range(3)], n
        assert ours.bit_generator.state == ref.bit_generator.state, n


def test_import_leaves_numpy_random_unloaded():
    # the stack setup builds on numpy.random at its first use, not at import
    code = "import sys, swarmpp.cli; sys.exit('numpy.random' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def _replayed(cfg, fbatch, box, seed, max_iter):
    """init_state/step driven with the generators of SeedSequence(seed)."""
    rng, rng_noise = map(np.random.default_rng, np.random.SeedSequence(seed).spawn(2))
    state = init_state(cfg, box, fbatch, rng)
    for _ in range(max_iter):
        step(state, cfg, box, fbatch, rng, rng_noise)
    return state


def test_seeds_outside_uint64_are_refused(monkeypatch):
    cfg = config_for_label("mCSO", n=8)
    # the ends of the range run as init_state/step do on SeedSequence's children
    seeds = [0, 2**64 - 1]
    for seed, rec in zip(seeds, run(cfg, [sphere] * 2, [BOX] * 2, seeds, 20, [20])):
        state = _replayed(cfg, sphere, BOX, seed, 20)
        assert (rec.seed, rec.final_best_value, rec.final_best_point.tolist()) == (seed, state.best_f, state.best_x.tolist())
    # past them, a bool or a non-integer is refused by name, in both forms of
    # run, before any generator is built
    monkeypatch.setattr(algorithms, "_spawned_words", lambda seeds: pytest.fail("a generator was built"))
    for seed, error, must in ((2**64, ValueError, "be in [0, 2**64)"), (2**70, ValueError, "be in [0, 2**64)"),
                              (-1, ValueError, "be in [0, 2**64)"), (1.5, TypeError, "be an integer"),
                              (True, TypeError, "be an integer"), (np.True_, TypeError, "be an integer")):
        match = re.escape(f"a seed must {must}, got {seed!r}") + "$"
        with pytest.raises(error, match=match):
            run(cfg, [sphere] * 2, [BOX] * 2, [1, seed], 20, [20])
        with pytest.raises(error, match=match):
            run(cfg, sphere, BOX, seed, 20, [20])


def test_numpy_integer_seeds_give_python_int_records():
    cfg = config_for_label("hmDE", n=8)
    stacked = run(cfg, [sphere] * 2, [BOX] * 2, np.array([1, 2]), 3, [3])
    assert [json.dumps(rec.to_dict()) for rec in stacked] == [
        json.dumps(rec.to_dict()) for rec in run(cfg, [sphere] * 2, [BOX] * 2, [1, 2], 3, [3])]
    assert json.dumps(run(cfg, sphere, BOX, np.int64(7), 3, [3]).to_dict()) == json.dumps(
        run(cfg, sphere, BOX, 7, 3, [3]).to_dict())
    assert type(stacked[0].seed) is int

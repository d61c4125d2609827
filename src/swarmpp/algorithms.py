"""Swarm kernels: PSO, BAT, CSO and DE, each in base / perturbed (pp) /
half-perturbed (hpp) variants, sharing one step skeleton.

Every run owns two independent random generators spawned from its seed: one
for the algorithm's own dynamics and one for the exploration noise.  The base
variant never touches the noise stream, so a perturbed variant with a
degenerate noise scale replays the base trajectory bit for bit.

A step (`step`) is the same for every family: the family proposes m raw
candidate rows from its dynamics; the skeleton clamps them into the box and,
for pp and hpp, adds noise to the perturbed rows and clamps those again
(`perturb_project`); it evaluates the rows, the family accepts or rejects
them, and the skeleton updates the best-so-far memory.

The hpp rule: pp perturbs all m rows, hpp the first floor(m/2).  m is n for
PSO, BAT and DE, so hpp perturbs agents 0..n/2-1; for CSO the rows are the
n/2 losers in pair order, so hpp perturbs the losers of pairs 0..n/4-1.

Random draw order inside each step is part of the contract (golden-trace
tests pin it):

  PSO:  U1 (n,d), U2 (n,d) from dynamics; noise (n,d) for non-base.
  BAT:  frequencies (n,), pulse coins (n,), local-walk eps (n,d),
        loudness coins (n,) from dynamics; noise (n,d) for non-base.
  CSO:  pairing permutation (n,), U1, U2, U3 (n/2, d) in pair order from
        dynamics; noise (n/2, d) for non-base.
  DE:   per agent in index order: donor j (rejection), donor k (rejection),
        forced index, crossover coins (d,) from dynamics; noise (d,) for
        each perturbed agent only, drawn as one block.

PSO, BAT and CSO draw noise rows for all m candidates under hpp too, and use
the first floor(m/2).

DE's per-agent draw loop (_de_draws_loop) defines its draws.  On a numpy
Generator over PCG64 a step reads the same draws off one block of raw words
(_de_draws_block) and leaves the generator where the loop leaves it.  Any
other generator (a proxy, say) takes the loop, and so does every DE step of
a process in which a check made once, at its first DE step, finds the two
disagree; a warning says so.

DE values its trials as single points would be valued: one ulp in an
accepted value changes its trajectory, and numpy's `**` on a value derived
from a point's components differs in the last bit between one point (a
scalar, C pow) and a block (an array).  A registered objective's
`per_point` (objectives.BatchEvaluator) gives the single-point values in one
call; any other callable is called once per row.  tests/golden_runs.json
pins cases that a plain batched call breaks.
"""

from __future__ import annotations

import functools
import hashlib
import json
import warnings
from dataclasses import dataclass, field, fields

import numpy as np

from .perturbation import NoiseModel, sample_noise
from .search_space import Box, contains, sample_uniform

FAMILIES = ("PSO", "BAT", "CSO", "DE")
VARIANTS = ("base", "pp", "hpp")


class RunFailure(RuntimeError):
    """A run produced a non-finite objective value and was aborted."""


@dataclass(frozen=True)
class AlgorithmConfig:
    family: str
    variant: str = "base"
    n: int = 32
    # PSO
    w: float = 0.729
    c1: float = 1.5
    c2: float = 1.5
    # BAT
    q_min: float = 0.0
    q_max: float = 100.0
    pulse_rate: float = 0.5
    loudness: float = 0.5
    local_step_sigma: float = 0.001
    # CSO
    phi: float = 0.0
    # DE
    f_weight: float = 0.8
    crossover: float = 0.9
    noise: NoiseModel = field(default_factory=NoiseModel)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"family must be one of {FAMILIES}")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        if self.n < 2:
            raise ValueError("need n >= 2 agents")
        if self.family == "CSO" and self.n % 2 != 0:
            raise ValueError("CSO pairing needs an even swarm size")
        if self.family == "DE" and self.n < 4:
            raise ValueError("DE donor sampling needs n >= 4")

    def digest(self) -> str:
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        # base candidates are always clamped and bats follow the printed sign;
        # constants for those former fields keep every stored digest
        payload.update(noise=self.noise.to_dict(), base_projection=True, bat_sign=1.0)
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


# label <-> (family, variant): PSO, mPSO, hmPSO, ...
def config_for_label(label: str, **overrides) -> AlgorithmConfig:
    variant = "base"
    fam = label
    if label.startswith("hm"):
        variant, fam = "hpp", label[2:]
    elif label.startswith("m"):
        variant, fam = "pp", label[1:]
    if fam not in FAMILIES:
        raise ValueError(f"unknown algorithm label {label!r}")
    return AlgorithmConfig(family=fam, variant=variant, **overrides)


ALGORITHM_LABELS = tuple(
    prefix + fam for fam in FAMILIES for prefix in ("", "m", "hm")
)


@dataclass
class SwarmState:
    """Mutable per-run state; owned by exactly one run."""

    X: np.ndarray  # (n, d) positions
    fvals: np.ndarray  # (n,) objective values of X
    V: np.ndarray | None  # (n, d) velocities (PSO/BAT/CSO)
    pbest_X: np.ndarray | None  # PSO personal bests
    pbest_f: np.ndarray | None
    gbest_x: np.ndarray  # the in-dynamics global memory agent
    gbest_f: float
    best_x: np.ndarray  # monotone best-so-far memory (reporting)
    best_f: float
    n_evals: int = 0


@dataclass
class RunRecord:
    seed: int
    config_digest: str
    checkpoints: dict[int, float]
    final_best_point: np.ndarray | None
    final_best_value: float
    violations_c1: int = 0
    violations_c3: int = 0
    n_evals: int = 0
    status: str = "ok"

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "config_digest": self.config_digest,
            "checkpoints": {str(t): v for t, v in self.checkpoints.items()},
            "final_best_point": None
            if self.final_best_point is None
            else [float(v) for v in self.final_best_point],
            "final_best_value": self.final_best_value,
            "violations_c1": self.violations_c1,
            "violations_c3": self.violations_c3,
            "n_evals": self.n_evals,
            "status": self.status,
        }


def init_state(config: AlgorithmConfig, box: Box, fbatch, rng: np.random.Generator) -> SwarmState:
    """Uniform initial positions, zero velocities, memory seeded from the swarm."""
    n = config.n
    X = sample_uniform(box, rng, n)
    fvals = np.asarray(fbatch(X), dtype=float)
    if not np.all(np.isfinite(fvals)):
        raise RunFailure("non-finite objective value during initialization")
    j = int(np.argmin(fvals))
    V = None if config.family == "DE" else np.zeros_like(X)
    pbest_X = X.copy() if config.family == "PSO" else None
    pbest_f = fvals.copy() if config.family == "PSO" else None
    return SwarmState(
        X=X,
        fvals=fvals,
        V=V,
        pbest_X=pbest_X,
        pbest_f=pbest_f,
        gbest_x=X[j].copy(),
        gbest_f=float(fvals[j]),
        best_x=X[j].copy(),
        best_f=float(fvals[j]),
        n_evals=n,
    )


def _clip(X, box: Box) -> np.ndarray:
    return np.clip(X, box.lower, box.upper)


def perturb_project(Y, box: Box, noise: NoiseModel, rng_noise, k: int, rows: int) -> np.ndarray:
    """Clamp the candidate rows Y into the box, add noise to the first k rows
    and clamp those again; the other rows are only clamped.

    rows >= k noise rows are drawn in one block and the first k used, so the
    noise stream advances by the count each family has always drawn.  The
    output is always inside the box, whatever the noise magnitude.
    """
    X = _clip(Y, box)
    w = sample_noise(noise, box.dim, rng_noise, size=rows)
    X[:k] = _clip(X[:k] + w[:k], box)
    return X


# Each family supplies propose(state, config, rng) -> (Y, ctx), its dynamics
# draws giving the raw candidate rows, and accept(state, config, X, f, ctx,
# rng), which writes the evaluated rows X with values f back into the swarm.


def _pso_propose(state: SwarmState, config: AlgorithmConfig, rng):
    n, d = state.X.shape
    U1 = rng.random((n, d))
    U2 = rng.random((n, d))
    state.V = (
        config.w * state.V
        + config.c1 * U1 * (state.pbest_X - state.X)
        + config.c2 * U2 * (state.gbest_x - state.X)
    )
    return state.X + state.V, None


def _pso_accept(state: SwarmState, config: AlgorithmConfig, X, f, ctx, rng):
    state.X = X
    state.fvals = f
    improved = f < state.pbest_f
    state.pbest_X = np.where(improved[:, None], X, state.pbest_X)
    state.pbest_f = np.where(improved, f, state.pbest_f)
    j = int(np.argmin(state.pbest_f))
    # condition H: strict improvement of the best personal-best value
    if state.pbest_f[j] < state.gbest_f:
        state.gbest_x = state.pbest_X[j].copy()
        state.gbest_f = float(state.pbest_f[j])


def _bat_propose(state: SwarmState, config: AlgorithmConfig, rng):
    n, d = state.X.shape
    freq = rng.uniform(config.q_min, config.q_max, size=n)
    # follows the printed v + U(x - x*) orientation
    state.V = state.V + freq[:, None] * (state.X - state.gbest_x)
    pulse = rng.random(n)
    eps = rng.normal(0.0, config.local_step_sigma, size=(n, d))
    cand = np.where((pulse < config.pulse_rate)[:, None], state.X + state.V, state.gbest_x + eps)
    return cand, None


def _bat_accept(state: SwarmState, config: AlgorithmConfig, X, f, ctx, rng):
    # the loudness revert postdates the perturbation
    loud = rng.random(len(X))
    # positions are kept inside the box every step, so chi(x_i(t)) = x_i(t)
    # and its value is the cached one
    revert = (loud < config.loudness) | (state.fvals < f)
    state.X = np.where(revert[:, None], state.X, X)
    state.fvals = np.where(revert, state.fvals, f)


def _cso_propose(state: SwarmState, config: AlgorithmConfig, rng):
    n, d = state.X.shape
    perm = rng.permutation(n)
    first, second = perm[0::2], perm[1::2]
    first_wins = state.fvals[first] < state.fvals[second]
    winners = np.where(first_wins, first, second)
    losers = np.where(first_wins, second, first)
    U1 = rng.random((n // 2, d))
    U2 = rng.random((n // 2, d))
    U3 = rng.random((n // 2, d))
    Vl = U1 * state.V[losers] + U2 * (state.X[winners] - state.X[losers])
    if config.phi != 0.0:
        xbar = state.X.mean(axis=0)
        Vl = Vl + config.phi * U3 * (xbar - state.X[losers])
    return state.X[losers] + Vl, (losers, Vl)


def _cso_accept(state: SwarmState, config: AlgorithmConfig, X, f, ctx, rng):
    losers, Vl = ctx
    state.X[losers] = X
    state.V[losers] = Vl
    state.fvals[losers] = f


def _de_draws_loop(rng, n: int, d: int):
    """DE's dynamics draws for one step, agent by agent in index order: donor
    j != i and donor k not in {i, j}, each redrawn until it qualifies, the
    forced crossover index, then d crossover coins.  The reference for
    _de_draws_block, and the path for any other generator."""
    J, K, forced = (np.empty(n, dtype=np.intp) for _ in range(3))
    coins = np.empty((n, d))
    for i in range(n):
        j = int(rng.integers(n))
        while j == i:
            j = int(rng.integers(n))
        k = int(rng.integers(n))
        while k == i or k == j:
            k = int(rng.integers(n))
        J[i], K[i] = j, k
        forced[i] = int(rng.integers(d))
        coins[i] = rng.random(d)
    return J, K, forced, coins


_UINT32 = 0xFFFFFFFF


def _de_draws_block(rng: np.random.Generator, n: int, d: int):
    """_de_draws_loop's draws, read off one block of raw words of the
    generator's PCG64 and leaving it in the state the loop leaves it in.

    Generator.integers(m) is Lemire's method on next_uint32, which returns the
    low half of a fresh 64-bit word and keeps the high half for the next call
    (state "has_uint32"/"uinteger"); random() is (next_uint64 >> 11) * 2**-53
    and does not touch that buffer.  The integer draws are parsed from the
    block in Python ints, the coins converted in one gather, the words left
    over rewound and the buffer restored.
    """
    bg = rng.bit_generator
    state = bg.state
    has, buf = state["has_uint32"], state["uinteger"]
    chunk = n * (d + 2)  # a step's words at n >= 8, barring many redraws
    raw = bg.random_raw(chunk)
    words, pos = memoryview(raw), 0

    def grow():
        nonlocal raw, words
        raw = np.concatenate((raw, bg.random_raw(chunk)))
        words = memoryview(raw)

    def integer(m: int) -> int:
        nonlocal pos, has, buf
        if m == 1:
            return 0  # integers(1) draws nothing
        threshold = (1 << 32) % m
        while True:
            if has:
                has, v = 0, buf
            else:
                if pos == len(words):
                    grow()
                w = words[pos]
                pos += 1
                has, v, buf = 1, w & _UINT32, w >> 32
            product = v * m
            if product & _UINT32 >= threshold:
                return product >> 32

    J, K, forced, starts = [], [], [], []
    for i in range(n):
        j = integer(n)
        while j == i:
            j = integer(n)
        k = integer(n)
        while k == i or k == j:
            k = integer(n)
        J.append(j)
        K.append(k)
        forced.append(integer(d))
        if pos + d > len(words):
            grow()
        starts.append(pos)
        pos += d
    coins = (raw[np.add.outer(starts, np.arange(d))] >> np.uint64(11)) * 2.0**-53
    if pos < len(raw):
        bg.advance((1 << 128) - (len(raw) - pos))  # PCG64 advances modulo 2**128
    state = bg.state  # advance clears the uint32 buffer
    state["has_uint32"], state["uinteger"] = has, buf
    bg.state = state
    return np.array(J), np.array(K), np.array(forced), coins


@functools.cache
def _block_draws_agree() -> bool:
    """Whether _de_draws_block gives _de_draws_loop's draws and generator
    state under this numpy, for odd, even and power-of-two swarms and a
    buffered uint32 at the start of a step.  Checked once per process, at
    the first DE step on a PCG64 Generator; if it fails, DE keeps the loop."""
    try:
        for n, d in ((4, 1), (4, 5), (5, 2), (8, 3), (33, 10)):
            block, loop = np.random.default_rng(n), np.random.default_rng(n)
            block.integers(3)
            loop.integers(3)
            for _ in range(4):
                ours, ref = _de_draws_block(block, n, d), _de_draws_loop(loop, n, d)
                if not all(map(np.array_equal, ours, ref)) or block.bit_generator.state != loop.bit_generator.state:
                    raise ValueError(f"n={n}, d={d}: block draws differ from the loop's")
    except (AttributeError, KeyError, TypeError, ValueError) as exc:  # another numpy's API or stream
        warnings.warn(f"DE uses its per-agent draw loop: {exc}", RuntimeWarning, stacklevel=2)
        return False
    return True


def _de_propose(state: SwarmState, config: AlgorithmConfig, rng):
    n, d = state.X.shape
    fast = type(rng) is np.random.Generator and type(rng.bit_generator) is np.random.PCG64
    draws = _de_draws_block if fast and _block_draws_agree() else _de_draws_loop
    J, K, forced, coins = draws(rng, n, d)
    X = state.X
    keep = coins < config.crossover
    keep[np.arange(n), forced] = True
    return np.where(keep, X + config.f_weight * (X[J] - X[K]), X), None


def _de_accept(state: SwarmState, config: AlgorithmConfig, X, f, ctx, rng):
    # greedy selection against the values at the start of the step
    better = f < state.fvals
    state.X = np.where(better[:, None], X, state.X)
    state.fvals = np.where(better, f, state.fvals)


_KERNELS = {
    "PSO": (_pso_propose, _pso_accept),
    "BAT": (_bat_propose, _bat_accept),
    "CSO": (_cso_propose, _cso_accept),
    "DE": (_de_propose, _de_accept),
}


def _per_point(fbatch):
    """An evaluator of a population that gives each row the value it gets
    evaluated alone: the objective's own `per_point` where it has one (see
    objectives.BatchEvaluator), else one call per row."""
    return getattr(fbatch, "per_point", None) or (lambda X: np.array([float(fbatch(x)) for x in X]))


def step(state: SwarmState, config: AlgorithmConfig, box: Box, fbatch, rng, rng_noise) -> SwarmState:
    """One iteration: propose, perturb-project, evaluate, accept, track the best."""
    propose, accept = _KERNELS[config.family]
    Y, ctx = propose(state, config, rng)
    de = config.family == "DE"
    if config.variant == "base":
        X = _clip(Y, box)
    else:
        k = len(Y) if config.variant == "pp" else len(Y) // 2
        X = perturb_project(Y, box, config.noise, rng_noise, k, rows=k if de else len(Y))
    f = np.asarray((_per_point(fbatch) if de else fbatch)(X), dtype=float)
    if not np.all(np.isfinite(f)):
        raise RunFailure(f"non-finite objective value in a {config.family} step")
    state.n_evals += len(X)
    accept(state, config, X, f, ctx, rng)
    if config.family != "PSO":  # PSO's accept moves its memory under condition H
        j = int(np.argmin(state.fvals))
        state.gbest_x = state.X[j].copy()
        state.gbest_f = float(state.fvals[j])
    if state.gbest_f < state.best_f:
        state.best_f = state.gbest_f
        state.best_x = state.gbest_x.copy()
    return state


def _check_invariants(state: SwarmState, box: Box, prev_best: float, record: RunRecord):
    # C1: the swarm and its memory lie in the box; C3: best-so-far never rises
    if not all(contains(x, box) for x in (state.X, state.pbest_X, state.gbest_x) if x is not None):
        record.violations_c1 += 1
    if state.best_f > prev_best:
        record.violations_c3 += 1


def check_checkpoints(checkpoints, max_iter: int) -> list[int]:
    """The checkpoint iterations as ints: increasing, from 0 to max_iter."""
    ints = [int(t) for t in checkpoints]
    if ints != list(checkpoints):
        raise ValueError(f"checkpoints must be integers, got {list(checkpoints)}")
    checkpoints = ints
    if sorted(checkpoints) != checkpoints:
        raise ValueError("checkpoints must be sorted")
    if len(set(checkpoints)) != len(checkpoints):
        raise ValueError(f"checkpoints must be distinct, got {checkpoints}")
    if checkpoints and checkpoints[0] < 0:
        raise ValueError(f"checkpoints must not be negative, got {checkpoints[0]}")
    if checkpoints and checkpoints[-1] > max_iter:
        raise ValueError("checkpoints must not exceed max_iter")
    return checkpoints


def run(
    config: AlgorithmConfig,
    fbatch,
    box: Box,
    seed: int,
    max_iter: int,
    checkpoints,
    check_invariants: bool = True,
) -> RunRecord:
    """Run one seeded trajectory and record best-so-far at each checkpoint.

    fbatch maps an (n, d) population to an (n,) value array (see
    objectives.batch_evaluator).  Deterministic given (config, seed).
    """
    checkpoints = check_checkpoints(checkpoints, max_iter)
    ss = np.random.SeedSequence(seed)
    dyn_ss, noise_ss = ss.spawn(2)
    rng = np.random.default_rng(dyn_ss)
    rng_noise = np.random.default_rng(noise_ss)

    record = RunRecord(
        seed=seed,
        config_digest=config.digest(),
        checkpoints={},
        final_best_point=None,
        final_best_value=np.inf,
    )
    state = init_state(config, box, fbatch, rng)
    cpset = set(checkpoints)
    if 0 in cpset:
        record.checkpoints[0] = state.best_f
    for t in range(1, max_iter + 1):
        prev_best = state.best_f
        step(state, config, box, fbatch, rng, rng_noise)
        if check_invariants:
            _check_invariants(state, box, prev_best, record)
        if t in cpset:
            record.checkpoints[t] = state.best_f
    record.final_best_point = state.best_x.copy()
    record.final_best_value = state.best_f
    record.n_evals = state.n_evals
    return record

"""Swarm kernels: PSO, BAT, CSO and DE, each in base / perturbed (pp) /
half-perturbed (hpp) variants, sharing one step skeleton.

Every run owns two independent random generators derived from its seed:
default_rng(child), a PCG64 Generator, for each of the two children of
SeedSequence(seed).spawn(2), the first for the algorithm's own dynamics and
the second for the exploration noise.  The base variant never touches the
noise stream, so a perturbed variant with a degenerate noise scale replays
the base trajectory bit for bit.

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

Runs of one configuration and dimension step as one stack (`run` given
sequences of objectives, boxes and seeds).  Their state arrays carry a
leading run axis: positions (R, n, d), values (R, n), one memory and one
best-so-far per run, box bounds (R, 1, d) (search_space.BoxStack).  Only
the draws loop over the runs: each run draws from its own two generators,
in the order above, as it would alone, and the streams are never merged.
The arithmetic, the clamp and noise step, acceptance, best-so-far tracking,
the invariant check (one containment test per array, counted per run) and
the checkpoint record act once on the whole stack.  The objective is called
once per stretch of runs that share it, on all their rows: an objective
values each row on its own, so a row gets the value it gets in a call of
its run alone.  Each run's record is therefore bit for bit the one it gets
alone; `run` with one seed, `init_state` and `step` are the R=1 case of
this code.

A stack sets its runs up in array code.  SeedSequence's hash is fixed
uint32 arithmetic, so _spawned_words derives every run's two PCG64 seed words
(each child's generate_state(4, uint64)) in one pass over the stack's seeds;
a seed that is not an int in [0, 2**64) goes to SeedSequence as given.  The
start positions are drawn as random() values and scaled to the BoxStack in
one expression, the per-element arithmetic of Generator.uniform, so each run
starts where sample_uniform would start it.  A check made once per process,
at its first stack, compares both with numpy's own calls; if they differ,
every stack of the process takes the per-run calls (init_state always does)
and a DrawFallbackWarning says so.

A run whose objective gives a non-finite value, at initialisation or in a
step, fails alone: it gets a failed record, its row is taken out of the
stack, and the other runs go on as they would without it.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import operator
import warnings
from dataclasses import dataclass, field, fields

import numpy as np

from .perturbation import NoiseModel, sample_noise
from .search_space import Box, BoxStack, contains, sample_uniform

FAMILIES = ("PSO", "BAT", "CSO", "DE")
VARIANTS = ("base", "pp", "hpp")


class RunFailure(RuntimeError):
    """A run produced a non-finite objective value and was aborted."""


class DrawFallbackWarning(RuntimeWarning):
    """A once-per-process self-check found that an emulation of numpy's draws
    differs from numpy's own calls, so the slower per-run calls are used."""


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
    """Mutable state of one run, with the shapes noted; or of R runs of one
    configuration and dimension, stacked on a leading run axis (X (R, n, d),
    gbest_x (R, d), gbest_f (R,), ...), the form the kernels step."""

    X: np.ndarray  # (n, d) positions
    fvals: np.ndarray  # (n,) objective values of X
    V: np.ndarray | None  # (n, d) velocities (PSO/BAT/CSO)
    pbest_X: np.ndarray | None  # PSO personal bests
    pbest_f: np.ndarray | None
    gbest_x: np.ndarray  # the in-dynamics global memory agent
    gbest_f: float
    best_x: np.ndarray  # monotone best-so-far memory (reporting)
    best_f: float
    n_evals: int = 0  # per run


def _stacked(state: SwarmState) -> SwarmState:
    """One run's state as a stack of one run, sharing its arrays."""
    stack = SwarmState(**vars(state))
    for f in fields(SwarmState):
        value = getattr(state, f.name)
        if value is not None and f.name != "n_evals":
            setattr(stack, f.name, np.asarray(value)[None])
    return stack


def _unstacked(stack: SwarmState) -> SwarmState:
    """The run of a stack of one, as its own state."""
    state = SwarmState(**vars(stack))
    for f in fields(SwarmState):
        value = getattr(stack, f.name)
        if isinstance(value, np.ndarray):
            setattr(state, f.name, value[0] if value.ndim > 1 else value.item())
    return state


class _Runs:
    """What R stacked runs own besides their state: their boxes (and the
    BoxStack of them), dynamics and noise generators, objectives (and the
    stretches of runs that share one), C1/C3 counts, and the index of each
    run in the caller's sequence."""

    def __init__(self, fbatches, boxes, rngs, rng_noises):
        self.fbatches, self.boxes = list(fbatches), list(boxes)
        self.rngs, self.rng_noises = list(rngs), list(rng_noises)
        self.rows = list(range(len(self.rngs)))
        self.violations_c1 = np.zeros(len(self.rows), dtype=int)
        self.violations_c3 = np.zeros(len(self.rows), dtype=int)
        self._index()

    def _index(self):
        self.box = BoxStack.of(self.boxes)
        self.stretches, start = [], 0  # (objective, first run, last run + 1)
        for _, same in itertools.groupby(self.fbatches, key=id):
            same = list(same)
            self.stretches.append((same[0], start, start + len(same)))
            start += len(same)

    def evaluate(self, X, per_point: bool = False) -> np.ndarray:
        """Values (R, m) of the rows X (R, m, d): one objective call on the
        rows of each stretch of runs that share an objective."""
        R, m, d = X.shape
        f = np.empty((R, m))
        for fbatch, start, stop in self.stretches:
            fbatch = _per_point(fbatch) if per_point else fbatch
            f[start:stop] = np.asarray(fbatch(X[start:stop].reshape(-1, d)), dtype=float).reshape(-1, m)
        return f

    def drop(self, state: SwarmState, failed: np.ndarray, records: list, reason: str):
        """Give each flagged run a failed record and take it out of the stack."""
        if not failed.any():
            return
        for i in itertools.compress(self.rows, failed):
            records[i] = RunRecord(records[i].seed, records[i].config_digest, {}, None, None, status=f"failed: {reason}")
        keep = ~failed
        for name in ("fbatches", "boxes", "rngs", "rng_noises", "rows"):
            setattr(self, name, list(itertools.compress(getattr(self, name), keep)))
        self.violations_c1, self.violations_c3 = self.violations_c1[keep], self.violations_c3[keep]
        for f in fields(SwarmState):
            value = getattr(state, f.name)
            if isinstance(value, np.ndarray):
                setattr(state, f.name, value[keep])
        if self.rows:
            self._index()


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
            else self.final_best_point.tolist(),
            "final_best_value": self.final_best_value,
            "violations_c1": self.violations_c1,
            "violations_c3": self.violations_c3,
            "n_evals": self.n_evals,
            "status": self.status,
        }


_UINT32 = 0xFFFFFFFF


def _hash_constants(init: int, mult: int, rounds: int):
    """The constants of SeedSequence's first `rounds` hash rounds: the one each
    XORs in and the one it multiplies by, as (rounds, 1) uint32 arrays."""
    consts = [init]
    for _ in range(rounds):
        consts.append(consts[-1] * mult & _UINT32)
    consts = np.array(consts, dtype=np.uint32)[:, None]
    return consts[:-1], consts[1:]


def _hashmix(value, xor, mult):
    value = (value ^ xor) * mult
    return value ^ value >> np.uint32(16)


def _mix(x, y):
    mixed = np.uint32(0xCA01F9DD) * x - np.uint32(0x4973F715) * y
    return mixed ^ mixed >> np.uint32(16)


def _spawned_words(seeds) -> np.ndarray:
    """SeedSequence(seed).spawn(2)[c].generate_state(4, np.uint64) for each
    seed, an int in [0, 2**64), and c in (0, 1): an (R, 2, 4) uint64 array.

    A child's entropy is the seed's low and high uint32 words, two zeros
    (entropy is padded to the pool's four words when a spawn key follows) and
    its spawn key c.  mix_entropy hashes the first four into the pool, mixes
    every pool word into every other, then mixes c into each; generate_state
    hashes the pool out as eight uint32s, paired low word first.  Each line
    below is one of those steps for all seeds at once; a source word's three
    mixes run together, as none of them writes a word another reads.
    """
    ax, am = _hash_constants(0x43B0D7E5, 0x931E8875, 20)
    bx, bm = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)
    seeds = np.array(seeds, dtype=np.uint64)
    pool = np.zeros((4, len(seeds)), dtype=np.uint32)
    pool[0], pool[1] = seeds.astype(np.uint32), (seeds >> np.uint64(32)).astype(np.uint32)
    pool = _hashmix(pool, ax[:4], am[:4])
    for src in range(4):
        dst, k = [w for w in range(4) if w != src], slice(4 + 3 * src, 7 + 3 * src)
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], ax[k], am[k]))
    child = _hashmix(np.arange(2, dtype=np.uint32), ax[16:], am[16:])  # (4, 2)
    pool = _mix(pool[:, :, None], child[:, None])  # (4, R, 2)
    state = _hashmix(pool[[0, 1, 2, 3] * 2], bx[..., None], bm[..., None]).astype(np.uint64)
    return np.ascontiguousarray((state[0::2] | state[1::2] << np.uint64(32)).transpose(1, 2, 0))


@functools.cache
def _seed_words() -> type:
    """The seed sequence class whose instances are given by precomputed words:
    PCG64 takes its state and increment from generate_state(4, np.uint64).
    Made at first use, so that importing swarmpp does not import numpy.random."""

    class SeedWords(np.random.bit_generator.ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return SeedWords


def _seed_value(seed):
    """A seed of any integer type as a Python int, so that its record
    serialises; anything else as given, for SeedSequence to take or refuse."""
    try:
        return operator.index(seed)
    except TypeError:
        return seed


def _run_generators(seeds) -> list[np.random.Generator]:
    """Each run's dynamics and noise generators, run after run:
    default_rng(child) for the two children of SeedSequence(seed).spawn(2),
    built from _spawned_words for a seed that is an int in [0, 2**64)."""
    exact = [_stack_setup_agrees() and isinstance(s, int) and 0 <= s < 1 << 64 for s in seeds]
    words = iter(_spawned_words(list(itertools.compress(seeds, exact))) if any(exact) else ())
    children = [map(_seed_words(), next(words)) if e else np.random.SeedSequence(s).spawn(2) for s, e in zip(seeds, exact)]
    return [np.random.Generator(np.random.PCG64(child)) for pair in children for child in pair]


def _stacked_uniform(box: BoxStack, rngs, n: int) -> np.ndarray:
    """n points per run (R, n, d), uniform over each run's box: random() values
    scaled as Generator.uniform scales each element, low + (high - low) * u."""
    U = np.empty((len(rngs), n, box.dim))
    for r, rng in enumerate(rngs):
        rng.random(out=U[r])
    return box.lower + (box.upper - box.lower) * U


def _starts(n: int, runs: _Runs) -> np.ndarray:
    """Each run's sample_uniform(box, rng, n), stacked."""
    if _stack_setup_agrees():
        X = _stacked_uniform(runs.box, runs.rngs, n)
        if np.isfinite(X).all():  # else a box's span overflows, and uniform raises
            return X
    return np.stack([sample_uniform(box, rng, n) for box, rng in zip(runs.boxes, runs.rngs)])


@functools.cache
def _stack_setup_agrees() -> bool:
    """Whether _spawned_words gives SeedSequence's child states and
    _stacked_uniform gives sample_uniform's values, sign bits included, under
    this numpy: for edge and random 64-bit seeds, and boxes that are no cube
    or straddle zero.  Checked once per process, at the first stack's setup;
    if it fails, stacks take the per-run calls."""
    seeds = [0, 1, 2**31, 2**32 - 1, 2**32, 2**63, 2**64 - 1, 0x9E3779B97F4A7C15, 0x2545F4914F6CDD1D]
    boxes = [Box([-15.0, -3.0], [-5.0, 3.0]), Box([-5.0, 0.0], [10.0, 15.0]), Box.cube(-1e-3, 0.5, 2)]
    try:
        for seed, words in zip(seeds, _spawned_words(seeds)):
            for child, w in zip(np.random.SeedSequence(seed).spawn(2), words):
                ours = np.random.Generator(np.random.PCG64(_seed_words()(w))).bit_generator.state
                if ours != np.random.default_rng(child).bit_generator.state:
                    raise ValueError(f"seed {seed}: generator state differs from SeedSequence's")
        ours = _stacked_uniform(BoxStack.of(boxes), [np.random.default_rng(s) for s in seeds[:3]], 16)
        ref = [sample_uniform(box, np.random.default_rng(s), 16) for box, s in zip(boxes, seeds)]
        if ours.tobytes() != np.stack(ref).tobytes():
            raise ValueError("start positions differ from Generator.uniform's")
    except (AttributeError, KeyError, TypeError, ValueError) as exc:  # another numpy's API or arithmetic
        warnings.warn(f"stacks set their runs up one by one: {exc}", DrawFallbackWarning, stacklevel=2)
        return False
    return True


def _init(config: AlgorithmConfig, runs: _Runs, X: np.ndarray) -> tuple[SwarmState, np.ndarray]:
    """The state of R stacked runs at their start positions X (R, n, d): zero
    velocities, memory seeded from each swarm; also flags the runs with a
    non-finite value."""
    fvals = runs.evaluate(X)
    rows, j = np.arange(len(X)), np.argmin(fvals, axis=1)
    state = SwarmState(
        X=X,
        fvals=fvals,
        V=None if config.family == "DE" else np.zeros_like(X),
        pbest_X=X.copy() if config.family == "PSO" else None,
        pbest_f=fvals.copy() if config.family == "PSO" else None,
        gbest_x=X[rows, j],
        gbest_f=fvals[rows, j],
        best_x=X[rows, j],
        best_f=fvals[rows, j],
        n_evals=config.n,
    )
    return state, ~np.isfinite(fvals).all(axis=1)


_INIT_FAILURE = "non-finite objective value during initialization"


def init_state(config: AlgorithmConfig, box: Box, fbatch, rng: np.random.Generator) -> SwarmState:
    """One run's initial state: the R=1 case of _init."""
    state, failed = _init(config, _Runs([fbatch], [box], [rng], [None]), sample_uniform(box, rng, config.n)[None])
    if failed[0]:
        raise RunFailure(_INIT_FAILURE)
    return _unstacked(state)


def _clip(X, box: Box | BoxStack) -> np.ndarray:
    return np.clip(X, box.lower, box.upper)


def perturb_project(Y, box: Box | BoxStack, noise: NoiseModel, rng_noise, k: int, rows: int) -> np.ndarray:
    """Clamp the candidate rows Y into the box, add noise to the first k rows
    and clamp those again; the other rows are only clamped.

    Y is one run's (m, d) rows with its box and noise generator, or R runs'
    (R, m, d) rows with their BoxStack and a sequence of R generators.  Each
    run draws rows >= k noise rows in one block from its own generator and
    uses the first k, so its noise stream advances by the count each family
    has always drawn.  The output is always inside the box, whatever the
    noise magnitude.
    """
    if np.ndim(Y) == 2:
        return perturb_project(np.asarray(Y)[None], box, noise, [rng_noise], k, rows)[0]
    X = _clip(Y, box)
    w = np.empty((len(X), rows, box.dim))
    for r, rng in enumerate(rng_noise):
        w[r] = sample_noise(noise, box.dim, rng, size=rows)
    X[:, :k] = _clip(X[:, :k] + w[:, :k], box)
    return X


# Each family supplies propose(state, config, runs) -> (Y, ctx), each run's
# dynamics draws, from its own generator in its own order, giving the raw
# candidate rows (R, m, d), and accept(state, config, X, f, ctx, runs), which
# writes the evaluated rows X with values f back into the swarms.  Only the
# draws loop over the runs; the arithmetic acts on the whole stack.


def _pso_propose(state: SwarmState, config: AlgorithmConfig, runs: _Runs):
    U = np.empty((len(state.X), 2, *state.X.shape[1:]))
    for r, rng in enumerate(runs.rngs):
        rng.random(out=U[r])  # U1 then U2, as two calls would draw them
    U1, U2 = U[:, 0], U[:, 1]
    state.V = (
        config.w * state.V
        + config.c1 * U1 * (state.pbest_X - state.X)
        + config.c2 * U2 * (state.gbest_x[:, None] - state.X)
    )
    return state.X + state.V, None


def _pso_accept(state: SwarmState, config: AlgorithmConfig, X, f, ctx, runs: _Runs):
    state.X = X
    state.fvals = f
    improved = f < state.pbest_f
    state.pbest_X = np.where(improved[..., None], X, state.pbest_X)
    state.pbest_f = np.where(improved, f, state.pbest_f)
    rows, j = np.arange(len(f)), np.argmin(state.pbest_f, axis=1)
    best_f = state.pbest_f[rows, j]
    # condition H: strict improvement of the best personal-best value
    moved = best_f < state.gbest_f
    state.gbest_x = np.where(moved[:, None], state.pbest_X[rows, j], state.gbest_x)
    state.gbest_f = np.where(moved, best_f, state.gbest_f)


def _bat_propose(state: SwarmState, config: AlgorithmConfig, runs: _Runs):
    R, n, d = state.X.shape
    freq, pulse = np.empty((2, R, n))
    eps = np.empty((R, n, d))
    for r, rng in enumerate(runs.rngs):
        freq[r] = rng.uniform(config.q_min, config.q_max, size=n)
        rng.random(out=pulse[r])
        eps[r] = rng.normal(0.0, config.local_step_sigma, size=(n, d))
    gbest_x = state.gbest_x[:, None]
    # follows the printed v + U(x - x*) orientation
    state.V = state.V + freq[..., None] * (state.X - gbest_x)
    cand = np.where((pulse < config.pulse_rate)[..., None], state.X + state.V, gbest_x + eps)
    return cand, None


def _bat_accept(state: SwarmState, config: AlgorithmConfig, X, f, ctx, runs: _Runs):
    # the loudness revert postdates the perturbation
    loud = np.empty(f.shape)
    for r, rng in enumerate(runs.rngs):
        rng.random(out=loud[r])
    # positions are kept inside the box every step, so chi(x_i(t)) = x_i(t)
    # and its value is the cached one
    revert = (loud < config.loudness) | (state.fvals < f)
    state.X = np.where(revert[..., None], state.X, X)
    state.fvals = np.where(revert, state.fvals, f)


def _cso_propose(state: SwarmState, config: AlgorithmConfig, runs: _Runs):
    R, n, d = state.X.shape
    perm = np.empty((R, n), dtype=np.intp)
    U = np.empty((R, 3, n // 2, d))
    for r, rng in enumerate(runs.rngs):
        perm[r] = rng.permutation(n)
        rng.random(out=U[r])  # U1, U2 then U3, as three calls would draw them
    U1, U2, U3 = U[:, 0], U[:, 1], U[:, 2]
    rows = np.arange(R)[:, None]
    first, second = perm[:, 0::2], perm[:, 1::2]
    first_wins = state.fvals[rows, first] < state.fvals[rows, second]
    winners = np.where(first_wins, first, second)
    losers = np.where(first_wins, second, first)
    X_losers = state.X[rows, losers]
    Vl = U1 * state.V[rows, losers] + U2 * (state.X[rows, winners] - X_losers)
    if config.phi != 0.0:
        xbar = state.X.mean(axis=1, keepdims=True)
        Vl = Vl + config.phi * U3 * (xbar - X_losers)
    return X_losers + Vl, (rows, losers, Vl)


def _cso_accept(state: SwarmState, config: AlgorithmConfig, X, f, ctx, runs: _Runs):
    rows, losers, Vl = ctx
    state.X[rows, losers] = X
    state.V[rows, losers] = Vl
    state.fvals[rows, losers] = f


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
        warnings.warn(f"DE uses its per-agent draw loop: {exc}", DrawFallbackWarning, stacklevel=2)
        return False
    return True


def _de_propose(state: SwarmState, config: AlgorithmConfig, runs: _Runs):
    R, n, d = state.X.shape
    J, K, forced = np.empty((3, R, n), dtype=np.intp)
    coins = np.empty((R, n, d))
    for r, rng in enumerate(runs.rngs):
        fast = type(rng) is np.random.Generator and type(rng.bit_generator) is np.random.PCG64
        draws = _de_draws_block if fast and _block_draws_agree() else _de_draws_loop
        J[r], K[r], forced[r], coins[r] = draws(rng, n, d)
    rows, X = np.arange(R)[:, None], state.X
    keep = coins < config.crossover
    keep[rows, np.arange(n), forced] = True
    return np.where(keep, X + config.f_weight * (X[rows, J] - X[rows, K]), X), None


def _de_accept(state: SwarmState, config: AlgorithmConfig, X, f, ctx, runs: _Runs):
    # greedy selection against the values at the start of the step
    better = f < state.fvals
    state.X = np.where(better[..., None], X, state.X)
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


def _step(state: SwarmState, config: AlgorithmConfig, runs: _Runs) -> np.ndarray:
    """One iteration of R stacked runs: propose, perturb-project, evaluate,
    accept, track the best.  Flags the runs that met a non-finite value."""
    propose, accept = _KERNELS[config.family]
    Y, ctx = propose(state, config, runs)
    de = config.family == "DE"
    if config.variant == "base":
        X = _clip(Y, runs.box)
    else:
        m = Y.shape[1]
        k = m if config.variant == "pp" else m // 2
        X = perturb_project(Y, runs.box, config.noise, runs.rng_noises, k, rows=k if de else m)
    f = runs.evaluate(X, per_point=de)
    state.n_evals += X.shape[1]
    accept(state, config, X, f, ctx, runs)
    if config.family != "PSO":  # PSO's accept moves its memory under condition H
        rows, j = np.arange(len(f)), np.argmin(state.fvals, axis=1)
        state.gbest_x = state.X[rows, j]
        state.gbest_f = state.fvals[rows, j]
    better = state.gbest_f < state.best_f
    state.best_f = np.where(better, state.gbest_f, state.best_f)
    state.best_x = np.where(better[:, None], state.gbest_x, state.best_x)
    return ~np.isfinite(f).all(axis=1)


def step(state: SwarmState, config: AlgorithmConfig, box: Box, fbatch, rng, rng_noise) -> SwarmState:
    """One iteration of one run's state: the R=1 case of _step."""
    stack = _stacked(state)
    if _step(stack, config, _Runs([fbatch], [box], [rng], [rng_noise]))[0]:
        raise RunFailure(_step_failure(config))
    vars(state).update(vars(_unstacked(stack)))
    return state


def _step_failure(config: AlgorithmConfig) -> str:
    return f"non-finite objective value in a {config.family} step"


def _check_invariants(state: SwarmState, box: Box | BoxStack, prev_best, record):
    """Count a C1 violation unless the swarm and its memory lie in the box,
    and a C3 violation if best-so-far rose.  For one run's state and record,
    or per run for a stack, its BoxStack and its _Runs."""
    inside = contains(state.X, box, axis=(-2, -1)) & contains(state.gbest_x[..., None, :], box, axis=(-2, -1))
    if state.pbest_X is not None:
        inside &= contains(state.pbest_X, box, axis=(-2, -1))
    record.violations_c1 += ~inside
    record.violations_c3 += state.best_f > prev_best


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
    objectives.batch_evaluator).  Deterministic given (config, seed); a
    non-finite objective value raises RunFailure.

    Given equal-length sequences of objectives, boxes (of one dimension) and
    seeds instead, steps those runs as one stack and returns their records in
    order, each the record the run gives alone.  A run that meets a
    non-finite value gets a record with status "failed: <reason>" and no
    results, and the others go on.  Consecutive runs given the same
    objective object are evaluated in one call.
    """
    if np.ndim(seed) != 0:
        return _run_stack(config, fbatch, box, seed, max_iter, checkpoints, check_invariants)
    (record,) = _run_stack(config, [fbatch], [box], [seed], max_iter, checkpoints, check_invariants)
    if record.status != "ok":
        raise RunFailure(record.status.removeprefix("failed: "))
    return record


def _run_stack(config, fbatches, boxes, seeds, max_iter, checkpoints, check_invariants) -> list[RunRecord]:
    checkpoints = set(check_checkpoints(checkpoints, max_iter))
    if not len(fbatches) == len(boxes) == len(seeds):
        raise ValueError("need one objective and one box per seed")
    digest = config.digest()
    seeds = [_seed_value(seed) for seed in seeds]
    records = [RunRecord(seed, digest, {}, None, np.inf) for seed in seeds]
    generators = _run_generators(seeds)
    runs = _Runs(fbatches, boxes, generators[0::2], generators[1::2])
    state, failed = _init(config, runs, _starts(config.n, runs))
    runs.drop(state, failed, records, _INIT_FAILURE)
    for t in range(max_iter + 1):
        if not runs.rows:
            break
        if t > 0:
            prev_best = state.best_f
            failed = _step(state, config, runs)
            if check_invariants:
                _check_invariants(state, runs.box, prev_best, runs)
            runs.drop(state, failed, records, _step_failure(config))
        if t in checkpoints:
            for i, best in zip(runs.rows, state.best_f.tolist()):
                records[i].checkpoints[t] = best
    for r, i in enumerate(runs.rows):
        record = records[i]
        record.final_best_point = state.best_x[r].copy()
        record.final_best_value = float(state.best_f[r])
        record.violations_c1 = int(runs.violations_c1[r])
        record.violations_c3 = int(runs.violations_c3[r])
        record.n_evals = state.n_evals
    return records

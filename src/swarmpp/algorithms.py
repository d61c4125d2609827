"""Swarm kernels: PSO, BAT, CSO and DE, each in base / perturbed (pp) /
half-perturbed (hpp) variants, sharing one step skeleton.

Every run owns two independent random generators derived from its seed, an
integer in [0, 2**64): PCG64 Generators in the states default_rng gives the
two children that numpy's SeedSequence of the seed spawns, the first for the
algorithm's own dynamics and the second for the exploration noise.  The
base variant never touches the noise stream, so a perturbed variant with a
degenerate noise scale replays the base trajectory bit for bit.

A step (`step`) is the same for every family: the family proposes m raw
candidate rows from its dynamics; the skeleton clamps them into the box and,
for pp and hpp, adds noise to the perturbed rows and clamps those again
(`perturb_project`); it evaluates the rows, the family accepts or rejects
them, and the skeleton updates the best-so-far memory.

The variants differ only in k, the number of rows perturbed: base perturbs
none, pp all m rows, hpp the first floor(m/2).  m is n for PSO, BAT and DE,
so hpp perturbs agents 0..n/2-1; for CSO the rows are the n/2 losers in
pair order, so hpp perturbs the losers of pairs 0..n/4-1.

Random draw order inside each step is part of the contract (golden-trace
tests pin it):

  PSO:  U1 (n,d), U2 (n,d) from dynamics; noise (n,d) for non-base.
  BAT:  frequencies then pulse coins (2, n) in one call, local-walk eps
        (n,d), loudness coins (n,) from dynamics; noise (n,d) for non-base.
  CSO:  pairing order (n,), U1, U2, U3 (n/2, d) in pair order from
        dynamics; noise (n/2, d) for non-base.
  DE:   per agent in index order: donor j (rejection), donor k (rejection),
        forced index, crossover coins (d,) from dynamics; noise (d,) for
        each perturbed agent only, drawn as one block.

PSO, BAT and CSO draw noise rows for all m candidates under hpp too, and use
the first floor(m/2).

A stack parses DE's draws off the raw words of its runs' own PCG64s
(_Words), each run keeping its unused words and uint32 half for the next
step.  A step on a caller's generator draws them agent by agent with
Generator calls (_de_draws_loop), the reference the parse is tested against.

DE values its trials as single points would be valued: one ulp in an
accepted value changes its trajectory, and numpy's `**` on a value derived
from a point's components differs in the last bit between one point (a
scalar, C pow) and a block (an array).  A registered objective's
`per_point` (objectives.BatchEvaluator) gives the single-point values in one
call; any other callable is called once per row.  tests/golden_runs.json
pins cases that a plain batched call breaks.

Runs of one family and dimension step as one stack (`run` given sequences
of objectives, boxes and seeds, and one config or one per seed).  A stack
may mix the family's variants: its configs agree in every field but
`variant`, and each run perturbs its own k rows.  Their state arrays carry
a leading run axis: positions (R, n, d), values (R, n), one memory and one
best-so-far per run, box bounds (R, 1, d) (search_space.BoxStack).  Only
the draws loop over the runs: each run draws from its own two generators,
in the order above, as it would alone, and the streams are never merged.
The arithmetic, the clamp, acceptance, best-so-far tracking, the invariant
check (one containment test per array, counted per run) and the checkpoint
record act once on the whole stack.  The noise step acts once on the runs
of each perturbed variant (_project), through a slice when they are
consecutive, as the harness orders them, else through an index array: a
stack of one variant does the arithmetic a lone run does.  The objective is
called once on the rows of all the runs that share it, wherever they sit:
an objective values each row on its own, so a row gets the value it gets
in a call of its run alone.  Each run's record is therefore bit for bit the
one it gets alone; `run` with one seed, `init_state`, `step` and
`perturb_project` are the R=1 case of this code.

Uniform values are the generator's random() doubles u: start positions are
search_space.uniform_in of them, BAT's frequencies q_min + (q_max - q_min) * u,
and a CSO pairing is arange(n) shuffled by the generator (_pairings).  This
arithmetic, not numpy's uniform or permutation, defines those draws.

A stack sets its runs up in array code: SeedSequence's hash is fixed uint32
arithmetic, so _spawned_words derives every run's two PCG64 seed words (each
child's generate_state(4, uint64)) in one pass over the stack's seeds.  Like
_Words, it rests only on PCG64's raw words, the stream NumPy's RNG policy
(NEP 19) keeps stable, and defines what it emulates: tests hold both equal
to numpy's own code.  A seed that is a bool, not an integer, or outside
[0, 2**64) is refused.  A stack draws one step per call, each run from its
own generators.

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
from dataclasses import dataclass, field, fields

import numpy as np

from .perturbation import NoiseModel, sample_noise
from .search_space import Box, BoxStack, contains, uniform_in

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
def split_label(label: str) -> tuple[str, str]:
    """The (family, variant) an algorithm label names."""
    variant = "base"
    fam = label
    if label.startswith("hm"):
        variant, fam = "hpp", label[2:]
    elif label.startswith("m"):
        variant, fam = "pp", label[1:]
    if fam not in FAMILIES:
        raise ValueError(f"unknown algorithm label {label!r}")
    return fam, variant


def config_for_label(label: str, **overrides) -> AlgorithmConfig:
    fam, variant = split_label(label)
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
    BoxStack of them), variants, dynamics and noise generators, objectives,
    C1/C3 counts, and the index of each run in the caller's sequence.

    `words` holds each run's _Words in a DE stack that `run` set up, whose
    generators are its own; else it is empty, and DE's draws come from the
    caller's generators through _de_draws_loop."""

    def __init__(self, fbatches, boxes, rngs, rng_noises, variants):
        self.fbatches, self.boxes = list(fbatches), list(boxes)
        self.rngs, self.rng_noises = list(rngs), list(rng_noises)
        self.variants = list(variants)
        self.rows = list(range(len(self.rngs)))
        self.violations_c1 = np.zeros(len(self.rows), dtype=int)
        self.violations_c3 = np.zeros(len(self.rows), dtype=int)
        self.words = []
        self._index()

    def _index(self):
        self.box = BoxStack.of(self.boxes)
        # (objective, its runs) and (variant, its runs, their noise generators)
        self.objectives = [(self.fbatches[rows[0]], _as_index(rows))
                           for rows in _positions_by_key(map(id, self.fbatches))]
        self.variant_runs = [(self.variants[rows[0]], _as_index(rows), [self.rng_noises[r] for r in rows])
                             for rows in _positions_by_key(self.variants)]

    def evaluate(self, X, per_point: bool = False) -> np.ndarray:
        """Values (R, m) of the rows X (R, m, d): one objective call on the
        rows of all the runs that share an objective."""
        R, m, d = X.shape
        f = np.empty((R, m))
        for fbatch, rows in self.objectives:
            fbatch = _per_point(fbatch) if per_point else fbatch
            f[rows] = np.asarray(fbatch(X[rows].reshape(-1, d)), dtype=float).reshape(-1, m)
        return f

    def drop(self, state: SwarmState, failed: np.ndarray, records: list, reason: str):
        """Give each flagged run a failed record and take it out of the stack."""
        if not failed.any():
            return
        for i in itertools.compress(self.rows, failed):
            records[i] = RunRecord(records[i].seed, records[i].config_digest, {}, None, None, status=f"failed: {reason}")
        keep = ~failed
        for name in ("fbatches", "boxes", "rngs", "rng_noises", "variants", "rows", "words"):
            setattr(self, name, list(itertools.compress(getattr(self, name), keep)))
        self.violations_c1, self.violations_c3 = self.violations_c1[keep], self.violations_c3[keep]
        for f in fields(SwarmState):
            value = getattr(state, f.name)
            if isinstance(value, np.ndarray):
                setattr(state, f.name, value[keep])
        if self.rows:
            self._index()


def _positions_by_key(keys) -> list[list[int]]:
    """The positions of each distinct key, in order of first appearance."""
    runs = {}
    for i, key in enumerate(keys):
        runs.setdefault(key, []).append(i)
    return list(runs.values())


def _as_index(rows: list[int]):
    """Ascending positions as an index into a run axis: a slice when they
    are consecutive, so that the index gives a view, else an array."""
    if rows[-1] - rows[0] == len(rows) - 1:
        return slice(rows[0], rows[-1] + 1)
    return np.array(rows)


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
    """generate_state(4, np.uint64) of child c of the SeedSequence of each
    seed, an int in [0, 2**64), for c in (0, 1): an (R, 2, 4) uint64 array.

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


def _seed_value(seed) -> int:
    """A seed of any integer type as a Python int, so that its record
    serialises.  A bool, a non-integer or a value outside [0, 2**64), the
    seeds _spawned_words hashes, is refused."""
    if isinstance(seed, (bool, np.bool_)) or not hasattr(seed, "__index__"):
        raise TypeError(f"a seed must be an integer, got {seed!r}")
    value = operator.index(seed)
    if not 0 <= value < 1 << 64:
        raise ValueError(f"a seed must be in [0, 2**64), got {seed!r}")
    return value


def _run_generators(seeds) -> list[np.random.Generator]:
    """Each run's dynamics and noise generators, run after run, for seeds that
    are ints in [0, 2**64): PCG64 Generators over _spawned_words, the states
    default_rng gives the two children of the seed's SeedSequence."""
    return [np.random.Generator(np.random.PCG64(_seed_words()(words))) for pair in _spawned_words(seeds) for words in pair]


def _random(rngs, shape) -> np.ndarray:
    """Each run's rng.random(shape), stacked (R, *shape): one call per run."""
    U = np.empty((len(rngs), *shape))
    for r, rng in enumerate(rngs):
        rng.random(out=U[r])
    return U


def _starts(n: int, runs: _Runs) -> np.ndarray:
    """n start points per run (R, n, d), each run's sample_uniform(box, rng, n)."""
    return uniform_in(runs.box, _random(runs.rngs, (n, runs.box.dim)))


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
    runs = _Runs([fbatch], [box], [rng], [None], [config.variant])
    state, failed = _init(config, runs, _starts(config.n, runs))
    if failed[0]:
        raise RunFailure(_INIT_FAILURE)
    return _unstacked(state)


def perturb_project(Y, box: Box, noise: NoiseModel, rng_noise, k: int, rows: int) -> np.ndarray:
    """Clamp one run's candidate rows Y (m, d) into the box, add noise to the
    first k rows and clamp those again; the other rows are only clamped.

    The run draws rows >= k noise rows in one block from its noise generator
    and uses the first k, so its noise stream advances by the count each
    family has always drawn: the R=1 case of a stack's step.  The output is
    always inside the box, whatever the noise magnitude.
    """
    w = sample_noise(noise, box.dim, rng_noise, size=rows)
    return _project(np.asarray(Y, dtype=float)[None], BoxStack.of([box]), [(slice(0, 1), k, w[None])])[0]


def _noise(noise: NoiseModel, d: int, rng_noises, rows: int) -> np.ndarray:
    """Each run's noise rows (R, rows, d), one sample_noise call per run."""
    w = np.empty((len(rng_noises), rows, d))
    for r, rng in enumerate(rng_noises):
        w[r] = sample_noise(noise, d, rng, size=rows)
    return w


def _project(Y, box: BoxStack, perturbed) -> np.ndarray:
    """The rows Y (R, m, d) clamped into their runs' boxes.  Each (runs, k, w)
    of `perturbed` names some runs (a slice or an index array) and the noise
    w, at least k rows per run: their first k rows get it added and are
    clamped again."""
    X = np.clip(Y, box.lower, box.upper)
    for runs, k, w in perturbed:
        X[runs, :k] = np.clip(X[runs, :k] + w[:, :k], box.lower[runs], box.upper[runs])
    return X


# Each family supplies propose(state, config, runs) -> (Y, ctx), each run's
# dynamics draws, from its own generator in its own order, giving the raw
# candidate rows (R, m, d), and accept(state, config, X, f, ctx, runs), which
# writes the evaluated rows X with values f back into the swarms.  Only the
# draws loop over the runs; the arithmetic acts on the whole stack.


def _pso_propose(state: SwarmState, config: AlgorithmConfig, runs: _Runs):
    # U1 then U2, as two calls would draw them
    U1, U2 = _random(runs.rngs, (2, *state.X.shape[1:])).swapaxes(0, 1)
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
    u, pulse = _random(runs.rngs, (2, n)).swapaxes(0, 1)  # frequency values, then pulse coins
    freq = config.q_min + (config.q_max - config.q_min) * u
    eps = np.empty((R, n, d))
    for r, rng in enumerate(runs.rngs):
        eps[r] = rng.normal(0.0, config.local_step_sigma, size=(n, d))
    gbest_x = state.gbest_x[:, None]
    # follows the printed v + U(x - x*) orientation
    state.V = state.V + freq[..., None] * (state.X - gbest_x)
    cand = np.where((pulse < config.pulse_rate)[..., None], state.X + state.V, gbest_x + eps)
    return cand, None


def _bat_accept(state: SwarmState, config: AlgorithmConfig, X, f, ctx, runs: _Runs):
    # the loudness revert postdates the perturbation
    loud = _random(runs.rngs, f.shape[1:])
    # positions are kept inside the box every step, so chi(x_i(t)) = x_i(t)
    # and its value is the cached one
    revert = (loud < config.loudness) | (state.fvals < f)
    state.X = np.where(revert[..., None], state.X, X)
    state.fvals = np.where(revert, state.fvals, f)


def _pairings(rngs, n: int) -> np.ndarray:
    """Each run's pairing order (R, n): arange(n) shuffled in place by the
    run's rng.shuffle.  Agents perm[2i] and perm[2i+1] form pair i."""
    perm = np.tile(np.arange(n), (len(rngs), 1))
    for row, rng in zip(perm, rngs):
        rng.shuffle(row)
    return perm


def _cso_propose(state: SwarmState, config: AlgorithmConfig, runs: _Runs):
    R, n, d = state.X.shape
    perm = _pairings(runs.rngs, n)
    # after the pairing: U1, U2 then U3, as three calls would draw them
    U1, U2, U3 = _random(runs.rngs, (3, n // 2, d)).swapaxes(0, 1)
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
    forced crossover index, then d crossover coins.  The reference for _Words,
    and the path for a caller's generator."""
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


class _Words:
    """One PCG64's raw words and its buffered uint32 half: DE's dynamics
    draws are parsed off them one step at a time, as _de_draws_loop draws
    them from a Generator over that PCG64.

    Generator.integers(m) is Lemire's method on next_uint32, which returns the
    low half of a fresh 64-bit word and keeps the high half for the next call
    (state "has_uint32"/"uinteger"); random() is (next_uint64 >> 11) * 2**-53
    and does not touch that buffer.  The integer draws are parsed in Python
    ints, Lemire's accept test inline, and a step's coins converted in one
    gather.  Words are read with random_raw as a parse needs them; the ones it
    leaves, and the uint32 half, wait for the next step.  A stack parses its
    own generators only, so nothing puts the unused words back.
    """

    def __init__(self, bg):
        state = bg.state
        self.bg, self.has, self.buf = bg, state["has_uint32"], state["uinteger"]
        self.raw = np.empty(0, dtype=np.uint64)

    def parse(self, n: int, d: int):
        """(J, K, forced, coins) of the next step: (n,) donor and forced
        indices, (n, d) crossover coins."""
        need = n * (d + 2)  # the words of a step at n >= 8, barring many redraws
        while True:
            if len(self.raw) < need:
                self.raw = np.concatenate((self.raw, self.bg.random_raw(need - len(self.raw))))
            try:
                return self._parsed(n, d)
            except IndexError:  # the draws ran past the words (_parsed has changed nothing): read more
                need += n * (d + 2)

    def _parsed(self, n: int, d: int):
        raw, pos, has, buf = self.raw, 0, self.has, self.buf
        words = memoryview(raw)
        low_n, low_d = (1 << 32) % n, (1 << 32) % d  # Lemire rejects v * m whose low half is below 2**32 mod m
        ints = []  # j, k, forced and the first coin's word, agent by agent
        for i in range(n):
            while True:  # donor j != i
                if has:
                    has, v = 0, buf
                else:
                    w, pos = words[pos], pos + 1
                    has, v, buf = 1, w & _UINT32, w >> 32
                v *= n
                if v & _UINT32 >= low_n and v >> 32 != i:
                    break
            j = v >> 32
            while True:  # donor k not in {i, j}
                if has:
                    has, v = 0, buf
                else:
                    w, pos = words[pos], pos + 1
                    has, v, buf = 1, w & _UINT32, w >> 32
                v *= n
                if v & _UINT32 >= low_n and v >> 32 != i and v >> 32 != j:
                    break
            k, v = v >> 32, 0
            while d > 1:  # the forced index; integers(1) draws nothing
                if has:
                    has, v = 0, buf
                else:
                    w, pos = words[pos], pos + 1
                    has, v, buf = 1, w & _UINT32, w >> 32
                v *= d
                if v & _UINT32 >= low_d:
                    break
            ints += j, k, v >> 32, pos  # the coins are the d words from pos
            pos += d
        ints = np.array(ints, dtype=np.intp).reshape(n, 4)
        coins = (raw[ints[:, 3:] + np.arange(d)] >> np.uint64(11)) * 2.0**-53
        self.raw, self.has, self.buf = raw[pos:].copy(), has, buf
        return ints[:, 0], ints[:, 1], ints[:, 2], coins


def _de_propose(state: SwarmState, config: AlgorithmConfig, runs: _Runs):
    R, n, d = state.X.shape
    J, K, forced = np.empty((3, R, n), dtype=np.intp)
    coins = np.empty((R, n, d))
    for r, rng in enumerate(runs.rngs):
        # a stack's own generator, parsed; a caller's, drawn by the loop
        J[r], K[r], forced[r], coins[r] = runs.words[r].parse(n, d) if runs.words else _de_draws_loop(rng, n, d)
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
    accept, track the best.  Each run perturbs k of its m candidate rows, k
    set by its variant (runs.variants; config's own is not read).  Flags the
    runs that met a non-finite value."""
    propose, accept = _KERNELS[config.family]
    Y, ctx = propose(state, config, runs)
    de, (m, d) = config.family == "DE", Y.shape[1:]
    perturbed = []
    for variant, rows, rng_noises in runs.variant_runs:
        if variant != "base":
            k = m if variant == "pp" else m // 2
            perturbed.append((rows, k, _noise(config.noise, d, rng_noises, k if de else m)))
    X = _project(Y, runs.box, perturbed)
    f = runs.evaluate(X, per_point=de)
    state.n_evals += m
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
    if _step(stack, config, _Runs([fbatch], [box], [rng], [rng_noise], [config.variant]))[0]:
        raise RunFailure(_step_failure(config))
    vars(state).update(vars(_unstacked(stack)))
    return state


def _step_failure(config: AlgorithmConfig) -> str:
    return f"non-finite objective value in a {config.family} step"


def _check_invariants(state: SwarmState, box: BoxStack, prev_best, runs: _Runs):
    """Count, per run of a stack, a C1 violation unless its swarm and memory
    lie in its box, and a C3 violation if its best-so-far rose."""
    inside = contains(state.X, box, axis=(-2, -1)) & contains(state.gbest_x[..., None, :], box, axis=(-2, -1))
    if state.pbest_X is not None:
        inside &= contains(state.pbest_X, box, axis=(-2, -1))
    runs.violations_c1 += ~inside
    runs.violations_c3 += state.best_f > prev_best


def check_checkpoints(checkpoints, max_iter: int) -> list[int]:
    """The checkpoint iterations as ints: increasing, from 0 to max_iter."""
    ints = [int(t) for t in checkpoints]
    if ints != list(checkpoints) or any(isinstance(t, (bool, np.bool_)) for t in checkpoints):
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
    configs,
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
    order, each the record the run gives alone.  `configs` is then one
    AlgorithmConfig or one per seed; configs per seed may differ only in
    variant, and each record carries its own config's digest.  A run that
    meets a non-finite value gets a record with status "failed: <reason>"
    and no results, and the others go on.  Runs given the same objective
    object are evaluated in one call per step.
    """
    if np.ndim(seed) != 0:
        return _run_stack(configs, fbatch, box, seed, max_iter, checkpoints, check_invariants)
    (record,) = _run_stack(configs, [fbatch], [box], [seed], max_iter, checkpoints, check_invariants)
    if record.status != "ok":
        raise RunFailure(record.status.removeprefix("failed: "))
    return record


def _run_stack(configs, fbatches, boxes, seeds, max_iter, checkpoints, check_invariants) -> list[RunRecord]:
    checkpoints = set(check_checkpoints(checkpoints, max_iter))
    configs = [configs] * len(seeds) if isinstance(configs, AlgorithmConfig) else list(configs)
    if not len(configs) == len(fbatches) == len(boxes) == len(seeds):
        raise ValueError("need one objective and one box per seed, and one config or one per seed")
    if len(seeds) == 0:
        return []
    dims = sorted({box.dim for box in boxes})
    if len(dims) > 1:
        raise ValueError(f"a stack's boxes must share one dimension, got dimensions {dims}")
    config, distinct = configs[0], {id(c): c for c in configs}
    for other in distinct.values():
        differ = [f.name for f in fields(config)
                  if f.name != "variant" and getattr(other, f.name) != getattr(config, f.name)]
        if differ:
            raise ValueError(f"a stack's configs may differ only in variant; two differ in {', '.join(differ)}")
    digests = {key: c.digest() for key, c in distinct.items()}
    seeds = [_seed_value(seed) for seed in seeds]
    records = [RunRecord(seed, digests[id(c)], {}, None, np.inf) for seed, c in zip(seeds, configs)]
    generators = _run_generators(seeds)
    runs = _Runs(fbatches, boxes, generators[0::2], generators[1::2], [c.variant for c in configs])
    state, failed = _init(config, runs, _starts(config.n, runs))
    runs.drop(state, failed, records, _INIT_FAILURE)
    if config.family == "DE":  # the generators are the stack's own: parse their words
        runs.words = [_Words(rng.bit_generator) for rng in runs.rngs]
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

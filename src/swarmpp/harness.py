"""Experiment orchestration: seed derivation, the full benchmark protocol,
result persistence and metric computation.

A plan fully determines every stored number: each (algorithm, function,
dimension, run) cell derives its own 64-bit seed from the master seed, so
runs are independent of execution order and parallelism degree.

Cells run in cell order (ExperimentPlan.iter_cells): by family (BAT, CSO, DE,
PSO), dimension, algorithm label (PSO < hmPSO < mPSO), function label and
run.  The cells of one (label, dimension) are a group; a stack is one call
of algorithms.run, which steps its runs together.  A group joins the stack
before it while both share family and dimension and the stack's runs x d
stays within the cap (_groups, _cap), so a family's base, hpp and pp runs at
a dimension step together as far as they fit.  At parallelism 1 the cap is
the full protocol's largest group at the plan's runs; at parallelism > 1 it
is the plan's own largest group, so the workers get independent stacks.
Either is capped at 56 000 run-coordinates, the full protocol's largest
group at its 100 runs, and a group larger than the cap is cut into stacks
within it, so no stack needs more memory than the full protocol's largest.
A stack's records are appended to runs.jsonl in cell order, in one write,
when it finishes: an interruption loses the stack in flight (at parallelism
> 1, the stacks being computed).

No record is held past its stack or its line, and no list of cells: at
parallelism 1 the cells stream from iter_cells into stacks as they are
reached.  As a record is appended, or read back on resume (runs.jsonl is
read a line at a time), its checkpoint values are written into the plan's
run table (_RunTables), if it is ok and its label is in a pair, and the
metrics are computed from that table: one float array (paired label,
member, checkpoint, run), 8 B per checkpoint, NaN where a run failed or
has no record.  Each label's config and digest are built once per execute
or resume call, for the record checks and the stacks.  Resume checks each
stored record against the plan's next cell: its cell, seed, config digest,
status and checkpoints.  A record out of place (missing, repeated or past
the last cell) or not the plan's raises StoreError, and the store keeps its
bytes; `swarmpp run` exits 2.

Store layout: <outdir>/manifest.json, <outdir>/runs.jsonl, <outdir>/metrics.csv.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import itertools
import json
import sys
import warnings
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import algorithms, metrics, objectives
from ._checks import integer
from .algorithms import config_for_label, split_label
from .perturbation import NoiseModel

DEFAULT_CHECKPOINTS = (50, 100, 200, 400, 1000, 3000, 10000)

METRICS_HEADER = "experiment,pair,function,dimension,checkpoint,metric,value,tie_count"


def derive_seed(master: int, algorithm: str, function: str, dimension: int, run: int) -> int:
    """Stable 64-bit seed for one run cell; a pure function of the tuple."""
    key = f"{master}|{algorithm}|{function}|{dimension}|{run}".encode()
    return int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "little")


def _listed(name: str, value) -> tuple:
    """A plan's list as a tuple; anything else, such as a string, which tuple()
    would split into characters, is refused."""
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"{name} must be a list, got {value!r}")
    return tuple(value)


@dataclass(frozen=True)
class ExperimentPlan:
    name: str = "experiment"
    algorithms: tuple[str, ...] = ("PSO", "mPSO", "hmPSO")
    pairs: tuple[tuple[str, str], ...] = (("PSO", "mPSO"), ("PSO", "hmPSO"))
    dimensions: tuple[int, ...] = objectives.COLLECTION_DIMS
    functions: tuple[str, ...] | None = None  # optional label subset
    runs: int = 100
    max_iter: int = 10_000
    checkpoints: tuple[int, ...] = DEFAULT_CHECKPOINTS
    master_seed: int = 0
    noise: NoiseModel = field(default_factory=NoiseModel)
    n: int = 32
    parallelism: int = 1

    def __post_init__(self):
        # stored as tuples, however given (directly, by from_dict or by replace)
        for name in ("algorithms", "pairs", "dimensions", "functions", "checkpoints"):
            if not (name == "functions" and self.functions is None):
                object.__setattr__(self, name, _listed(name, getattr(self, name)))
        object.__setattr__(self, "pairs", tuple(_listed("a pairs entry", p) for p in self.pairs))
        for p in self.pairs:
            if len(p) != 2:
                raise ValueError(f"a pairs entry must be two algorithm labels, got {list(p)}")
        # stored as ints before anything compares them: 5.0 == 5, but derive_seed keys on str(d)
        # runs and max_iter at most 10x the protocol's 100 runs and 100x its
        # 10 000 iterations, so that an accepted plan can finish
        for name, lo, hi in (("runs", 1, 1000), ("max_iter", 0, 10**6), ("n", 2, None),
                             ("parallelism", 1, None), ("master_seed", None, None)):
            object.__setattr__(self, name, integer(getattr(self, name), name, lo, hi))
        object.__setattr__(self, "dimensions", tuple(integer(d, "a dimensions entry") for d in self.dimensions))
        if not isinstance(self.name, str):
            raise TypeError(f"name must be a string, got {self.name!r}")
        if not isinstance(self.noise, NoiseModel):  # checked here too, as a plan may list no algorithm
            raise TypeError(f"noise must be a NoiseModel, got {self.noise!r}")
        unsafe = [c for c in (",", '"', "\r", "\n") if c in self.name]
        if unsafe:  # metrics.csv writes the name unquoted
            raise ValueError(f"name must not contain {' or '.join(map(repr, unsafe))}, got {self.name!r}")
        for label in self.algorithms:
            config_for_label(label, n=self.n, noise=self.noise)  # rejects bad labels and swarm sizes
        for a, b in self.pairs:
            if a not in self.algorithms or b not in self.algorithms:
                raise ValueError(f"pair ({a}, {b}) references an algorithm not in the plan")
        for d in self.dimensions:
            if d not in objectives.COLLECTION_DIMS:
                raise ValueError(f"dimension {d} not in {objectives.COLLECTION_DIMS}")
        # a repeated entry would write its metric rows twice, or run once
        # while the manifest and digest keep it
        for name in ("algorithms", "dimensions", "pairs", "functions"):
            entries = getattr(self, name) or ()
            if len(set(entries)) != len(entries):
                raise ValueError(f"{name} must be distinct, got {list(entries)}")
        unknown = [f for f in self.functions or () if f not in objectives.REGISTRY]
        if unknown:
            raise ValueError(f"unknown function label(s): {', '.join(unknown)}")
        if not self.collection():
            raise ValueError("no collection member has a listed function at a listed dimension")
        # stored as ints, so a checkpoint reads back under the key run() writes
        object.__setattr__(self, "checkpoints", tuple(algorithms.check_checkpoints(self.checkpoints, self.max_iter)))

    def to_dict(self) -> dict:
        """Every field by name, JSON-serialisable (tuples serialise as lists)."""
        return {f.name: getattr(self, f.name) for f in fields(self)} | {"noise": self.noise.to_dict()}

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentPlan":
        unknown = sorted(set(d) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown plan key(s): {', '.join(unknown)}")
        kwargs = dict(d)
        if "noise" in kwargs:
            kwargs["noise"] = NoiseModel.from_dict(kwargs["noise"])
        return cls(**kwargs)

    @classmethod
    def from_json_file(cls, path) -> "ExperimentPlan":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def digest(self) -> str:
        # parallelism is an execution detail, not part of the result identity
        payload = self.to_dict()
        payload.pop("parallelism")
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    def collection(self) -> list[tuple[objectives.ObjectiveSpec, int]]:
        members = []
        for d in self.dimensions:
            for spec, dd in objectives.list_collection(d):
                if self.functions is None or spec.label in self.functions:
                    members.append((spec, dd))
        return members

    def iter_cells(self):
        """Each (algorithm, function, dimension, run) work item in cell order:
        by family, dimension, algorithm label, function label and run, so the
        cells of one family and dimension are one stretch, and each
        (algorithm, dimension) a stretch within it.  Cells run in this order
        and runs.jsonl stores them in it."""
        family = {alg: split_label(alg)[0] for alg in self.algorithms}
        labels = {}  # dimension -> its members' function labels, sorted
        for d, label in sorted({(d, spec.label) for spec, d in self.collection()}):
            labels.setdefault(d, []).append(label)
        return ((alg, label, d, r) for _, d, alg in sorted((family[alg], d, alg) for alg in family for d in labels)
                for label in labels[d] for r in range(self.runs))

    def cells(self) -> list[tuple[str, str, int, int]]:
        """The cells of `iter_cells`, listed."""
        return list(self.iter_cells())


def _cap(plan: ExperimentPlan) -> int:
    """The most runs x d a stack of the plan may hold: the plan's runs times
    `per_run`, the largest d x members at d.  At parallelism 1 `per_run` is
    the full protocol's (560, the 14 members at d=40): a plan of fewer
    members or dimensions fuses its variants as the full protocol does.  At
    parallelism > 1 it is the plan's own, the cap its largest (label,
    dimension) group, so that its stacks stay many enough to keep the
    workers busy.  Either is capped at the protocol's group at its 100 runs
    (56 000), so that no stack needs more memory than the full protocol's
    largest, however many runs the plan has."""
    protocol = max(len(objectives.list_collection(d)) * d for d in objectives.COLLECTION_DIMS)
    per_run = protocol
    if plan.parallelism > 1:
        dims = [d for _, d in plan.collection()]
        per_run = max(d * dims.count(d) for d in plan.dimensions)
    return min(plan.runs * per_run, 100 * protocol)


def _groups(cells, cap: int):
    """The iterable `cells` cut into stacks, each yielded when complete: each
    (label, dimension) group, a maximal stretch of consecutive cells that
    share algorithm and dimension, joins the stack before it while they share
    family and dimension and the stack's runs x d stays within `cap` (_cap of
    the whole plan, also on resume).  Over `ExperimentPlan.iter_cells` that
    merges the base, hpp and pp groups of a family at a dimension as far as
    they fit.  A group that alone exceeds `cap` is first cut into pieces of
    cap // d cells, each then placed as a group is."""
    stack, stack_key = [], None  # stack_key: the stack's (family, dimension)
    for (alg, d), group in itertools.groupby(cells, key=lambda cell: (cell[0], cell[2])):
        key, size = (split_label(alg)[0], d), cap // d
        while piece := list(itertools.islice(group, size)):
            if stack and (stack_key != key or (len(stack) + len(piece)) * d > cap):
                yield stack
                stack = []
            stack, stack_key = stack + piece, key
    if stack:
        yield stack


_CELL_KEYS = ("algorithm", "function", "dimension", "run")  # a record's fields that name its cell
_RECORD_KEYS = frozenset(_CELL_KEYS + ("seed", "config_digest", "status", "checkpoints"))  # those every stored record holds


def _run_group(cells: list[tuple], plan: ExperimentPlan, configs: dict) -> list[tuple[tuple, dict]]:
    """Run one stack's cells as one stack of runs, each label under its
    config in `configs`; (key, record) pairs in cell order."""
    d = cells[0][2]
    labels, algs = [label for _, label, _, _ in cells], [alg for alg, _, _, _ in cells]
    specs = {label: objectives.get(label) for label in labels}
    fbatch = {label: objectives.batch_evaluator(spec, d) for label, spec in specs.items()}  # one per member
    box = {label: objectives.default_domain(spec, d) for label, spec in specs.items()}
    seeds = [derive_seed(plan.master_seed, *cell) for cell in cells]
    records = algorithms.run([configs[a] for a in algs], [fbatch[f] for f in labels], [box[f] for f in labels], seeds,
                             plan.max_iter, plan.checkpoints)
    if len(records) != len(cells):  # a fault of the program, not of the plan: it fails here, before any is stored
        raise RuntimeError(f"the {split_label(algs[0])[0]} stack at d={d} returned {len(records)} records "
                           f"for its {len(cells)} cells")
    return [(cell, rec.to_dict() | dict(zip(_CELL_KEYS, cell))) for cell, rec in zip(cells, records)]


_RECORD_ENCODER = json.JSONEncoder(sort_keys=True)  # json.dumps(rec, sort_keys=True)'s encoder
_RECORD_DECODER = json.JSONDecoder()  # json.loads' decoder; a line decoded as UTF-8 needs none of its bytes handling


def _record_line(rec: dict) -> str:
    return _RECORD_ENCODER.encode(rec) + "\n"


def _replace_text(path: Path, chunks):
    """Write a whole file, the strings of `chunks` in turn, through a
    temporary file and a rename, so the path holds either the old content or
    the new, never part of it.  The text is written as UTF-8, as it is read."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.writelines(chunks)
    tmp.replace(path)


class StoreError(ValueError):
    """A store that refuses to resume: its manifest is no JSON object or
    another plan's, or runs.jsonl holds a line that is not the plan's next
    record (see resume)."""


class ResultStore:
    """A store directory: the plan's manifest, one JSON record per run cell
    (runs.jsonl, in the order of ExperimentPlan.iter_cells) and the metrics derived
    from them.  Whole files are replaced atomically; while cells run, each
    finished stack's records are appended in one write and flushed
    (`append_runs`).  runs.jsonl is read a line at a time (`scan_runs`);
    `read_runs` keeps every record, for callers that want them all.
    """

    def __init__(self, outdir):
        self.outdir = Path(outdir)
        self.manifest_path = self.outdir / "manifest.json"
        self.runs_path = self.outdir / "runs.jsonl"
        self.metrics_path = self.outdir / "metrics.csv"
        self.torn = False  # set by scan_runs

    def exists(self) -> bool:
        return self.manifest_path.exists()

    def write_manifest(self, plan: ExperimentPlan):
        self.outdir.mkdir(parents=True, exist_ok=True)
        manifest = {"plan": plan.to_dict(), "digest": plan.digest(), "format": 1}
        _replace_text(self.manifest_path, [json.dumps(manifest, indent=2, sort_keys=True) + "\n"])

    def read_manifest(self) -> dict:
        """The manifest; StoreError if manifest.json holds no JSON object."""
        try:
            manifest = json.loads(self.manifest_path.read_bytes())
        except ValueError as exc:  # UnicodeDecodeError too
            raise StoreError(f"manifest.json is not JSON: {exc}; refusing to resume") from None
        if not isinstance(manifest, dict):
            raise StoreError("manifest.json is not a JSON object; refusing to resume")
        return manifest

    def write_runs(self, records):
        """Replace runs.jsonl with one line for each record of the iterable
        `records`, in its order, serialised as it is read."""
        _replace_text(self.runs_path, map(_record_line, records))

    def append_runs(self, stacks):
        """Append the finished (key, record) pairs of each stack in `stacks`
        to runs.jsonl in one write, flushed before the pairs are passed on."""
        with open(self.runs_path, "a") as fh:
            for stack in stacks:
                fh.write("".join(_record_line(rec) for _, rec in stack))
                fh.flush()
                yield from stack
                del stack  # not held while the next stack runs

    def scan_runs(self):
        """Each (cell key, record) of runs.jsonl in file order, read a line at
        a time.  Blank lines are skipped.  An unparsable last line (not
        UTF-8, or not JSON), a record cut short by an interruption, ends the
        scan and sets `torn`, as does a missing final newline; any earlier
        unparsable line raises, as does a parsed line anywhere that is not a
        run record."""
        self.torn = False
        if not self.runs_path.exists():
            return
        decode = _RECORD_DECODER.decode
        with open(self.runs_path, "rb") as fh:  # each line decoded alone, so a byte that is not UTF-8 faults its line
            line = b"\n"  # an empty file is not torn
            for number, line in enumerate(fh, 1):
                if line.isspace():
                    continue
                try:
                    rec = decode(line.decode())
                except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                    if fh.read():  # a line follows
                        raise StoreError(f"runs.jsonl line {number} is not JSON: {exc}") from None
                    self.torn = True
                    return
                if not (isinstance(rec, dict) and _RECORD_KEYS <= rec.keys()):
                    raise StoreError(f"runs.jsonl line {number} is not a run record")
                yield (rec["algorithm"], rec["function"], rec["dimension"], rec["run"]), rec
            self.torn = not line.endswith(b"\n")  # only the last line can lack one

    def read_runs(self) -> dict[tuple, dict]:
        """Records by cell key, in file order, read by `scan_runs`; a second
        record for one cell raises."""
        records = {}
        for key, rec in self.scan_runs():
            if key in records:
                raise StoreError(f"runs.jsonl holds two records for cell {key}")
            records[key] = rec
        return records

    def write_metrics(self, rows: list[tuple]):
        lines = "".join(f"{e},{p},{f},{d},{t},{m},{v},{k}\n" for e, p, f, d, t, m, v, k in rows)
        _replace_text(self.metrics_path, [METRICS_HEADER + "\n", lines])


_MAX_FLOAT = sys.float_info.max


class _RunTables:
    """The run table of a plan's paired labels: the best-so-far values
    (paired label, member, checkpoint, run), runs last, members in collection
    order, so a dimension's members are one range.  A slot costs 8 B per
    checkpoint; a run that failed or has no record stays NaN, and an ok one
    is finite throughout (`values`).  The table fills a record at a time
    (`add`), so that no record need be kept."""

    def __init__(self, plan: ExperimentPlan):
        members = plan.collection()
        self.labels = {d: [] for d in plan.dimensions}  # each dimension's members, in collection order
        for spec, d in members:
            self.labels[d].append(spec.label)
        self.paired = list(dict.fromkeys(itertools.chain(*plan.pairs)))  # the labels in a pair, first named first
        self.names = [str(t) for t in plan.checkpoints]
        self.table = np.full((len(self.paired), len(members), len(self.names), plan.runs), np.nan)
        # written through a flat memoryview: a numpy index assignment costs several times as much
        self._table = memoryview(self.table.reshape(-1))
        self.runs, self.rows = plan.runs, {}  # (alg, label, d) -> its slot's row, (paired label, member) flat
        for p, alg in enumerate(self.paired):
            self.rows.update(((alg, spec.label, d), p * len(members) + m) for m, (spec, d) in enumerate(members))

    def values(self, checkpoints) -> tuple:
        """A record's `checkpoints` values at the plan's checkpoints, in their
        order.  ValueError says what it holds instead unless it holds a
        finite number, not a bool, at each of them and nothing else."""
        if not isinstance(checkpoints, dict):
            raise ValueError(f"checkpoints {checkpoints!r} are not an object")
        values = []
        for t in self.names:
            if t not in checkpoints:
                raise ValueError(f"checkpoint {t} is missing")
            v = checkpoints[t]
            if type(v) not in (float, int) or not -_MAX_FLOAT <= v <= _MAX_FLOAT:  # an int beyond it has no float
                raise ValueError(f"checkpoint {t} is {v!r}, not a finite number")
            values.append(v)
        if len(checkpoints) > len(values):  # it holds every checkpoint, and a key besides
            extra = next(t for t in checkpoints if t not in self.names)
            raise ValueError(f"checkpoint {extra!r} is not one of the plan's ({', '.join(self.names)})")
        return tuple(values)

    def add(self, key: tuple, rec: dict):
        """Write the record of cell `key`, one of the plan's, into its slot; a
        record of a label in no pair is passed over.  Its status must be "ok"
        or "failed: <reason>", and an ok record's checkpoints must pass
        `values`, or ValueError says what is wrong."""
        status = rec["status"]
        if status != "ok":
            if not (type(status) is str and status.startswith("failed: ")):
                raise ValueError(f"status {status!r} is neither 'ok' nor 'failed: <reason>'")
            return
        values = self.values(rec["checkpoints"])
        row = self.rows.get(key[:3])
        if row is not None:
            runs, i = self.runs, row * len(values) * self.runs + key[3]
            for v in values:
                self._table[i] = v
                i += runs


_METRICS = ("winning_proportion", "relative_error_orig", "relative_error_mod")


def compute_metric_rows(plan: ExperimentPlan, tables: _RunTables) -> list[tuple]:
    """Long-format metric rows for every pair, function, dimension, checkpoint.

    Per-function rows carry the win fraction and both relative errors;
    function "ALL" rows carry the dimension-level aggregates.  `tables` is
    the plan's run table, which resume fills with every cell's record.  Each
    dimension's members, a range of it, are compared in one pair_figures
    call, each side gathered with one index; runs that failed (NaN) on
    either side of a pair are left out, with one warning per function.
    """
    if not (plan.pairs and plan.checkpoints):
        return []
    side_a, side_b = ([tables.paired.index(alg) for alg in side] for side in zip(*plan.pairs))
    columns, stop = {}, 0  # d -> count per pair; the rows' labels and checkpoints; per pair, its values and ties
    for d in plan.dimensions:
        start, stop = stop, stop + len(tables.labels[d])
        table = tables.table[:, start:stop]
        ok = ~np.isnan(table[:, :, 0])
        count, win, ties, re_a, re_b = metrics.pair_figures(table[side_a], table[side_b], ok[side_a] & ok[side_b])
        # each pair's figures in row order: by checkpoint, function and metric
        values = list(map(repr, np.stack((win, re_a, re_b), -1).swapaxes(1, 2).ravel().tolist()))  # one call per d
        ties = np.repeat(ties.swapaxes(1, 2), len(_METRICS), -1).ravel().tolist()
        step = len(values) // len(plan.pairs)
        names = [label for label in tables.labels[d] + ["ALL"] for _ in _METRICS]
        columns[d] = (count.tolist(), names * len(plan.checkpoints), [t for t in plan.checkpoints for _ in names],
                      [(values[j:j + step], ties[j:j + step]) for j in range(0, len(values), step)])
    rows, repeat = [], itertools.repeat
    for p, (a, b) in enumerate(plan.pairs):
        pair = f"{a}:{b}"
        for d in plan.dimensions:
            count, names, checkpoints, per_pair = columns[d]
            for label, n in zip(tables.labels[d], count[p]):
                if n < plan.runs:
                    warnings.warn(f"excluded {plan.runs - n} failed run pair(s) for {a}/{b} on {label} d={d}")
            kept = [n > 0 for n in count[p] for _ in _METRICS] * len(plan.checkpoints)  # a function with a run compared
            rows += itertools.compress(zip(repeat(plan.name), repeat(pair), names, repeat(d), checkpoints,
                                           itertools.cycle(_METRICS), *per_pair[p]), kept)
    return rows


def _execute_cells(plan: ExperimentPlan, configs: dict, cells):
    """Run the iterable `cells` a stack at a time (_groups under the plan's
    _cap; a pool worker takes a whole stack), each label under its config in
    `configs`, yielding each stack's finished (key, record) pairs, in cell
    order.  At parallelism > 1 the stacks are listed: Executor.map submits
    every job at once, each holding its stack."""
    groups = _groups(cells, _cap(plan))
    if plan.parallelism > 1 and len(groups := list(groups)) > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=plan.parallelism) as pool:
            yield from pool.map(_run_group, groups, itertools.repeat(plan), itertools.repeat(configs))
    else:
        yield from map(_run_group, groups, itertools.repeat(plan), itertools.repeat(configs))


def execute(plan: ExperimentPlan, outdir) -> list[tuple]:
    """Run the full plan into a fresh store and return the metric rows."""
    store = ResultStore(outdir)
    store.write_manifest(plan)
    store.runs_path.unlink(missing_ok=True)
    return resume(plan, outdir)


def resume(plan: ExperimentPlan, outdir) -> list[tuple]:
    """Run the cells missing from a store, then write its metrics; return the
    metric rows.

    Refuses (StoreError, which `swarmpp run` exits 2 on, leaving the store
    as it is) a store whose manifest.json holds no JSON object or one whose
    digest does not match the plan, and one whose records are not the first
    cells of `plan.iter_cells()` in cell order: a record missing, repeated
    or past the plan's last cell, or a store written in another order, such
    as a store of more than one family or dimension from before cells were
    ordered by family first, is refused with the first record out of place
    named.  It also refuses a record
    whose seed is not its cell's (derive_seed), whose config_digest is not
    its label's, whose status is neither "ok" nor "failed: <reason>", or
    whose checkpoints do not hold a finite number at each of the plan's.
    runs.jsonl is read a line at a time and each line checked as it arrives
    (a bad line before the last, or a line that is no run record, raises
    too), each record against the next cell that iter_cells gives, and
    written into the plan's run table, so neither a record nor a list of
    cells is kept.  The missing cells are the rest of iter_cells: if any are
    missing or the file is torn, the records read are rewritten once, after
    the whole file has been read and found in order, then the missing cells
    run a stack at a time (_groups, under the whole plan's _cap, not one
    taken from the cells left) and each stack's records are appended to
    runs.jsonl as the stack completes.  An interruption loses only the stack
    in flight (at parallelism > 1, the stacks being computed), which holds
    at most min(runs, 100) x 560 run-coordinates, the full protocol's
    largest group at the plan's runs or at 100; on a plan of one dimension
    that may be all of a family's runs.  Each finished record goes into the
    run table too.  runs.jsonl has the same bytes wherever earlier runs
    were interrupted.
    """
    store = ResultStore(outdir)
    if not store.exists():
        raise FileNotFoundError(f"no manifest in {outdir}")
    manifest = store.read_manifest()
    if manifest.get("digest") != plan.digest():
        raise StoreError("manifest digest does not match the plan; refusing to resume")
    # each label's config and digest, built once for the record checks and the stacks
    configs = {alg: config_for_label(alg, n=plan.n, noise=plan.noise) for alg in plan.algorithms}
    digests = {alg: config.digest() for alg, config in configs.items()}
    cells, tables, done = plan.iter_cells(), _RunTables(plan), 0
    for done, (key, rec) in enumerate(store.scan_runs(), 1):
        if key != next(cells, None):  # None past the plan's last cell
            raise StoreError(
                f"runs.jsonl record {done} is cell {key}, not the plan's next cell in cell order; "
                "refusing to resume (use --force to recompute the store)"
            )
        try:
            seed, cell_seed = rec["seed"], derive_seed(plan.master_seed, *key)
            if type(seed) is not int or seed != cell_seed:
                raise ValueError(f"seed {seed!r} is not the cell's, {cell_seed}")
            if rec["config_digest"] != digests[key[0]]:
                raise ValueError(f"config_digest {rec['config_digest']!r} is not {key[0]}'s, {digests[key[0]]!r}")
            tables.add(key, rec)
        except ValueError as exc:
            raise StoreError(f"runs.jsonl record {done} (cell {key}): {exc}; refusing to resume") from None
    cell = next(cells, None)  # the first cell missing, if any
    if cell or store.torn:
        # the records read, again a line at a time, without a torn last line or blank lines
        store.write_runs(rec for _, rec in itertools.islice(store.scan_runs(), done))
        stacks = _execute_cells(plan, configs, itertools.chain([cell], cells)) if cell else ()
        for key, rec in store.append_runs(stacks):
            tables.add(key, rec)
    rows = compute_metric_rows(plan, tables)
    del tables  # not held while the metrics are written
    store.write_metrics(rows)
    return rows

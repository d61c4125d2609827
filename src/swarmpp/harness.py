"""Experiment orchestration: seed derivation, the full benchmark protocol,
result persistence and metric computation.

A plan fully determines every stored number: each (algorithm, function,
dimension, run) cell derives its own 64-bit seed from the master seed, so
runs are independent of execution order and parallelism degree.

Cells run in cell order (ExperimentPlan.cells): by family (BAT, CSO, DE,
PSO), dimension, algorithm label (PSO < hmPSO < mPSO), function label and
run.  The cells of one (label, dimension) are a group; a stack is one call
of algorithms.run, which steps its runs together.  A group joins the stack
before it while both share family and dimension and the stack's runs x d
stays within the cap (_groups, _cap), so a family's base, hpp and pp runs at
a dimension step together as far as they fit.  At parallelism 1 the cap is
the full protocol's largest group at the plan's runs, so no stack needs
more memory than the full protocol's at the same runs; at parallelism > 1
it is the plan's own largest group, so the workers get independent stacks.
A stack's records are appended to runs.jsonl in cell order when it
finishes: an interruption loses the stack in flight (at parallelism > 1,
the stacks being computed).

Store layout: <outdir>/manifest.json, <outdir>/runs.jsonl, <outdir>/metrics.csv.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import itertools
import json
import warnings
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import algorithms, metrics, objectives
from .algorithms import config_for_label, split_label
from .perturbation import NoiseModel

DEFAULT_CHECKPOINTS = (50, 100, 200, 400, 1000, 3000, 10000)

METRICS_HEADER = "experiment,pair,function,dimension,checkpoint,metric,value,tie_count"


def derive_seed(master: int, algorithm: str, function: str, dimension: int, run: int) -> int:
    """Stable 64-bit seed for one run cell; a pure function of the tuple."""
    key = f"{master}|{algorithm}|{function}|{dimension}|{run}".encode()
    return int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "little")


def _check_int(name: str, value):
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an integer, got {value!r}")


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
        # before anything compares them: 5.0 == 5, but derive_seed keys on str(d)
        for name in ("runs", "max_iter", "n", "parallelism", "master_seed"):
            _check_int(name, getattr(self, name))
        for d in self.dimensions:
            _check_int("a dimensions entry", d)
        if not isinstance(self.name, str):
            raise TypeError(f"name must be a string, got {self.name!r}")
        unsafe = [c for c in (",", '"', "\r", "\n") if c in self.name]
        if unsafe:  # metrics.csv writes the name unquoted
            raise ValueError(f"name must not contain {' or '.join(map(repr, unsafe))}, got {self.name!r}")
        if self.parallelism < 1:
            raise ValueError(f"parallelism must be at least 1, got {self.parallelism}")
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
        if self.runs < 1 or self.max_iter < 0 or self.n < 2:
            raise ValueError("invalid runs / max_iter / n")
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

    def cells(self) -> list[tuple[str, str, int, int]]:
        """All (algorithm, function, dimension, run) work items in cell order:
        by family, dimension, algorithm label, function label and run, so the
        cells of one family and dimension are one stretch, and each
        (algorithm, dimension) a stretch within it.  Cells run in this order
        and runs.jsonl stores them in it."""
        family = {alg: split_label(alg)[0] for alg in self.algorithms}
        labels = {}  # dimension -> its members' function labels, sorted
        for d, label in sorted({(d, spec.label) for spec, d in self.collection()}):
            labels.setdefault(d, []).append(label)
        return [(alg, label, d, r) for _, d, alg in sorted((family[alg], d, alg) for alg in family for d in labels)
                for label in labels[d] for r in range(self.runs)]


def _label_groups(cells) -> list[list[tuple]]:
    """Maximal stretches of consecutive cells that share (algorithm, dimension)."""
    return [list(group) for _, group in itertools.groupby(cells, key=lambda cell: (cell[0], cell[2]))]


def _cap(plan: ExperimentPlan) -> int:
    """The most runs x d a stack of the plan may hold.  At parallelism 1, the
    largest (label, dimension) group of the full protocol at the plan's runs
    (runs x 560, the 14 members at d=40): a plan of fewer members or
    dimensions fuses its variants as the full protocol does, and none of its
    stacks needs more memory than the full protocol's.  At parallelism > 1,
    the largest group of the plan itself, so that its stacks stay many
    enough to keep the workers busy."""
    if plan.parallelism == 1:
        return plan.runs * max(len(objectives.list_collection(d)) * d for d in objectives.COLLECTION_DIMS)
    return max(len(group) * group[0][2] for group in _label_groups(plan.cells()))


def _groups(cells, cap: int) -> list[list[tuple]]:
    """The cells cut into stacks: each (label, dimension) group joins the
    stack before it while they share family and dimension and the stack's
    runs x d stays within `cap` (_cap of the whole plan, also on resume).
    Over `ExperimentPlan.cells` that merges the base, hpp and pp groups of a
    family at a dimension as far as they fit."""
    stacks = []  # ((family, dimension), cells)
    for group in _label_groups(cells):
        alg, _, d, _ = group[0]
        key = split_label(alg)[0], d
        if stacks and stacks[-1][0] == key and (len(stacks[-1][1]) + len(group)) * d <= cap:
            stacks[-1][1].extend(group)
        else:
            stacks.append((key, group))
    return [stack for _, stack in stacks]


def _run_group(args) -> list[tuple[tuple, dict]]:
    """Run one stack's cells as one stack of runs; (key, record) pairs in cell order."""
    cells, plan = args
    d = cells[0][2]
    labels, algs = [label for _, label, _, _ in cells], [alg for alg, _, _, _ in cells]
    specs = {label: objectives.get(label) for label in labels}
    fbatch = {label: objectives.batch_evaluator(spec, d) for label, spec in specs.items()}  # one per member
    box = {label: objectives.default_domain(spec, d) for label, spec in specs.items()}
    config = {alg: config_for_label(alg, n=plan.n, noise=plan.noise) for alg in set(algs)}  # one per label
    seeds = [derive_seed(plan.master_seed, *cell) for cell in cells]
    records = algorithms.run([config[a] for a in algs], [fbatch[f] for f in labels], [box[f] for f in labels], seeds,
                             plan.max_iter, plan.checkpoints)
    keys = ("algorithm", "function", "dimension", "run")
    return [(cell, rec.to_dict() | dict(zip(keys, cell))) for cell, rec in zip(cells, records)]


_RECORD_ENCODER = json.JSONEncoder(sort_keys=True)  # json.dumps(rec, sort_keys=True)'s encoder


def _record_line(rec: dict) -> str:
    return _RECORD_ENCODER.encode(rec) + "\n"


def _replace_text(path: Path, text: str):
    """Write a whole file through a temporary file and a rename, so the path
    holds either the old content or the new, never part of it."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    tmp.replace(path)


class ResultStore:
    """A store directory: the plan's manifest, one JSON record per run cell
    (runs.jsonl, in the order of ExperimentPlan.cells) and the metrics derived
    from them.  Whole files are replaced atomically; while cells run, each
    finished record is appended and flushed (`append_runs`).
    """

    def __init__(self, outdir):
        self.outdir = Path(outdir)
        self.manifest_path = self.outdir / "manifest.json"
        self.runs_path = self.outdir / "runs.jsonl"
        self.metrics_path = self.outdir / "metrics.csv"
        self.torn = False  # set by read_runs

    def exists(self) -> bool:
        return self.manifest_path.exists()

    def write_manifest(self, plan: ExperimentPlan):
        self.outdir.mkdir(parents=True, exist_ok=True)
        manifest = {"plan": plan.to_dict(), "digest": plan.digest(), "format": 1}
        _replace_text(self.manifest_path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")

    def read_manifest(self) -> dict:
        return json.loads(self.manifest_path.read_text())

    def write_runs(self, records: dict[tuple, dict]):
        _replace_text(self.runs_path, "".join(_record_line(rec) for rec in records.values()))

    def append_runs(self, finished):
        """Append each finished (key, record) pair to runs.jsonl, flushed
        before the pair is passed on."""
        with open(self.runs_path, "a") as fh:
            for key, rec in finished:
                fh.write(_record_line(rec))
                fh.flush()
                yield key, rec

    def read_runs(self) -> dict[tuple, dict]:
        """Records by cell key, in file order.  An unparsable last line, a
        record cut short by an interruption, is skipped and sets `torn`, as
        does a missing final newline; any earlier bad line, or a second record
        for one cell, raises."""
        records = {}
        text = self.runs_path.read_text() if self.runs_path.exists() else ""
        self.torn = bool(text) and not text.endswith("\n")
        lines = text.splitlines()
        for i, line in enumerate(lines):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError:
                if i < len(lines) - 1:
                    raise
                self.torn = True
                break
            key = (rec["algorithm"], rec["function"], rec["dimension"], rec["run"])
            if key in records:
                raise ValueError(f"runs.jsonl holds two records for cell {key}")
            records[key] = rec
        return records

    def write_metrics(self, rows: list[tuple]):
        lines = [METRICS_HEADER]
        for row in rows:
            lines.append(",".join(str(v) for v in row))
        _replace_text(self.metrics_path, "\n".join(lines) + "\n")


def _valid_pair_values(records, plan, a, b, label, d, t):
    """Matched run vectors for a pair, excluding runs failed on either side."""
    a_vals, b_vals, excluded = [], [], 0
    for r in range(plan.runs):
        ra = records.get((a, label, d, r))
        rb = records.get((b, label, d, r))
        if ra is None or rb is None:
            raise KeyError(f"missing run record for {label} d={d} run={r}")
        if ra["status"] != "ok" or rb["status"] != "ok":
            excluded += 1
            continue
        a_vals.append(ra["checkpoints"][str(t)])
        b_vals.append(rb["checkpoints"][str(t)])
    if excluded:
        warnings.warn(
            f"excluded {excluded} failed run pair(s) for {a}/{b} on {label} d={d}"
        )
    return np.asarray(a_vals), np.asarray(b_vals)


def compute_metric_rows(plan: ExperimentPlan, records: dict[tuple, dict]) -> list[tuple]:
    """Long-format metric rows for every pair, function, dimension, checkpoint.

    Per-function rows carry the win fraction and both relative errors;
    function "ALL" rows carry the dimension-level aggregates
    (metrics.pair_figures).
    """
    rows = []
    members = plan.collection()
    for a, b in plan.pairs:
        pair = f"{a}:{b}"
        for d in plan.dimensions:
            labels = [spec.label for spec, dd in members if dd == d]
            for t in plan.checkpoints:
                runs = [(label, *_valid_pair_values(records, plan, a, b, label, d, t)) for label in labels]
                figures = metrics.pair_figures([run for run in runs if run[1].size])
                for function, win, ties, re_a, re_b in figures:
                    for metric, value in (
                        ("winning_proportion", win),
                        ("relative_error_orig", re_a),
                        ("relative_error_mod", re_b),
                    ):
                        rows.append((plan.name, pair, function, d, t, metric, repr(value), ties))
    return rows


def _execute_cells(plan: ExperimentPlan, cells):
    """Run the cells a stack at a time (_groups under the plan's _cap; a pool
    worker takes a whole stack), yielding the finished (key, record) pairs of
    each stack in cell order."""
    jobs = [(group, plan) for group in _groups(cells, _cap(plan))]
    if plan.parallelism == 1 or len(jobs) < 2:
        for job in jobs:
            yield from _run_group(job)
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=plan.parallelism) as pool:
            for finished in pool.map(_run_group, jobs):
                yield from finished


def execute(plan: ExperimentPlan, outdir) -> list[tuple]:
    """Run the full plan into a fresh store and return the metric rows."""
    store = ResultStore(outdir)
    store.write_manifest(plan)
    store.runs_path.unlink(missing_ok=True)
    return resume(plan, outdir)


def resume(plan: ExperimentPlan, outdir) -> list[tuple]:
    """Run the cells missing from a store, then write its metrics; return the
    metric rows.

    Refuses to touch a store whose manifest digest does not match the plan,
    or whose records are not the first cells of `plan.cells()` in cell
    order; a store written in another order, such as a store of more than
    one family or dimension from before cells were ordered by family first,
    is refused with the first record out of place named.  The missing cells
    are the rest of that list: if any are missing or the file is torn, the
    records read are rewritten once, then the missing cells run a stack at a
    time (_groups, under the whole plan's _cap, not one taken from the cells
    left) and each stack's records are appended to runs.jsonl as the stack
    completes.  An interruption loses only the stack in flight (at
    parallelism > 1, the stacks being computed), which at parallelism 1 is
    no larger than the full protocol's largest group at the plan's runs;
    on a plan of one dimension it may hold all of a family's runs.
    runs.jsonl has the same bytes wherever earlier runs were interrupted.
    """
    store = ResultStore(outdir)
    if not store.exists():
        raise FileNotFoundError(f"no manifest in {outdir}")
    manifest = store.read_manifest()
    if manifest.get("digest") != plan.digest():
        raise ValueError("manifest digest does not match the plan; refusing to resume")
    records = store.read_runs()
    cells, done = plan.cells(), list(records)
    if done != cells[: len(done)]:
        i = next((i for i, (key, cell) in enumerate(zip(done, cells)) if key != cell), len(cells))
        raise ValueError(
            f"runs.jsonl record {i + 1} is cell {done[i]}, not the plan's next cell in cell order; "
            "refusing to resume (use --force to recompute the store)"
        )
    if len(done) < len(cells) or store.torn:
        store.write_runs(records)  # drops a torn last line before appending
        records.update(store.append_runs(_execute_cells(plan, cells[len(done):])))
    rows = compute_metric_rows(plan, records)
    store.write_metrics(rows)
    return rows

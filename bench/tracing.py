"""Traced runs: spans recorded around calls into each layer of swarmpp.

The spans are made here, in the benchmark, by replacing module attributes
for the duration of a traced round (the program itself is not changed):

    objectives    the callable objectives.batch_evaluator returns
    perturbation  algorithms.sample_noise, as the step kernels call it
    algorithms    algorithms.step and algorithms.run
    harness       ResultStore.write_manifest / write_runs / read_runs /
                  write_metrics, and harness.execute / resume (called here)
    metrics       harness.compute_metric_rows, metrics.win_fraction,
                  metrics.relative_error
    rng           numpy Generator methods, through a proxy generator in the
                  kernel replay (the program builds its own generators, so
                  RNG calls are only visible where the benchmark drives
                  init_state/step itself)

Spans are kept in memory and written out at the end.  A span's self time is
its duration minus the time covered by its child spans.
"""

from __future__ import annotations

import json
import statistics
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from swarmpp import algorithms, harness, metrics, objectives

NAME, START, END, PARENT, ATTR = range(5)


class Tracer:
    """Nested spans of one thread: [name, start, end, parent index, attr]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        """Call fn inside a span; returns (result, span)."""
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = perf_counter()
        try:
            return fn(*args, **kwargs), span
        finally:
            span[END] = perf_counter()
            self._stack.pop()

    def self_times(self) -> list[float]:
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def write(self, path):
        """One JSON array per line: id, name, start, end, parent id, attribute."""
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps([i, *s]) + "\n")


def _traced_fbatch(tracer, fbatch):
    def traced(X):
        out, span = tracer.call("objectives", fbatch, X)
        span[ATTR] = 1 if np.ndim(X) == 1 else len(X)
        return out

    return traced


@contextmanager
def _patched(replacements):
    saved = [(owner, name, vars(owner)[name]) for owner, name, _ in replacements]
    try:
        for owner, name, new in replacements:
            setattr(owner, name, new)
        yield
    finally:
        for owner, name, old in saved:
            setattr(owner, name, old)


def _noise_patch(tracer):
    sample_noise = algorithms.sample_noise

    def traced(*args, **kwargs):
        out, span = tracer.call("perturbation", sample_noise, *args, **kwargs)
        span[ATTR] = out.size
        return out

    return (algorithms, "sample_noise", traced)


@contextmanager
def traced_program(tracer):
    """Install spans at every layer boundary the plan's execution crosses."""
    batch_evaluator, step, run = objectives.batch_evaluator, algorithms.step, algorithms.run
    compute_rows = harness.compute_metric_rows
    win_fraction, relative_error = metrics.win_fraction, metrics.relative_error

    def traced_batch_evaluator(spec, d):
        return _traced_fbatch(tracer, batch_evaluator(spec, d))

    def traced_compute_rows(*args):
        rows, span = tracer.call("metrics.compute_rows", compute_rows, *args)
        span[ATTR] = len(rows)
        return rows

    def spanned(name, fn):
        return lambda *a, **k: tracer.call(name, fn, *a, **k)[0]

    store = harness.ResultStore
    store_methods = ("write_manifest", "write_runs", "read_runs", "write_metrics")
    with _patched(
        [
            (objectives, "batch_evaluator", traced_batch_evaluator),
            _noise_patch(tracer),
            (algorithms, "step", spanned("algorithms.step", step)),
            (algorithms, "run", spanned("algorithms.run", run)),
            (harness, "compute_metric_rows", traced_compute_rows),
            (metrics, "win_fraction", spanned("metrics.win_fraction", win_fraction)),
            (metrics, "relative_error", spanned("metrics.relative_error", relative_error)),
        ]
        + [(store, m, spanned(f"harness.store.{m}", vars(store)[m])) for m in store_methods]
    ):
        yield


class TracedGenerator:
    """A numpy Generator whose every method call is a span named "rng"."""

    def __init__(self, gen, tracer):
        self._gen = gen
        self._tracer = tracer

    def __getattr__(self, name):
        method = getattr(self._gen, name)

        def call(*args, **kwargs):
            out, span = self._tracer.call("rng", method, *args, **kwargs)
            span[ATTR] = int(np.size(out))
            return out

        return call


def replay(tracer, config, box, fbatch, seed, max_iter, checkpoints):
    """Drive init_state/step as run() does, with traced generators.

    Returns the final state and the checkpoint values, which must equal
    run()'s record bit for bit.
    """
    dyn_ss, noise_ss = np.random.SeedSequence(seed).spawn(2)
    rng = TracedGenerator(np.random.default_rng(dyn_ss), tracer)
    rng_noise = TracedGenerator(np.random.default_rng(noise_ss), tracer)
    fb = _traced_fbatch(tracer, fbatch)
    cps = set(checkpoints)
    values = {}
    with _patched([_noise_patch(tracer)]):
        state = algorithms.init_state(config, box, fb, rng)
        if 0 in cps:
            values[0] = state.best_f
        for t in range(1, max_iter + 1):
            tracer.call("algorithms.step", algorithms.step, state, config, box, fb, rng, rng_noise)
            if t in cps:
                values[t] = state.best_f
    return state, values


REPLAY_ITERS = 300  # iterations replayed per label, at least


def kernel_replay(plan, members, records):
    """Replay a sample of cells of every label and compare with run().

    The sample spreads over the workload's members, with run 0 of each and
    at least REPLAY_ITERS iterations per label.  Labels the workload runs
    also give the RNG figures and the invariant-check cost, timed as
    run(check_invariants=True) minus run(check_invariants=False), best of
    two each.  Returns the tracer, the per-layer figures and any mismatch.
    """
    stored = {(r["algorithm"], r["function"], r["dimension"], r["run"]): r for r in records}
    k = min(len(members), max(3, -(-REPLAY_ITERS // max(plan.max_iter, 1))))
    sample = [members[i * (len(members) - 1) // max(k - 1, 1)] for i in range(k)]
    tracer, problems = Tracer(), []
    inv_on = inv_off = iters = 0
    for label in algorithms.ALGORITHM_LABELS:
        config = algorithms.config_for_label(label, n=plan.n, noise=plan.noise)
        own = label in plan.algorithms
        for f, d in sample:
            spec = objectives.get(f)
            box, fbatch = objectives.default_domain(spec, d), objectives.batch_evaluator(spec, d)
            seed = harness.derive_seed(plan.master_seed, label, f, d, 0)
            args = (config, fbatch, box, seed, plan.max_iter, plan.checkpoints)
            on, off = [], []
            for _ in range(2 if own else 1):
                t0 = perf_counter()
                record = algorithms.run(*args, check_invariants=True)
                on.append(perf_counter() - t0)
                if own:
                    t0 = perf_counter()
                    algorithms.run(*args, check_invariants=False)
                    off.append(perf_counter() - t0)
            if own:
                inv_on, inv_off, iters = inv_on + min(on), inv_off + min(off), iters + plan.max_iter
            (state, values), span = tracer.call(
                "replay.cell", replay, tracer, config, box, fbatch, seed, plan.max_iter, plan.checkpoints)
            span[ATTR] = label
            if not same_as_record(state, values, record):
                problems.append(f"kernel replay of {label} {f} d={d} differs from run()")
            key = (label, f, d, 0)
            if key in stored:
                mine = json.loads(json.dumps(record.to_dict()))
                if any(stored[key][field] != v for field, v in mine.items()):
                    problems.append(f"run() of {key} differs from the stored record")
    out = replay_layers(tracer, set(plan.algorithms))
    out["algorithms.invariants.us_per_iter"] = (inv_on - inv_off) / iters * 1e6
    return tracer, out, problems


def same_as_record(state, values, record) -> bool:
    return (
        values == record.checkpoints
        and np.array_equal(state.best_x, record.final_best_point)
        and state.best_f == record.final_best_value
        and state.n_evals == record.n_evals
    )


# ---------------------------------------------------------------------------
# aggregation


def _by_name(tracer):
    own = tracer.self_times()
    groups: dict[str, list[tuple[list, float]]] = {}
    for span, self_s in zip(tracer.spans, own):
        groups.setdefault(span[NAME], []).append((span, self_s))
    return groups


def _total(items):
    return sum(s for _, s in items)


def program_layers(tracer, cells: int) -> dict[str, float]:
    """Per-layer figures of one traced round (execute then resume)."""
    g = _by_name(tracer)
    obj = g.get("objectives", [])
    points = sum(s[ATTR] for s, _ in obj)
    noise = g.get("perturbation", [])
    runs = sorted(s[END] - s[START] for s, _ in g.get("algorithms.run", []))
    # time in execute outside kernel steps, store calls, metric computation
    # and speed-probe bursts: plan round trip, seeding, config digest,
    # generator spawn, init evaluation, invariant check and record
    # serialisation, per cell
    layered = {"algorithms.step", "harness.store.write_manifest", "harness.store.write_runs",
               "harness.store.write_metrics", "metrics.compute_rows"}
    spans = tracer.spans
    top = next(i for i, s in enumerate(spans) if s[NAME] == "harness.execute")
    outside = spans[top][END] - spans[top][START]
    for s in spans[top + 1:]:
        if s[START] > spans[top][END]:
            break
        if s[NAME] in layered or s[NAME] == "speed.burst":
            p = s[PARENT]
            while p != top and spans[p][NAME] not in layered:
                p = spans[p][PARENT]
            if p == top:  # not nested in another excluded span
                outside -= s[END] - s[START]
    rows = g["metrics.compute_rows"]

    def per_call(name, calls):
        return sum(s[END] - s[START] for s, _ in g.get(name, [])) / calls

    # store and metric figures are per call: one execute and its resumes
    # each write metrics.csv once and aggregate once
    aggregations = len(rows)
    return {
        "objectives.calls": len(obj),
        "objectives.points": points,
        "objectives.points_per_call": points / len(obj),
        "objectives.self_s": _total(obj),
        "objectives.ns_per_point": _total(obj) / points * 1e9,
        "perturbation.calls": len(noise),
        "perturbation.values": sum(s[ATTR] for s, _ in noise),
        "perturbation.self_s": _total(noise),
        "algorithms.run.ms_p50": statistics.median(runs) * 1e3,
        "algorithms.run.ms_p90": statistics.quantiles(runs, n=10, method="inclusive")[-1] * 1e3,
        "harness.cell_overhead_us": outside / cells * 1e6,
        "harness.store.write_runs_s": per_call("harness.store.write_runs", 1),
        "harness.store.read_runs_s": per_call("harness.store.read_runs", aggregations - 1),
        "harness.store.write_metrics_s": per_call("harness.store.write_metrics", aggregations),
        "metrics.compute_rows_s": per_call("metrics.compute_rows", aggregations),
        "metrics.rows": rows[0][0][ATTR],
        "metrics.win_fraction.self_s": _total(g.get("metrics.win_fraction", [])) / aggregations,
        "metrics.relative_error.self_s": _total(g.get("metrics.relative_error", [])) / aggregations,
    }


def replay_layers(tracer, workload_labels) -> dict[str, float]:
    """RNG figures (the workload's own labels) and step self time per label."""
    own = tracer.self_times()
    rng, step_self = [], {}
    label = None
    for span, self_s in zip(tracer.spans, own):  # spans are in start order
        if span[NAME] == "replay.cell":
            label = span[ATTR]
        elif span[NAME] == "algorithms.step":
            step_self.setdefault(label, []).append(self_s)
        elif span[NAME] == "rng" and label in workload_labels:
            rng.append((span, self_s))
    out = {"rng.calls": len(rng), "rng.values": sum(s[ATTR] for s, _ in rng), "rng.self_s": _total(rng)}
    for label, values in sorted(step_self.items()):
        out[f"algorithms.step.self_us.{label}"] = statistics.mean(values) * 1e6
    return out

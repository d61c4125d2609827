"""Benchmark of swarmpp through the entry points users use.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the program is imported from ./src.  Each
run writes its workload's plan as JSON, times the set-up of `swarmpp run` in
fresh interpreters, then repeats whole rounds for about S seconds.  A round
is harness.execute on a new store followed by harness.resume on the
completed store.  The first round is a warm-up whose store is checked
against the benchmark's own computations (checks.py); every later round
must reproduce its bytes.

--trace 0 prints the end-to-end metrics: medians over rounds, corrected for
the machine's speed (speed.py).  --trace 1 alternates untraced and traced
rounds, replays a sample of cells through init_state/step with traced
generators, prints the per-layer metrics and writes the spans to
.bench_out/.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import checks
import workloads
from speed import SpeedProbe

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

PROTOCOL_CELL_ITERS = 12 * 70 * 100 * 10_000  # labels x members x runs x iterations
MIN_ROUNDS = 3
SETUP_PROBES = 9  # after one that warms the file cache
REAGGREGATE_RECORDS = 8000  # records re-aggregated per round, at least

UNITS = {
    "wall_s": "s",
    "evals_per_s": "1/s",
    "cells_per_s": "1/s",
    "reaggregate_records_per_s": "1/s",
    "protocol_projected_h": "h",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us") or ".self_us." in name or name.endswith("us_per_iter"):
        return "us"
    if ".ms_" in name:
        return "ms"
    if name.endswith("ns_per_point"):
        return "ns"
    if name.endswith("_bytes"):
        return "B"
    return "count"


def load_program():
    if not (SRC / "swarmpp" / "__init__.py").is_file():
        raise SystemExit(f"error: no swarmpp package under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import swarmpp

    if Path(swarmpp.__file__).resolve().parent != (SRC / "swarmpp").resolve():
        raise SystemExit(f"error: swarmpp was imported from {swarmpp.__file__}, not {SRC}")


def setup_once(plan_path: Path, store: Path, cells: int) -> float:
    """Time from starting an interpreter to the first cell of `swarmpp run`,
    corrected for machine speed.

    The child runs pinned to this process's CPU while this process samples
    the speed there; the bursts take the CPU from the child, so they are
    subtracted as they are from an in-process section.
    """
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), str(ROOT), str(plan_path), str(store)]
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})  # inherited by the child
    try:
        t0 = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            with SpeedProbe() as probe:
                line = proc.stdout.readline()
                elapsed = perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=120)
    finally:
        os.sched_setaffinity(0, cpus)
    if code != 0 or line.strip() != str(cells):
        raise SystemExit(f"error: set-up probe exited {code} and printed {line!r}")
    shutil.rmtree(store)
    return probe.corrected(elapsed)


class Rounds:
    """Repeats rounds and checks their outputs; the first store is checked in full.

    A round is harness.execute on a new store, then enough harness.resume
    calls on the completed store to re-aggregate REAGGREGATE_RECORDS
    records.  Each part is timed raw and corrected for machine speed.
    """

    def __init__(self, harness, plan, plan_d, work: Path):
        self.harness, self.plan, self.plan_d, self.work = harness, plan, plan_d, work
        self.cells = len(plan.cells())
        self.resumes = -(-REAGGREGATE_RECORDS // self.cells)
        self.results: list[dict] = []
        self.problems: list[str] = []
        self.records: list[dict] = []

    @staticmethod
    def _timed(fn, tracer):
        with SpeedProbe(tracer) as probe:
            t0 = perf_counter()
            fn()
            raw = perf_counter() - t0
        return probe.corrected(raw), raw

    def run(self, tracer=None) -> dict:
        harness, plan = self.harness, self.plan
        store = self.work / f"store-{len(self.results)}"

        def call(name, fn, *args):
            return tracer.call(name, fn, *args) if tracer else fn(*args)

        def execute():
            call("harness.execute", harness.execute, plan, store)

        def resume():
            for _ in range(self.resumes):
                call("harness.resume", harness.resume, plan, store)

        res = {}
        res["execute_s"], res["raw_execute_s"] = self._timed(execute, tracer)
        runs, metrics = (store / "runs.jsonl").read_bytes(), (store / "metrics.csv").read_bytes()
        res["resume_s"], res["raw_resume_s"] = self._timed(resume, tracer)
        res["runs_sha"] = hashlib.sha256(runs).hexdigest()
        res["metrics_sha"] = hashlib.sha256(metrics).hexdigest()
        res["runs_bytes"] = len(runs)

        i = len(self.results)
        if runs != (store / "runs.jsonl").read_bytes() or metrics != (store / "metrics.csv").read_bytes():
            self.problems.append(f"round {i}: resume changed runs.jsonl or metrics.csv")
        if not self.results:
            self.problems += checks.check_store(store, self.plan_d)
            self.records, _ = checks.parse_runs(runs.decode())
        else:
            for key in ("runs_sha", "metrics_sha"):
                if res[key] != self.results[0][key]:
                    self.problems.append(f"round {i}: {key} differs from round 0")
        shutil.rmtree(store)
        self.results.append(res)
        return res

    @property
    def operations(self) -> int:
        return len(self.results) * (self.cells + self.resumes)


def end_to_end(rounds: Rounds, seconds: float, plan_path: Path) -> tuple[dict[str, float], dict[str, float]]:
    """Corrected end-to-end metrics (medians over timed rounds), and raw ones.

    The set-ups are timed first, in a block: set-ups between rounds made the
    rounds that followed them less steady.
    """
    store = rounds.work / "setup"
    setups = [setup_once(plan_path, store, rounds.cells) for _ in range(SETUP_PROBES + 1)][1:]
    rounds.run()  # warm-up, and the round whose store is checked in full
    start = perf_counter()
    while True:
        rounds.run()
        elapsed = perf_counter() - start
        n = len(rounds.results) - 1
        if n >= MIN_ROUNDS and elapsed * (n + 1) / n > seconds:
            break
    cells, reaggregated = rounds.cells, rounds.cells * rounds.resumes
    evals = sum(r["n_evals"] for r in rounds.records)
    cell_iters = cells * rounds.plan.max_iter

    def metrics(prefix):
        execute = [r[prefix + "execute_s"] for r in rounds.results[1:]]
        resume = [r[prefix + "resume_s"] for r in rounds.results[1:]]
        wall = statistics.median(execute)
        return {
            "wall_s": wall,
            "evals_per_s": statistics.median(evals / t for t in execute),
            "cells_per_s": statistics.median(cells / t for t in execute),
            "reaggregate_records_per_s": statistics.median(reaggregated / t for t in resume),
            "protocol_projected_h": wall * PROTOCOL_CELL_ITERS / cell_iters / 3600,
        }

    corrected = metrics("")
    corrected["setup_s"] = statistics.median(setups)
    return corrected, metrics("raw_")


def per_layer(rounds: Rounds, seconds: float, seed: int) -> dict[str, float]:
    import tracing

    # alternate untraced and traced rounds; the median difference of a pair
    # of raw round times is the tracing overhead (speed correction is not
    # used here: it reads traced rounds as faster than they are)
    overheads, layers = [], []
    rounds.run()  # warm-up, and the round whose store is checked in full
    start = perf_counter()
    while True:
        res = rounds.run()
        untraced = res["raw_execute_s"] + res["raw_resume_s"]
        tracer = tracing.Tracer()
        with tracing.traced_program(tracer):
            res = rounds.run(tracer)
        overheads.append(res["raw_execute_s"] + res["raw_resume_s"] - untraced)
        layers.append(tracing.program_layers(tracer, rounds.cells))
        elapsed = perf_counter() - start
        if elapsed * (len(layers) + 1) / len(layers) > seconds:
            break
    out = {k: statistics.median(d[k] for d in layers) for k in layers[0]}
    out["harness.store.runs_bytes"] = rounds.results[0]["runs_bytes"]
    out["trace.overhead_s"] = statistics.median(overheads)
    tracer.write(OUT / f"trace-{rounds.plan.name}-seed{seed}-program.jsonl")

    replay_tracer, replay_out, problems = tracing.kernel_replay(
        rounds.plan, checks.members(rounds.plan_d), rounds.records)
    rounds.problems += problems
    out.update(replay_out)
    replay_tracer.write(OUT / f"trace-{rounds.plan.name}-seed{seed}-replay.jsonl")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_program()
    from swarmpp import harness

    plan_d = workloads.plan_dict(args.workload, args.seed)
    work = OUT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    raw: dict[str, float] = {}
    try:
        plan_path = work / "plan.json"
        plan_path.write_text(json.dumps(plan_d, indent=2) + "\n")
        plan = harness.ExperimentPlan.from_json_file(plan_path)
        rounds = Rounds(harness, plan, plan_d, work)
        if args.trace:
            values = per_layer(rounds, args.seconds, args.seed)
            units = {name: layer_unit(name) for name in values}
        else:
            values, raw = end_to_end(rounds, args.seconds, plan_path)
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            units = UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in rounds.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    failed = sum(1 for r in rounds.records if r["status"] != "ok") * len(rounds.results)
    print(f"workload {args.workload} seed {args.seed}: {len(rounds.results)} rounds of "
          f"{rounds.cells} cells and {rounds.resumes} resumes; "
          f"metrics.csv sha256 {rounds.results[0]['metrics_sha']}")
    for name, value in values.items():
        raw_text = f"  (raw {raw[name]:.6g})" if name in raw else ""
        print(f"  {name:<40} {value:>16.6g} {units[name]}{raw_text}")
    print(json.dumps({
        "correct": not rounds.problems,
        "attempted": rounds.operations,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

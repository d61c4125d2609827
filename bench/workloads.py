"""The benchmark's three experiment plans, as the JSON a user would hand to
`swarmpp run`.

Each plan is fixed except for its master seed, which is the benchmark's
--seed argument: the seed moves every trajectory but not the amount of work,
so runs with different seeds measure the same operations.

Run as a script to write one plan to a file:

    python3 bench/workloads.py --workload trend-d10 --seed 1 --out plan.json
"""

from __future__ import annotations

import argparse
import json

ALL_LABELS = [p + f for f in ("PSO", "BAT", "CSO", "DE") for p in ("", "m", "hm")]
ALL_PAIRS = [[f, p + f] for f in ("PSO", "BAT", "CSO", "DE") for p in ("m", "hm")]
NOISE = {"kind": "gaussian", "sigma": 0.005}

# Shapes, before the seed is filled in.  Field order and content follow
# ExperimentPlan.to_dict(), so the stored manifest must equal the plan.
SHAPES = {
    # The acceptance trend plan (PSO/hmPSO/CSO/hmCSO on all 14 d=10 members)
    # with 2 runs of 200 iterations instead of 20 of 3000: long cells, so the
    # step kernels, batched objective calls, RNG draws and the invariant
    # check do the work.  DE is absent.
    "trend-d10": {
        "name": "trend-d10",
        "algorithms": ["PSO", "hmPSO", "CSO", "hmCSO"],
        "pairs": [["PSO", "hmPSO"], ["CSO", "hmCSO"]],
        "dimensions": [10],
        "functions": None,
        "runs": 2,
        "max_iter": 200,
        "checkpoints": [50, 100, 200],
    },
    # The full protocol in miniature: all 12 labels and all 8 base:variant
    # pairs on a stratified sample with members at every collection
    # dimension.  Eggholder and Beale (d=2, multimodal and unimodal),
    # Michalewicz5 (the fixed d=5 member) and Rastrigin at d=5, 10, 20, 40.
    # The collection has 13-15 members at each dimension, so one or two per
    # dimension keeps its dimension mix.
    "protocol-sample": {
        "name": "protocol-sample",
        "algorithms": ALL_LABELS,
        "pairs": ALL_PAIRS,
        "dimensions": [2, 5, 10, 20, 40],
        "functions": ["F6", "F15", "F16", "F18"],
        "runs": 2,
        "max_iter": 50,
        "checkpoints": [10, 25, 50],
    },
    # The full protocol's shape (12 labels x 70 members) with one iteration
    # per cell: per-cell harness cost, record serialisation, store writes and
    # metric aggregation do the work, and the resume that follows re-reads
    # and re-aggregates 3360 records.
    "store-roundtrip": {
        "name": "store-roundtrip",
        "algorithms": ALL_LABELS,
        "pairs": ALL_PAIRS,
        "dimensions": [2, 5, 10, 20, 40],
        "functions": None,
        "runs": 4,
        "max_iter": 1,
        "checkpoints": [1],
    },
}

WORKLOADS = tuple(SHAPES)


def plan_dict(workload: str, seed: int) -> dict:
    """The plan of a workload, in the form ExperimentPlan.to_dict() gives."""
    shape = SHAPES[workload]
    return {
        **shape,
        "master_seed": seed,
        "noise": dict(NOISE),
        "n": 32,
        "parallelism": 1,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    with open(args.out, "w") as fh:
        json.dump(plan_dict(args.workload, args.seed), fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

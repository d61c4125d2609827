"""A small benchmark experiment through the harness.

Executes a plan (CSO vs hmCSO on four functions at d=10) into a store
directory, then reads the winning proportions and relative errors back from
metrics.csv — the same artifact the CLI's `report` subcommand plots.
"""

import csv
import tempfile
from pathlib import Path

from swarmpp.harness import ExperimentPlan, execute

plan = ExperimentPlan(
    name="demo",
    algorithms=("CSO", "hmCSO"),
    pairs=(("CSO", "hmCSO"),),
    dimensions=(10,),
    functions=("F16", "F22", "F23", "F27"),
    runs=8,
    max_iter=1000,
    checkpoints=(100, 400, 1000),
    master_seed=42,
)

with tempfile.TemporaryDirectory(prefix="swarmpp_demo_") as tmp:
    outdir = Path(tmp)
    print(f"executing {len(plan.cells())} cells into {outdir} ...")
    execute(plan, outdir)
    with open(outdir / "metrics.csv") as fh:
        rows = list(csv.DictReader(fh))
    contents = sorted(p.name for p in outdir.iterdir())

print("\nwinning proportion of hmCSO over CSO (ties count 1/2):")
for row in rows:
    if row["metric"] == "winning_proportion":
        scope = "all functions" if row["function"] == "ALL" else row["function"]
        print(f"  t={row['checkpoint']:>5s}  {scope:14s} P = {float(row['value']):.3f}")

print("\nrelative error at the final checkpoint (lower is better):")
for row in rows:
    if row["function"] == "ALL" and row["checkpoint"] == "1000":
        if row["metric"] == "relative_error_orig":
            print(f"  CSO    RE = {float(row['value']):.3f}")
        elif row["metric"] == "relative_error_mod":
            print(f"  hmCSO  RE = {float(row['value']):.3f}")

print(f"\nstore contents: {contents} (removed on exit)")
print("re-running `execute` with the same plan reproduces metrics.csv byte for byte.")

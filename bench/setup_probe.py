"""One set-up, in a fresh interpreter: the part of `swarmpp run plan.json
--out DIR` that comes before the first cell.

    python3 bench/setup_probe.py ROOT PLAN.json OUTDIR

It imports the CLI module (and so every module `swarmpp run` loads), parses
and validates the plan, writes the store manifest and lists the plan's cells,
then prints the number of cells.  The parent times the interval from starting
the process to reading that line.
"""

import sys
from pathlib import Path

root, plan_path, outdir = sys.argv[1:4]
sys.path.insert(0, str(Path(root) / "src"))

from swarmpp import cli, harness  # noqa: E402,F401  (cli: the imports of `swarmpp run`)

plan = harness.ExperimentPlan.from_json_file(plan_path)
harness.ResultStore(outdir).write_manifest(plan)
print(len(plan.cells()), flush=True)

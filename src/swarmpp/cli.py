"""Command-line surface: list the registry, run plans, render reports, sweep
noise settings.

Exit codes: 0 success, 1 runtime failure, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import harness, objectives, plotting
from .perturbation import NoiseModel

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


def _cmd_list(args) -> int:
    try:
        members = objectives.list_collection(args.dim)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.dim is None:
        # one row per registered function
        specs = list(objectives.REGISTRY.values())
        rows = [(s, s.dims[0]) for s in specs]
    else:
        rows = members
    header = f"{'label':<5} {'name':<14} {'dims':<14} {'domain':<22} {'min':>12} {'uni':<4} {'sep':<4}"
    print(header)
    print("-" * len(header))
    for spec, d in rows:
        box = objectives.default_domain(spec, d)
        lo, hi = box.lower, box.upper
        if (lo == lo[0]).all() and (hi == hi[0]).all():
            dom = f"[{lo[0]:g}, {hi[0]:g}]^d"
        else:
            dom = "x".join(f"[{a:g},{b:g}]" for a, b in zip(lo, hi))
        dims = ",".join(str(x) for x in spec.dims)
        print(
            f"{spec.label:<5} {spec.name:<14} {dims:<14} {dom:<22} "
            f"{spec.min_value(d):>12.6g} {'yes' if spec.unimodal else 'no':<4} "
            f"{'yes' if spec.separable else 'no':<4}"
        )
    return EXIT_OK


def _load_plan(args) -> harness.ExperimentPlan:
    plan = harness.ExperimentPlan.from_json_file(args.plan)
    if getattr(args, "seed", None) is not None:
        plan = replace(plan, master_seed=args.seed)
    if getattr(args, "runs", None) is not None:
        plan = replace(plan, runs=args.runs)
    return plan


def _populate(args, stores, force=False) -> int:
    """Load the plan of `args`, then fill each store in `stores(plan)`, a list
    of (plan, outdir) pairs: resume a store that exists unless `force`,
    otherwise execute into it.  An invalid plan, or a store that refuses to
    resume (harness.StoreError), exits 2; any other failure, a ValueError
    included, exits 1."""
    try:
        plan = _load_plan(args)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"error: invalid plan: {exc}", file=sys.stderr)
        return EXIT_USAGE
    for sub, outdir in stores(plan):
        try:
            if harness.ResultStore(outdir).exists() and not force:
                harness.resume(sub, outdir)
            else:
                harness.execute(sub, outdir)
        except harness.StoreError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except Exception as exc:  # noqa: BLE001 - surface anything else as runtime failure
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_RUNTIME
        print(f"store populated: {outdir}")
    return EXIT_OK


def _cmd_run(args) -> int:
    return _populate(args, lambda plan: [(plan, args.out)], force=args.force)


def _read_metric_rows(store_dir) -> list[dict]:
    """metrics.csv's rows.  ValueError names the first line that is not UTF-8,
    or the first row that lacks a column report reads or whose dimension,
    checkpoint or value is no number."""
    path = Path(store_dir) / "metrics.csv"
    if not path.exists():
        raise FileNotFoundError(f"no metrics.csv in {store_dir}")
    data = path.read_bytes()
    try:
        text = data.decode()
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"metrics.csv line {line} is not UTF-8: byte {data[exc.start]:#04x} ({exc.reason})") from None
    rows = list(csv.DictReader(io.StringIO(text, newline="")))
    for line, r in enumerate(rows, 2):  # line 1 is the header
        try:
            r["pair"], r["function"], r["metric"], int(r["dimension"]), int(r["checkpoint"]), float(r["value"])
        except KeyError as exc:
            raise ValueError(f"metrics.csv line {line} has no {exc} column") from None
        except (TypeError, ValueError) as exc:  # TypeError: a field missing from a short row
            raise ValueError(f"metrics.csv line {line} is not a metrics row: {exc}") from None
    return rows


# --plot kind -> (title, series); each series is (metric, legend, dashed),
# dashed for the original algorithm and solid for the modified one
PLOTS = {
    "winning": ("Winning proportion", (("winning_proportion", "P({b}>{a})", False),)),
    "relerr": (
        "Relative error",
        (("relative_error_orig", "RE {a}", True), ("relative_error_mod", "RE {b}", False)),
    ),
}


def _cmd_report(args) -> int:
    try:
        rows = _read_metric_rows(args.store)
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    title, series_spec = PLOTS[args.plot]
    metric_names = {metric for metric, _, _ in series_spec}
    selected = [
        r
        for r in rows
        if r["pair"] == args.pair and r["function"] == "ALL" and r["metric"] in metric_names
    ]
    if not selected:
        print(f"error: no aggregated rows for pair {args.pair!r}", file=sys.stderr)
        return EXIT_USAGE
    a, b = args.pair.split(":")
    panels = []
    # companion CSV: exactly the plotted values, verbatim from metrics.csv
    lines = ["pair,dimension,checkpoint,metric,value"]
    for d in sorted({int(r["dimension"]) for r in selected}):
        series = []
        for metric, legend, dashed in series_spec:
            pts = sorted(
                (int(r["checkpoint"]), r["value"])
                for r in selected
                if int(r["dimension"]) == d and r["metric"] == metric
            )
            series.append((legend.format(a=a, b=b), dashed, pts))
            lines += [f"{args.pair},{d},{t},{metric},{v}" for t, v in pts]
        panels.append((d, series))
    svg = plotting.render_panels(panels, f"{title} {args.pair}")
    # an --out that ends in a separator or names a directory, as the store
    # does when there is none, gets the default name inside it
    out_base = Path(args.out or args.store)
    if not args.out or args.out.endswith(("/", os.sep)) or out_base.is_dir():
        out_base /= f"{args.plot}_{a}_{b}"
    svg_path, csv_path = (out_base.with_name(out_base.name + suffix) for suffix in (".svg", ".csv"))
    try:
        out_base.parent.mkdir(parents=True, exist_ok=True)
        svg_path.write_text(svg)
        csv_path.write_text("\n".join(lines) + "\n")
    except OSError as exc:  # such as a directory on the path that is a file
        print(f"error: cannot write the report to {out_base}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"wrote {svg_path} and {csv_path}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    settings = []
    try:
        for s in args.sigma.split(",") if args.sigma else ():
            settings.append((f"sigma{s}", NoiseModel(kind="gaussian", sigma=float(s))))
        for m in args.tdf.split(",") if args.tdf else ():
            settings.append((f"tdf{m}", NoiseModel(kind="scaled_t", df=int(m))))
    except ValueError as exc:
        print(f"error: invalid noise setting: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if not settings:
        print("error: give --sigma and/or --tdf values", file=sys.stderr)
        return EXIT_USAGE
    tags = {}  # each noise model, by the tag of its first setting
    for tag, noise in settings:
        if noise in tags:  # it would compute the same stores twice
            print(f"error: noise setting {tag} repeats {tags[noise]}", file=sys.stderr)
            return EXIT_USAGE
        tags[noise] = tag
    return _populate(
        args,
        lambda plan: [
            (replace(plan, noise=noise, name=f"{plan.name}_{tag}"), Path(args.out) / tag) for tag, noise in settings
        ],
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="swarmpp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="print the test-function registry")
    p_list.add_argument("--dim", type=int, default=None)
    p_list.set_defaults(func=_cmd_list)

    p_run = sub.add_parser("run", help="execute an experiment plan")
    p_run.add_argument("plan")
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--runs", type=int, default=None)
    p_run.add_argument("--force", action="store_true", help="recompute instead of resuming")
    p_run.set_defaults(func=_cmd_run)

    p_rep = sub.add_parser("report", help="emit SVG plots from a populated store")
    p_rep.add_argument("store")
    p_rep.add_argument("--plot", choices=tuple(PLOTS), required=True)
    p_rep.add_argument("--pair", required=True, help="A:B, e.g. PSO:hmPSO")
    p_rep.add_argument("--out", default=None,
                       help="output basename, to which .svg and .csv are appended; a directory (or a path "
                            "ending in a separator) gets <plot>_<A>_<B> inside it; default: in the store")
    p_rep.set_defaults(func=_cmd_report)

    p_sw = sub.add_parser("sweep", help="run a plan across noise settings")
    p_sw.add_argument("plan")
    p_sw.add_argument("--out", required=True)
    p_sw.add_argument("--sigma", default=None, help="comma-separated Gaussian sigmas")
    p_sw.add_argument("--tdf", default=None, help="comma-separated t degrees of freedom")
    p_sw.add_argument("--seed", type=int, default=None)
    p_sw.add_argument("--runs", type=int, default=None)
    p_sw.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

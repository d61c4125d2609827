"""Correctness checks for a populated experiment store, kept apart from the
program: nothing here imports swarmpp.

The checks recompute what the store claims from the benchmark's own
definitions:

* its own formula for each of the 28 test functions (plain Python floats,
  no numpy), used to re-evaluate every final best point;
* its own search domains, so every final best point is checked against a
  box the program did not supply;
* a table of literature global minima that no best-so-far may undercut
  beyond the rounding of the published constant;
* the exact evaluation count of each family: n*(1+T) for PSO, BAT and DE,
  n + T*n/2 for CSO;
* its own winning proportion (ties count 1/2) and relative error, computed
  from runs.jsonl and compared with metrics.csv.

Each check returns a list of problems; an empty list means the store passed.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

PI = math.pi

# ---------------------------------------------------------------------------
# test functions, one point at a time


def _ackley(x):
    d = len(x)
    s1 = sum(v * v for v in x) / d
    s2 = sum(math.cos(2 * PI * v) for v in x) / d
    return -20.0 * math.exp(-0.2 * math.sqrt(s1)) - math.exp(s2) + 20.0 + math.e


def _pairs(x):
    return zip(x[:-1], x[1:])


def _bohachevsky1(x):
    return sum(
        a * a + 2 * b * b - 0.3 * math.cos(3 * PI * a) - 0.4 * math.cos(4 * PI * b) + 0.7
        for a, b in _pairs(x)
    )


def _bohachevsky2(x):
    return sum(
        a * a + 2 * b * b - 0.3 * math.cos(3 * PI * a) * math.cos(4 * PI * b) + 0.3
        for a, b in _pairs(x)
    )


def _bohachevsky3(x):
    # conventional (x_i, x_{i+1}) index pattern
    return sum(
        a * a + 2 * b * b - 0.3 * math.cos(3 * PI * a + 4 * PI * b) + 0.3 for a, b in _pairs(x)
    )


def _bukin6(x):
    x1, x2 = x
    return 100.0 * math.sqrt(abs(x2 - 0.01 * x1 * x1)) + 0.01 * abs(x1 + 10.0)


def _dropwave(x):
    r2 = x[0] ** 2 + x[1] ** 2
    return -(1.0 + math.cos(12.0 * math.sqrt(r2))) / (0.5 * r2 + 2.0)


def _eggholder(x):
    x1, x2 = x
    return -(x2 + 47.0) * math.sin(math.sqrt(abs(x2 + x1 / 2.0 + 47.0))) - x1 * math.sin(
        math.sqrt(abs(x1 - (x2 + 47.0)))
    )


def _goldstein_price(x):
    x1, x2 = x
    a = 1 + (x1 + x2 + 1) ** 2 * (19 - 14 * x1 + 3 * x1**2 - 14 * x2 + 6 * x1 * x2 + 3 * x2**2)
    b = 30 + (2 * x1 - 3 * x2) ** 2 * (
        18 - 32 * x1 + 12 * x1**2 + 48 * x2 - 36 * x1 * x2 + 27 * x2**2
    )
    return a * b


def _griewank(x):
    s = sum(v * v for v in x) / 4000.0
    p = 1.0
    for i, v in enumerate(x, start=1):
        p *= math.cos(v / math.sqrt(i))
    return 1.0 + s - p


def _mccormick(x):
    x1, x2 = x
    return math.sin(x1 + x2) + (x1 - x2) ** 2 - 1.5 * x1 + 2.5 * x2 + 1.0


def _schaffer2(x):
    x1, x2 = x
    return 0.5 + (math.sin(x1 * x1 - x2 * x2) ** 2 - 0.5) / (1.0 + 0.001 * (x1 * x1 + x2 * x2)) ** 2


def _schaffer4(x):
    x1, x2 = x
    return 0.5 + (math.cos(math.sin(abs(x1 * x1 - x2 * x2))) ** 2 - 0.5) / (
        1.0 + 0.001 * (x1 * x1 + x2 * x2)
    ) ** 2


def _booth(x):
    x1, x2 = x
    return (x1 + 2 * x2 - 7) ** 2 + (2 * x1 + x2 - 5) ** 2


def _branin(x):
    x1, x2 = x
    b = 5.1 / (4 * PI * PI)
    c = 5.0 / PI
    t = 1.0 / (8 * PI)
    return (x2 - b * x1 * x1 + c * x1 - 6.0) ** 2 + 10.0 * (1 - t) * math.cos(x1) + 10.0


def _michalewicz(x):
    return -sum(math.sin(v) * math.sin(i * v * v / PI) ** 20 for i, v in enumerate(x, start=1))


def _rastrigin(x):
    return 10.0 * len(x) + sum(v * v - 10.0 * math.cos(2 * PI * v) for v in x)


def _shubert(x):
    def s(v):
        return sum(i * math.cos((i + 1) * v + i) for i in range(1, 6))

    return s(x[0]) * s(x[1])


def _beale(x):
    x1, x2 = x
    return (
        (1.5 - x1 + x1 * x2) ** 2
        + (2.25 - x1 + x1 * x2**2) ** 2
        + (2.625 - x1 + x1 * x2**3) ** 2
    )


def _dixon_price(x):
    return (x[0] - 1) ** 2 + sum(i * (2 * x[i - 1] ** 2 - x[i - 2]) ** 2 for i in range(2, len(x) + 1))


def _easom(x):
    x1, x2 = x
    return -math.cos(x1) * math.cos(x2) * math.exp(-((x1 - PI) ** 2) - (x2 - PI) ** 2)


def _matyas(x):
    x1, x2 = x
    return 0.26 * (x1 * x1 + x2 * x2) - 0.48 * x1 * x2


def _powell(x):
    # complete blocks of four only: trailing coordinates are inert
    total = 0.0
    for b in range(len(x) // 4):
        x1, x2, x3, x4 = x[4 * b : 4 * b + 4]
        total += (x1 + 10 * x2) ** 2 + 5 * (x3 - x4) ** 2 + (x2 - 2 * x3) ** 4 + 10 * (x1 - x4) ** 4
    return total


def _rosenbrock(x):
    return sum(100.0 * (b - a * a) ** 2 + (a - 1) ** 2 for a, b in _pairs(x))


def _schwefel(x):
    # the shifted form 418.9829*d - sum(x sin sqrt|x|), minimum ~0
    return 418.9829 * len(x) - sum(v * math.sin(math.sqrt(abs(v))) for v in x)


def _trid(x):
    return sum((v - 1) ** 2 for v in x) - sum(a * b for a, b in _pairs(x))


def _zakharov(x):
    s = sum(0.5 * i * v for i, v in enumerate(x, start=1))
    return sum(v * v for v in x) + s**2 + s**4


def _sphere(x):
    return sum(v * v for v in x)


def _sumsquare(x):
    return sum(i * v * v for i, v in enumerate(x, start=1))


ARBITRARY_DIMS = (5, 10, 20, 40)


def _cube(lo, hi):
    return lambda d: ([lo] * d, [hi] * d)


def _fixed(lower, upper):
    return lambda d: (list(lower), list(upper))


# label -> (formula, fixed dimension or None, domain(d) -> (lower, upper))
FUNCTIONS = {
    "F1": (_ackley, None, _cube(-32.768, 32.768)),
    "F2": (_bohachevsky2, None, _cube(-100.0, 100.0)),
    "F3": (_bohachevsky3, None, _cube(-100.0, 100.0)),
    "F4": (_bukin6, 2, _fixed([-15.0, -3.0], [-5.0, 3.0])),
    "F5": (_dropwave, 2, _cube(-5.12, 5.12)),
    "F6": (_eggholder, 2, _cube(-512.0, 512.0)),
    "F7": (_goldstein_price, 2, _cube(-2.0, 2.0)),
    "F8": (_griewank, None, _cube(-600.0, 600.0)),
    "F9": (_mccormick, 2, _fixed([-1.5, -3.0], [4.0, 4.0])),
    "F10": (_schaffer2, 2, _cube(-100.0, 100.0)),
    "F11": (_schaffer4, 2, _cube(-100.0, 100.0)),
    "F12": (_bohachevsky1, None, _cube(-100.0, 100.0)),
    "F13": (_booth, 2, _cube(-10.0, 10.0)),
    "F14": (_branin, 2, _fixed([-5.0, 0.0], [10.0, 15.0])),
    "F15": (_michalewicz, 5, _cube(0.0, PI)),
    "F16": (_rastrigin, None, _cube(-5.12, 5.12)),
    "F17": (_shubert, 2, _cube(-10.0, 10.0)),
    "F18": (_beale, 2, _cube(-4.5, 4.5)),
    "F19": (_dixon_price, None, _cube(-10.0, 10.0)),
    "F20": (_easom, 2, _cube(-100.0, 100.0)),
    "F21": (_matyas, 2, _cube(-10.0, 10.0)),
    "F22": (_powell, None, _cube(-4.0, 5.0)),
    "F23": (_rosenbrock, None, _cube(-5.0, 10.0)),
    "F24": (_schwefel, None, _cube(-500.0, 500.0)),
    "F25": (_trid, None, lambda d: ([-float(d * d)] * d, [float(d * d)] * d)),
    "F26": (_zakharov, None, _cube(-5.0, 10.0)),
    "F27": (_sphere, None, _cube(-5.12, 5.12)),
    "F28": (_sumsquare, None, _cube(-10.0, 10.0)),
}

# Literature global minima as (value, tolerance).  A constant published to k
# decimals may be undercut by half a unit in its last place; an exact constant
# only by floating-point evaluation error, allowed as 1e-9 * max(1, |min|).
# F24 is the shifted Schwefel form whose minimum is d*(418.9829 - 418.98288727)
# >= 0, so 0 is a lower bound.
_EXACT = 0.0
LITERATURE_MINIMA = {
    "F1": (0.0, _EXACT),
    "F2": (0.0, _EXACT),
    "F3": (0.0, _EXACT),
    "F4": (0.0, _EXACT),
    "F5": (-1.0, _EXACT),
    "F6": (-959.6407, 5e-5),
    "F7": (3.0, _EXACT),
    "F8": (0.0, _EXACT),
    "F9": (-1.9133, 5e-5),
    "F10": (0.0, _EXACT),
    "F11": (0.292579, 5e-7),
    "F12": (0.0, _EXACT),
    "F13": (0.0, _EXACT),
    "F14": (0.397887, 5e-7),
    "F15": (-4.687658, 5e-7),
    "F16": (0.0, _EXACT),
    "F17": (-186.7309, 5e-5),
    "F18": (0.0, _EXACT),
    "F19": (0.0, _EXACT),
    "F20": (-1.0, _EXACT),
    "F21": (0.0, _EXACT),
    "F22": (0.0, _EXACT),
    "F23": (0.0, _EXACT),
    "F24": (0.0, _EXACT),
    "F25": (None, _EXACT),  # -d(d+4)(d-1)/6, depends on d
    "F26": (0.0, _EXACT),
    "F27": (0.0, _EXACT),
    "F28": (0.0, _EXACT),
}

# agreement between the program's vectorised value and the scalar formula
VALUE_RTOL = 1e-9
VALUE_ATOL = 1e-9
# agreement of recomputed metrics with metrics.csv: summation order differs
METRIC_TOL = 1e-12


def dims_of(label: str) -> tuple[int, ...]:
    fixed = FUNCTIONS[label][1]
    return (fixed,) if fixed is not None else ARBITRARY_DIMS


def evaluate(label: str, x) -> float:
    return float(FUNCTIONS[label][0]([float(v) for v in x]))


def literature_floor(label: str, d: int) -> float:
    value, tol = LITERATURE_MINIMA[label]
    if value is None:
        value = -d * (d + 4) * (d - 1) / 6.0
    return value - max(tol, 1e-9 * max(1.0, abs(value)))


def members(plan: dict) -> list[tuple[str, int]]:
    labels = plan["functions"] if plan.get("functions") is not None else list(FUNCTIONS)
    return [(f, d) for d in plan["dimensions"] for f in labels if d in dims_of(f)]


def expected_cells(plan: dict) -> list[tuple[str, str, int, int]]:
    return [
        (alg, f, d, r)
        for alg in plan["algorithms"]
        for f, d in members(plan)
        for r in range(plan["runs"])
    ]


def expected_evals(algorithm: str, n: int, max_iter: int) -> int:
    family = algorithm[2:] if algorithm.startswith("hm") else algorithm.lstrip("m")
    if family == "CSO":
        return n + max_iter * (n // 2)
    return n * (1 + max_iter)


# ---------------------------------------------------------------------------
# runs.jsonl


def parse_runs(text: str) -> tuple[list[dict], list[str]]:
    records, problems = [], []
    for i, line in enumerate(text.splitlines(), start=1):
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as exc:
            problems.append(f"runs.jsonl line {i}: {exc}")
    return records, problems


def check_cells(records: list[dict], plan: dict) -> list[str]:
    """Every plan cell appears exactly once, and nothing else appears."""
    keys = [(r["algorithm"], r["function"], r["dimension"], r["run"]) for r in records]
    seen, problems = set(), []
    for key in keys:
        if key in seen:
            problems.append(f"cell {key} appears more than once")
        seen.add(key)
    expected = set(expected_cells(plan))
    for key in sorted(expected - seen):
        problems.append(f"cell {key} is missing")
    for key in sorted(seen - expected):
        problems.append(f"cell {key} is not in the plan")
    return problems


def check_record(rec: dict, plan: dict) -> list[str]:
    key = (rec["algorithm"], rec["function"], rec["dimension"], rec["run"])
    label, d = rec["function"], rec["dimension"]
    problems = []

    def bad(msg):
        problems.append(f"{key}: {msg}")

    if rec["status"] != "ok":
        bad(f"status {rec['status']!r}")
        return problems
    if rec["violations_c1"] != 0 or rec["violations_c3"] != 0:
        bad(f"invariant violations c1={rec['violations_c1']} c3={rec['violations_c3']}")
    want = expected_evals(rec["algorithm"], plan["n"], plan["max_iter"])
    if rec["n_evals"] != want:
        bad(f"n_evals {rec['n_evals']} != {want}")

    cps = rec["checkpoints"]
    if sorted(int(t) for t in cps) != sorted(plan["checkpoints"]):
        bad(f"checkpoints {sorted(cps)} != plan {plan['checkpoints']}")
        return problems
    values = [cps[str(t)] for t in plan["checkpoints"]]
    if any(b > a for a, b in zip(values, values[1:])):
        bad(f"best-so-far increases across checkpoints: {values}")
    final = rec["final_best_value"]
    if values and final > values[-1]:
        bad(f"final best {final!r} above last checkpoint {values[-1]!r}")

    floor = literature_floor(label, d)
    for v in values + [final]:
        if not v >= floor:
            bad(f"best-so-far {v!r} undercuts the literature minimum (floor {floor!r})")
            break

    point = rec["final_best_point"]
    lower, upper = FUNCTIONS[label][2](d)
    if point is None or len(point) != d:
        bad(f"final best point has the wrong shape: {point!r}")
        return problems
    if any(not lo <= v <= hi for v, lo, hi in zip(point, lower, upper)):
        bad("final best point lies outside the search box")
    value = evaluate(label, point)
    if not math.isclose(value, final, rel_tol=VALUE_RTOL, abs_tol=VALUE_ATOL):
        bad(f"re-evaluated final best point gives {value!r}, store has {final!r}")
    return problems


# ---------------------------------------------------------------------------
# metrics.csv


def win_fraction(a: list[float], b: list[float]) -> tuple[float, int]:
    """Share of paired runs where b beats a; exact ties count 1/2."""
    wins = sum(1 for x, y in zip(a, b) if y < x)
    ties = sum(1 for x, y in zip(a, b) if y == x)
    return (wins + 0.5 * ties) / len(a), ties


def relative_error(a: list[float], b: list[float]) -> tuple[float, float]:
    """Mean distance from the pooled minimum over the pooled range, per side."""
    pooled = a + b
    lo, hi = min(pooled), max(pooled)
    if hi == lo:
        return 0.0, 0.0
    return (
        math.fsum((v - lo) / (hi - lo) for v in a) / len(a),
        math.fsum((v - lo) / (hi - lo) for v in b) / len(b),
    )


def expected_metric_rows(records: list[dict], plan: dict) -> dict[tuple, tuple[float, int]]:
    """(pair, function, d, t, metric) -> (value, tie count), every row of metrics.csv."""
    by_key = {(r["algorithm"], r["function"], r["dimension"], r["run"]): r for r in records}
    runs = range(plan["runs"])
    rows = {}
    for a, b in plan["pairs"]:
        pair = f"{a}:{b}"
        for d in plan["dimensions"]:
            labels = [f for f, dd in members(plan) if dd == d]
            if not labels:
                continue
            for t in plan["checkpoints"]:
                wins = count = ties_all = 0
                re_a_all, re_b_all = [], []
                for f in labels:
                    av = [by_key[(a, f, d, r)]["checkpoints"][str(t)] for r in runs]
                    bv = [by_key[(b, f, d, r)]["checkpoints"][str(t)] for r in runs]
                    frac, ties = win_fraction(av, bv)
                    re_a, re_b = relative_error(av, bv)
                    rows[(pair, f, d, t, "winning_proportion")] = (frac, ties)
                    rows[(pair, f, d, t, "relative_error_orig")] = (re_a, ties)
                    rows[(pair, f, d, t, "relative_error_mod")] = (re_b, ties)
                    wins += sum(1 for x, y in zip(av, bv) if y < x) + 0.5 * ties
                    count += len(av)
                    ties_all += ties
                    re_a_all.append(re_a)
                    re_b_all.append(re_b)
                rows[(pair, "ALL", d, t, "winning_proportion")] = (wins / count, ties_all)
                rows[(pair, "ALL", d, t, "relative_error_orig")] = (
                    math.fsum(re_a_all) / len(re_a_all), ties_all)
                rows[(pair, "ALL", d, t, "relative_error_mod")] = (
                    math.fsum(re_b_all) / len(re_b_all), ties_all)
    return rows


def check_metrics(records: list[dict], plan: dict, metrics_text: str) -> list[str]:
    problems = []
    reader = csv.DictReader(io.StringIO(metrics_text))
    stored = {}
    for row in reader:
        if row["experiment"] != plan["name"]:
            problems.append(f"metrics.csv row names experiment {row['experiment']!r}")
        key = (row["pair"], row["function"], int(row["dimension"]), int(row["checkpoint"]), row["metric"])
        if key in stored:
            problems.append(f"metrics.csv row {key} appears more than once")
        stored[key] = (float(row["value"]), int(row["tie_count"]))
    expected = expected_metric_rows(records, plan)
    for key in sorted(set(expected) - set(stored), key=str):
        problems.append(f"metrics.csv lacks row {key}")
    for key in sorted(set(stored) - set(expected), key=str):
        problems.append(f"metrics.csv has unexpected row {key}")
    for key in sorted(set(expected) & set(stored), key=str):
        (want, want_ties), (got, got_ties) = expected[key], stored[key]
        if got_ties != want_ties or not math.isclose(got, want, rel_tol=METRIC_TOL, abs_tol=METRIC_TOL):
            problems.append(f"metrics.csv {key} = ({got!r}, {got_ties}), recomputed ({want!r}, {want_ties})")
    return problems


# ---------------------------------------------------------------------------


def check_store(store_dir, plan: dict) -> list[str]:
    """Every check on one store; returns the problems found."""
    store_dir = Path(store_dir)
    manifest = json.loads((store_dir / "manifest.json").read_text())
    problems = []
    if manifest["plan"] != plan:
        problems.append("manifest plan differs from the plan that was run")
    records, parse_problems = parse_runs((store_dir / "runs.jsonl").read_text())
    problems += parse_problems
    problems += check_cells(records, plan)
    for rec in records:
        problems += check_record(rec, plan)
    if not problems:
        problems += check_metrics(records, plan, (store_dir / "metrics.csv").read_text())
    return problems

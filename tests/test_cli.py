import json

import pytest

from swarmpp import algorithms, harness
from swarmpp.cli import main
from swarmpp.metrics import relative_error


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_list_all(capsys):
    code, out, _ = run_cli(capsys, "list")
    assert code == 0
    rows = [line for line in out.splitlines() if line.startswith("F")]
    assert len(rows) == 28


def test_list_dim2(capsys):
    code, out, _ = run_cli(capsys, "list", "--dim", "2")
    assert code == 0
    rows = [line for line in out.splitlines() if line.startswith("F")]
    assert len(rows) == 13


def test_list_bad_dim(capsys):
    code, _, err = run_cli(capsys, "list", "--dim", "3")
    assert code == 2
    assert "error" in err


def write_plan(tmp_path, **overrides):
    plan = {
        "name": "mini",
        "algorithms": ["PSO", "mPSO"],
        "pairs": [["PSO", "mPSO"]],
        "dimensions": [5],
        "functions": ["F27"],
        "runs": 1,
        "max_iter": 10,
        "checkpoints": [10],
        "master_seed": 3,
    }
    plan.update(overrides)
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan))
    return path


def test_run_minimal_plan(tmp_path, capsys):
    plan = write_plan(tmp_path)
    out = tmp_path / "store"
    code, _, _ = run_cli(capsys, "run", str(plan), "--out", str(out))
    assert code == 0
    assert (out / "metrics.csv").exists()


def test_run_invalid_plan(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"algorithms": ["NOPE"]}))
    code, _, err = run_cli(capsys, "run", str(path), "--out", str(tmp_path / "s"))
    assert code == 2 and "error" in err
    # a plan that cannot run is rejected before a store is made
    path.write_text(json.dumps({"algorithms": ["PSO", "CSO"], "pairs": [["PSO", "CSO"]], "n": 5}))
    code, _, err = run_cli(capsys, "run", str(path), "--out", str(tmp_path / "s"))
    assert code == 2 and "even swarm size" in err
    assert not (tmp_path / "s").exists()
    # and hmCSO at n=2, which perturbs no loser and so ran CSO's trajectory
    write_plan(tmp_path, algorithms=["CSO", "hmCSO"], pairs=[["CSO", "hmCSO"]], n=2)
    code, _, err = run_cli(capsys, "run", str(tmp_path / "plan.json"), "--out", str(tmp_path / "s"))
    assert code == 2 and "hpp CSO" in err and "needs n >= 4" in err
    assert not (tmp_path / "s").exists()
    # so is a function selection that names no member
    for functions, message in ((["F6", "F99"], "F99"), (["F6"], "no collection member")):
        path.write_text(json.dumps({"functions": functions, "dimensions": [10]}))
        code, _, err = run_cli(capsys, "run", str(path), "--out", str(tmp_path / "s"))
        assert code == 2 and message in err
        assert not (tmp_path / "s").exists()
    # and an integer field that is not an int: before, 2.0 made a manifest and
    # then failed mid-run with exit 1; and noise that is no JSON object or has
    # a sigma or df past the largest double, which exited 1 with a traceback
    # (the df after writing a manifest), or a sigma that is no number, which
    # ran; and a label that is no string, which exited 1 with a traceback
    for key, value in (("runs", 2.0), ("max_iter", 5.0), ("runs", True), ("dimensions", [5.0]),
                       ("master_seed", "7"), ("parallelism", 0), ("noise", 5), ("noise", "gaussian"),
                       ("noise", [1]), ("noise", {"sigma": True}), ("noise", {"sigma": "0.01"}),
                       ("noise", {"sigma": 10**400}), ("noise", {"kind": "scaled_t", "df": 10**400}),
                       ("runs", 0), ("max_iter", -1), ("algorithms", [["PSO"]]), ("runs", 1001),
                       ("max_iter", 10**6 + 1), ("runs", 10**12)):
        write_plan(tmp_path, **{key: value})
        code, _, err = run_cli(capsys, "run", str(tmp_path / "plan.json"), "--out", str(tmp_path / "s"))
        assert code == 2 and err.startswith("error: invalid plan:"), (key, value)
        assert not (tmp_path / "s").exists()
    # and a repeated dimension or pair, which wrote its metric rows twice, or
    # a repeated label or function, which ran once while the manifest kept it
    for key, value in (("dimensions", [5, 5]), ("pairs", [["PSO", "mPSO"], ["PSO", "mPSO"]]),
                       ("algorithms", ["PSO", "PSO", "mPSO"]), ("functions", ["F27", "F27"])):
        write_plan(tmp_path, **{key: value})
        code, _, err = run_cli(capsys, "run", str(tmp_path / "plan.json"), "--out", str(tmp_path / "s"))
        assert code == 2 and f"{key} must be distinct" in err, (key, value)
        assert not (tmp_path / "s").exists()


def test_run_refuses_a_plan_list_that_is_no_list(tmp_path, capsys):
    # before, a string was split into characters ("F16" gave unknown labels
    # F, 1, 6) and a one-label pair failed on tuple unpacking
    for key, value, message in (("functions", "F16", "functions must be a list"),
                                ("algorithms", "PSO", "algorithms must be a list"),
                                ("pairs", "PSO:mPSO", "pairs must be a list"),
                                ("pairs", ["PSO:mPSO"], "a pairs entry must be a list"),
                                ("pairs", [["PSO"]], "a pairs entry must be two algorithm labels"),
                                ("pairs", [["PSO", "mPSO", "PSO"]], "a pairs entry must be two algorithm labels"),
                                ("dimensions", 5, "dimensions must be a list"),
                                ("checkpoints", "10", "checkpoints must be a list")):
        write_plan(tmp_path, **{key: value})
        code, _, err = run_cli(capsys, "run", str(tmp_path / "plan.json"), "--out", str(tmp_path / "s"))
        assert code == 2 and err.startswith(f"error: invalid plan: {message}"), (key, value, err)
        assert not (tmp_path / "s").exists()


def test_seed_override_changes_runs_not_schema(tmp_path, capsys):
    plan = write_plan(tmp_path)
    run_cli(capsys, "run", str(plan), "--out", str(tmp_path / "a"))
    run_cli(capsys, "run", str(plan), "--out", str(tmp_path / "b"), "--seed", "44")
    ra = (tmp_path / "a" / "runs.jsonl").read_text()
    rb = (tmp_path / "b" / "runs.jsonl").read_text()
    assert ra != rb
    assert set(json.loads(ra.splitlines()[0])) == set(json.loads(rb.splitlines()[0]))


def test_rerun_resumes_identically(tmp_path, capsys):
    plan = write_plan(tmp_path)
    out = tmp_path / "store"
    run_cli(capsys, "run", str(plan), "--out", str(out))
    before = (out / "metrics.csv").read_bytes()
    code, _, _ = run_cli(capsys, "run", str(plan), "--out", str(out))
    assert code == 0
    assert (out / "metrics.csv").read_bytes() == before


def test_report_winning_and_companion_csv(tmp_path, capsys):
    plan = write_plan(tmp_path, checkpoints=[5, 10])
    out = tmp_path / "store"
    run_cli(capsys, "run", str(plan), "--out", str(out))
    code, _, _ = run_cli(
        capsys, "report", str(out), "--plot", "winning", "--pair", "PSO:mPSO"
    )
    assert code == 0
    svg = (out / "winning_PSO_mPSO.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg
    companion = (out / "winning_PSO_mPSO.csv").read_text().splitlines()
    assert companion[0] == "pair,dimension,checkpoint,metric,value"
    assert len(companion) == 3  # header + one line per checkpoint

    # plotted values are verbatim copies of metrics.csv values
    metric_lines = (out / "metrics.csv").read_text().splitlines()
    agg = {
        line.split(",")[4]: line.split(",")[6]
        for line in metric_lines[1:]
        if line.split(",")[2] == "ALL" and line.split(",")[5] == "winning_proportion"
    }
    for line in companion[1:]:
        parts = line.split(",")
        assert parts[4] == agg[parts[2]]


def test_report_regeneration_identical(tmp_path, capsys):
    plan = write_plan(tmp_path, checkpoints=[5, 10])
    out = tmp_path / "store"
    run_cli(capsys, "run", str(plan), "--out", str(out))
    run_cli(capsys, "report", str(out), "--plot", "relerr", "--pair", "PSO:mPSO")
    svg = out / "relerr_PSO_mPSO.svg"
    first = svg.read_bytes()
    svg.unlink()
    run_cli(capsys, "report", str(out), "--plot", "relerr", "--pair", "PSO:mPSO")
    assert svg.read_bytes() == first


def test_report_empty_store(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "report", str(tmp_path), "--plot", "winning", "--pair", "PSO:mPSO"
    )
    assert code == 2 and "error" in err


def test_report_refuses_a_pair_without_rows(tmp_path, capsys):
    out = tmp_path / "store"
    run_cli(capsys, "run", str(write_plan(tmp_path)), "--out", str(out))
    code, _, err = run_cli(capsys, "report", str(out), "--plot", "winning", "--pair", "PSO:hmPSO")
    assert code == 2 and "no aggregated rows for pair 'PSO:hmPSO'" in err
    assert not list(out.glob("winning_*"))


def test_report_centres_a_single_checkpoint(tmp_path, capsys):
    out = tmp_path / "store"
    run_cli(capsys, "run", str(write_plan(tmp_path)), "--out", str(out))
    assert run_cli(capsys, "report", str(out), "--plot", "winning", "--pair", "PSO:mPSO")[0] == 0
    svg = (out / "winning_PSO_mPSO.svg").read_text()
    assert svg.split('<polyline points="')[1].split('"')[0].split(",")[0] == "168.00"


def test_run_exits_1_when_out_is_a_file(tmp_path, capsys):
    (tmp_path / "f").write_text("")
    code, _, err = run_cli(capsys, "run", str(write_plan(tmp_path)), "--out", str(tmp_path / "f"))
    assert code == 1 and "File exists" in err
    assert (tmp_path / "f").read_text() == ""


@pytest.mark.parametrize("line", ["[1, 2]", '{"algorithm": "PSO"}', "7"])
def test_run_refuses_a_runs_jsonl_line_that_is_no_record(tmp_path, capsys, line):
    plan = write_plan(tmp_path, runs=2)
    out = tmp_path / "store"
    assert run_cli(capsys, "run", str(plan), "--out", str(out))[0] == 0
    lines = (out / "runs.jsonl").read_text().splitlines(keepends=True)
    lines[1] = line + "\n"
    (out / "runs.jsonl").write_text("".join(lines))
    code, _, err = run_cli(capsys, "run", str(plan), "--out", str(out))
    assert code == 2 and err == "error: runs.jsonl line 2 is not a run record\n"
    assert (out / "runs.jsonl").read_text() == "".join(lines)


def test_run_refuses_a_runs_jsonl_line_that_is_no_json(tmp_path, capsys):
    plan = write_plan(tmp_path, runs=2)
    out = tmp_path / "store"
    assert run_cli(capsys, "run", str(plan), "--out", str(out))[0] == 0
    lines = (out / "runs.jsonl").read_text().splitlines(keepends=True)
    lines[1] = lines[1][:20] + "\n"
    (out / "runs.jsonl").write_text("".join(lines))
    code, _, err = run_cli(capsys, "run", str(plan), "--out", str(out))
    assert code == 2 and err.startswith("error: runs.jsonl line 2 is not JSON: ")
    assert (out / "runs.jsonl").read_text() == "".join(lines)


def _with_checkpoints(line: str, checkpoints: str) -> str:
    """A runs.jsonl line with its checkpoints object replaced by the JSON text `checkpoints`."""
    head, tail = line.split('"checkpoints": {')
    return head + '"checkpoints": ' + checkpoints + tail.split("}", 1)[1]


@pytest.mark.parametrize("checkpoints, fault", [
    ("{}", "checkpoint 10 is missing"),
    ('{"10": "x"}', "checkpoint 10 is 'x', not a finite number"),
    ('{"10": "1.5"}', "checkpoint 10 is '1.5', not a finite number"),
    ('{"10": null}', "checkpoint 10 is None, not a finite number"),
    ('{"10": Infinity}', "checkpoint 10 is inf, not a finite number"),
    ('{"10": NaN}', "checkpoint 10 is nan, not a finite number"),
    ('{"10": 1' + "0" * 400 + "}", "checkpoint 10 is 1" + "0" * 400 + ", not a finite number"),
    ('{"10": true}', "checkpoint 10 is True, not a finite number"),
    ('{"10": 3.5, "20": 1.0}', "checkpoint '20' is not one of the plan's (10)"),
    ('[3.5]', "checkpoints [3.5] are not an object"),
])
def test_run_refuses_a_record_whose_checkpoints_are_not_the_plans(tmp_path, capsys, checkpoints, fault):
    # before, {} exited 1 with "error: '10'", "x" exited 2 naming no line,
    # null and Infinity failed later in the metrics, and true or an extra
    # checkpoint changed metrics.csv without a word
    plan = write_plan(tmp_path, runs=2)
    out = tmp_path / "store"
    assert run_cli(capsys, "run", str(plan), "--out", str(out))[0] == 0
    lines = (out / "runs.jsonl").read_text().splitlines(keepends=True)
    lines[1] = _with_checkpoints(lines[1], checkpoints)
    (out / "runs.jsonl").write_text("".join(lines))
    metrics = (out / "metrics.csv").read_bytes()
    code, _, err = run_cli(capsys, "run", str(plan), "--out", str(out))
    assert code == 2
    assert err == f"error: runs.jsonl record 2 (cell ('PSO', 'F27', 5, 1)): {fault}; refusing to resume\n"
    assert (out / "runs.jsonl").read_text() == "".join(lines) and (out / "metrics.csv").read_bytes() == metrics


@pytest.mark.parametrize("field, value, fault", [
    ("seed", "12345", "seed 12345 is not the cell's, {seed}"),
    ("seed", '"{seed}"', "seed '{seed}' is not the cell's, {seed}"),
    ("config_digest", '"{other}"', "config_digest '{other}' is not PSO's, '{digest}'"),
    ("status", '"failed"', "status 'failed' is neither 'ok' nor 'failed: <reason>'"),
    ("status", "null", "status None is neither 'ok' nor 'failed: <reason>'"),
])
def test_run_refuses_a_record_that_is_not_the_plans(tmp_path, capsys, field, value, fault):
    # `value` is the field's JSON text, {seed} and {digest} the cell's and
    # {other} mPSO's digest.  Before, a record with another seed, config
    # digest or status entered metrics.csv without a word
    plan = write_plan(tmp_path, runs=2)
    out = tmp_path / "store"
    assert run_cli(capsys, "run", str(plan), "--out", str(out))[0] == 0
    names = {"seed": harness.derive_seed(3, "PSO", "F27", 5, 1),
             "digest": algorithms.config_for_label("PSO", n=32).digest(),
             "other": algorithms.config_for_label("mPSO", n=32).digest()}
    lines = (out / "runs.jsonl").read_text().splitlines(keepends=True)
    lines[1] = json.dumps(json.loads(lines[1]) | {field: json.loads(value.format(**names))}, sort_keys=True) + "\n"
    (out / "runs.jsonl").write_text("".join(lines))
    metrics = (out / "metrics.csv").read_bytes()
    code, _, err = run_cli(capsys, "run", str(plan), "--out", str(out))
    assert code == 2
    assert err == f"error: runs.jsonl record 2 (cell ('PSO', 'F27', 5, 1)): {fault.format(**names)}; refusing to resume\n"
    assert (out / "runs.jsonl").read_text() == "".join(lines) and (out / "metrics.csv").read_bytes() == metrics


def test_run_takes_an_integer_checkpoint_value(tmp_path, capsys):
    # a JSON integer is a number: the record is kept and the value counts
    plan = write_plan(tmp_path, runs=2)
    out = tmp_path / "store"
    run_cli(capsys, "run", str(plan), "--out", str(out))
    lines = (out / "runs.jsonl").read_text().splitlines(keepends=True)
    lines[1] = _with_checkpoints(lines[1], '{"10": -1000}')
    (out / "runs.jsonl").write_text("".join(lines))
    (out / "metrics.csv").unlink()
    assert run_cli(capsys, "run", str(plan), "--out", str(out))[0] == 0
    assert (out / "runs.jsonl").read_text() == "".join(lines)
    records = [json.loads(line) for line in lines]
    a, b = ([rec["checkpoints"]["10"] for rec in records if rec["algorithm"] == alg] for alg in ("PSO", "mPSO"))
    assert a[1] == -1000
    rows = [line.split(",") for line in (out / "metrics.csv").read_text().splitlines()[1:]]
    assert {(row[2], row[5]): row[6] for row in rows}[("F27", "relative_error_orig")] == repr(relative_error(a, b)[0])


def test_run_exits_1_when_a_stack_returns_too_few_records(tmp_path, capsys, monkeypatch):
    # a fault of the program, not of the plan: before, the strict zip's
    # ValueError made this exit 2, as a usage error
    real_run = algorithms.run
    monkeypatch.setattr(algorithms, "run", lambda *args, **kwargs: real_run(*args, **kwargs)[:-1])
    out = tmp_path / "store"
    code, _, err = run_cli(capsys, "run", str(write_plan(tmp_path)), "--out", str(out))
    assert code == 1 and err == "error: the PSO stack at d=5 returned 1 records for its 2 cells\n"
    assert (out / "runs.jsonl").read_text() == ""


def test_run_exits_1_when_a_stack_raises_a_value_error(tmp_path, capsys, monkeypatch):
    # a fault of the program, not of the plan or the store: before, any
    # ValueError while a store filled exited 2, as a usage error
    def fault(*args, **kwargs):
        raise ValueError("a fault inside a stack")

    monkeypatch.setattr(algorithms, "run", fault)
    out = tmp_path / "store"
    code, _, err = run_cli(capsys, "run", str(write_plan(tmp_path)), "--out", str(out))
    assert code == 1 and err == "error: a fault inside a stack\n"
    assert (out / "runs.jsonl").read_text() == ""


def test_report_values_in_range(tmp_path, capsys):
    plan = write_plan(tmp_path, checkpoints=[5, 10])
    out = tmp_path / "store"
    run_cli(capsys, "run", str(plan), "--out", str(out))
    run_cli(capsys, "report", str(out), "--plot", "winning", "--pair", "PSO:mPSO")
    for line in (out / "winning_PSO_mPSO.csv").read_text().splitlines()[1:]:
        v = float(line.split(",")[4])
        assert 0.0 <= v <= 1.0


def test_sweep(tmp_path, capsys):
    plan = write_plan(tmp_path)
    out = tmp_path / "sweep"
    code, _, _ = run_cli(
        capsys, "sweep", str(plan), "--out", str(out), "--sigma", "0.005,0.01"
    )
    assert code == 0
    assert (out / "sigma0.005" / "metrics.csv").exists()
    assert (out / "sigma0.01" / "metrics.csv").exists()


def test_sweep_resumes_existing_stores(tmp_path, capsys, monkeypatch):
    plan = write_plan(tmp_path)
    out = tmp_path / "sweep"
    argv = ["sweep", str(plan), "--out", str(out), "--sigma", "0.005", "--tdf", "5"]
    assert run_cli(capsys, *argv)[0] == 0
    files = sorted(out.rglob("*"))
    before = {path: path.read_bytes() for path in files if path.is_file()}
    calls = []
    monkeypatch.setattr(algorithms, "run", lambda *a, **k: calls.append(a))
    assert run_cli(capsys, *argv)[0] == 0
    assert calls == []
    assert sorted(out.rglob("*")) == files
    assert {path: path.read_bytes() for path in before} == before
    # a changed plan is refused, as by `run`, and nothing is overwritten
    code, _, err = run_cli(capsys, *argv, "--runs", "2")
    assert code == 2 and "refusing to resume" in err
    assert calls == []
    assert {path: path.read_bytes() for path in before} == before


def test_sweep_tdf(tmp_path, capsys):
    plan = write_plan(tmp_path)
    out = tmp_path / "sweept"
    code, _, _ = run_cli(capsys, "sweep", str(plan), "--out", str(out), "--tdf", "5")
    assert code == 0
    manifest = json.loads((out / "tdf5" / "manifest.json").read_text())
    assert manifest["plan"]["noise"] == {"kind": "scaled_t", "df": 5}


def test_sweep_requires_values(tmp_path, capsys):
    plan = write_plan(tmp_path)
    code, _, err = run_cli(capsys, "sweep", str(plan), "--out", str(tmp_path / "x"))
    assert code == 2
    # unparsable or out-of-range noise settings: an error line, no store
    for flag, value in (("--sigma", "abc"), ("--sigma", "-1"), ("--tdf", "x"), ("--tdf", "2")):
        code, _, err = run_cli(capsys, "sweep", str(plan), "--out", str(tmp_path / "x"), flag, value)
        assert code == 2 and err.startswith("error:"), (flag, value)
        assert not (tmp_path / "x").exists()


def test_sweep_refuses_a_repeated_setting(tmp_path, capsys):
    # before, 0.005 and 5e-3 made two stores of one noise model
    plan = write_plan(tmp_path)
    for flags, message in ((("--sigma", "0.005,0.01,5e-3"), "sigma5e-3 repeats sigma0.005"),
                           (("--tdf", "5,05"), "tdf05 repeats tdf5"),
                           (("--sigma", "0.01", "--tdf", "3,3"), "tdf3 repeats tdf3")):
        code, out, err = run_cli(capsys, "sweep", str(plan), "--out", str(tmp_path / "x"), *flags)
        assert code == 2 and err == f"error: noise setting {message}\n" and out == "", flags
        assert not (tmp_path / "x").exists()


def test_report_places_checkpoint_zero_at_the_left_edge(tmp_path, capsys):
    # checkpoint 0 (the initial swarm) has no log; before, report died on
    # math.log(0) with a traceback
    plan = write_plan(tmp_path, checkpoints=[0, 5, 10])
    out = tmp_path / "store"
    assert run_cli(capsys, "run", str(plan), "--out", str(out))[0] == 0
    for kind in ("winning", "relerr"):
        code, _, err = run_cli(capsys, "report", str(out), "--plot", kind, "--pair", "PSO:mPSO")
        assert code == 0, err
    svg = (out / "winning_PSO_mPSO.svg").read_text()
    xs = [float(point.split(",")[0]) for point in svg.split('<polyline points="')[1].split('"')[0].split()]
    # 0 at the left edge, 5 and 10 at the ends of the log axis after the gap
    assert xs == [48.0, 72.0, 288.0]
    # the companion CSV keeps the t=0 rows verbatim from metrics.csv
    metric_lines = [line.split(",") for line in (out / "metrics.csv").read_text().splitlines()[1:]]
    agg = {p[4]: p[6] for p in metric_lines if p[2] == "ALL" and p[5] == "winning_proportion"}
    companion = (out / "winning_PSO_mPSO.csv").read_text().splitlines()[1:]
    assert [line.split(",")[2] for line in companion] == ["0", "5", "10"]
    assert all(line.split(",")[4] == agg[line.split(",")[2]] for line in companion)


def test_report_without_checkpoint_zero_keeps_its_layout(tmp_path, capsys):
    # a store without checkpoint 0 is drawn as before: the log axis spans
    # the whole plot, 48 to 288, each checkpoint at the x it always had
    plan = write_plan(tmp_path, checkpoints=[2, 5, 10])
    out = tmp_path / "store"
    run_cli(capsys, "run", str(plan), "--out", str(out))
    run_cli(capsys, "report", str(out), "--plot", "winning", "--pair", "PSO:mPSO")
    svg = (out / "winning_PSO_mPSO.svg").read_text()
    xs = svg.split('<polyline points="')[1].split('"')[0].split()
    assert [x.split(",")[0] for x in xs] == ["48.00", "184.64", "288.00"]


def test_run_refuses_a_name_that_would_break_metrics_csv(tmp_path, capsys):
    # metrics.csv writes the name unquoted: "a,b" gave 9-field rows under its
    # 8-column header, and report then found no rows
    for name in ("a,b", 'a"b', "a\nb", "a\rb"):
        write_plan(tmp_path, name=name)
        code, _, err = run_cli(capsys, "run", str(tmp_path / "plan.json"), "--out", str(tmp_path / "s"))
        assert code == 2 and err.startswith("error: invalid plan: name must not contain"), name
        assert not (tmp_path / "s").exists()
    write_plan(tmp_path, name=["x"])
    code, _, err = run_cli(capsys, "run", str(tmp_path / "plan.json"), "--out", str(tmp_path / "s"))
    assert code == 2 and err.startswith("error: invalid plan: name must be a string")
    assert not (tmp_path / "s").exists()
    write_plan(tmp_path, name="a b;c")
    assert run_cli(capsys, "run", str(tmp_path / "plan.json"), "--out", str(tmp_path / "s"))[0] == 0
    assert all(len(line.split(",")) == 8 for line in (tmp_path / "s" / "metrics.csv").read_text().splitlines())

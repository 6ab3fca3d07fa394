"""Smoke test of the benchmark harness at tiny sizes, in seconds rather than minutes."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_dronecell()

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from dronecell import User  # noqa: E402

TINY = {"solve_large": 12, "solve_rich": 10, "qos_sweep": 6, "mc_default": 2}
CONFIG = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture
def ctx(tmp_path: Path) -> workloads.Context:
    refs = json.loads(run.REFS.read_text(encoding="utf-8"))
    # The tiny solve pools have no recorded digests; case24 and the first
    # mc blocks are the real inputs, so their digests still apply.
    kept = {"case24": refs["case24"], "mc_default": refs["mc_default"]}
    return workloads.Context(src=run.SRC, workdir=tmp_path, refs=kept, sizes=TINY)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_untraced_run_is_correct_and_complete(ctx: workloads.Context, name: str) -> None:
    result, detail = run.run_workload(workloads.WORKLOADS[name], 3, 0.2, 0, ctx, setup_repeats=1, setup_seconds=0)
    assert detail["errors"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    assert [(k, m["unit"]) for k, m in result["metrics"].items()] == list(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert detail["tags"]["seed"] == 3 and detail["ungated"]["failed_frac"]["value"] == 0.0
    assert set(detail["ungated"]) <= {n for n, _ in run.UNGATED}


@pytest.mark.parametrize("name", ["solve_rich", "qos_sweep", "mc_default"])
def test_traced_run_reports_every_layer_metric(ctx: workloads.Context, name: str) -> None:
    result, detail = run.run_workload(workloads.WORKLOADS[name], 1, 0.2, 1, ctx)
    assert result["correct"] and detail["missing_hooks"] == []
    metrics = result["metrics"]
    assert [(k, m["unit"]) for k, m in metrics.items()] == [(n, u) for n, u, _ in spans.LAYER_METRICS]
    assert 0 < metrics["solver.select_users.share_of_solve"]["value"] < 1
    assert 0 < metrics["channel.share_of_solve"]["value"] < 1
    assert metrics["trace.ops"]["value"] >= 1 and metrics["solver.sets_scored"]["value"] > 0
    assert metrics["trace.overhead_ratio"]["value"] > 0
    generated = metrics["scenario.generate_scenario.calls"]["value"]
    assert (generated > 0) == (name == "mc_default")


def test_work_counters_find_maximal_sets_and_count_vectors() -> None:
    users = tuple(User(id=i, x=0.0, y=0.0, mvno_id=i % 2) for i in range(4))
    scenario = type("S", (), {"users": users, "num_mvnos": 2})()
    sets = [frozenset(s) for s in ({0, 1, 2}, {0, 1}, {3}, {2, 3}, {1})]
    counts = spans.work_counters([(7, scenario, s) for s in sets])
    # Maximal: {0,1,2} and {2,3}.  Vectors: (2,1), (1,1), (0,1), (1,1), (0,1).
    assert counts == {"solves": 1, "sets": 5, "maximal": 2, "vectors": 3}


def test_layer_times_subtract_direct_children() -> None:
    spans_ = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1], ["b", 5.0, 6.0, 0]]
    times = spans.layer_times(spans_)
    assert times["a"] == {"calls": 1, "time_s": 10.0, "self_s": 6.0}
    assert times["b"] == {"calls": 2, "time_s": 4.0, "self_s": 3.0}


def test_pooled_order_is_a_seeded_rotation(ctx: workloads.Context) -> None:
    assert workloads.rotated(4, 6) == [2, 3, 0, 1]
    size = workloads.POOL_SIZE
    ops = workloads.WORKLOADS["solve_rich"].ops(ctx, 5)
    names = [next(ops).input_path.name for _ in range(size + 1)]
    assert names[0] == "solve_rich-05.json" and names[size] == names[0]
    assert len(set(names)) == size


def test_per_input_weighs_each_input_once() -> None:
    a, b = workloads.Op("solve", Path("a.json"), Path("o1")), workloads.Op("solve", Path("b.json"), Path("o2"))
    records = [(a, 0.0, 0), (b, 0.0, 0), (a, 0.0, 0)]
    inputs = run.per_input(records, [1.0, 4.0, 3.0], [["qa1"], ["qb"], ["qa2"]])
    assert [(op.input_path.name, t, q) for op, t, q in inputs] == [("a.json", 2.0, ["qa1"]), ("b.json", 4.0, ["qb"])]


def test_mc_check_scores_the_reported_counts_with_the_program(ctx: workloads.Context) -> None:
    from dronecell.cli.main import main

    op, _, rc = run.call(main, next(workloads.WORKLOADS["mc_default"].ops(ctx, 0)))
    errors, quality = checks.check(op)
    assert rc == 0 and errors == [] and len(quality) == 12
    rows = op.out_path.read_text(encoding="utf-8").splitlines()
    cells = rows[1].split(",")
    cells[2], cells[4] = str(float(cells[2]) + 99), str(float(cells[4]) + 99)  # mean_total, tenant 0
    op.out_path.write_text("\n".join([rows[0], ",".join(cells), *rows[2:]]) + "\n", encoding="utf-8")
    assert any("fewer users" in e for e in checks.check(replace(op, digest=None))[0])


def test_checks_catch_a_wrong_solve_output(ctx: workloads.Context) -> None:
    from dronecell.cli.main import main

    op, _, rc = run.call(main, next(workloads.WORKLOADS["solve_rich"].ops(ctx, 1)))
    assert rc == 0 and checks.check(op)[0] == []
    header, row = op.out_path.read_text(encoding="utf-8").splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    tampered = dict(cells, objective=str(float(cells["objective"]) + 1))
    op.out_path.write_text(header + "\n" + ",".join(tampered.values()) + "\n", encoding="utf-8")
    assert any("objective" in e for e in checks.check(op)[0])
    assert checks.check(replace(op, digest="0" * 64))[0]  # digest mismatch


def test_benchmark_json_matches_the_harness() -> None:
    assert set(CONFIG) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert CONFIG["paths"] == [BENCH.name] and CONFIG["command"][1].startswith(BENCH.name + "/")
    assert [(w["name"], w["why"]) for w in CONFIG["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()
    ]
    assert [(m["name"], m["unit"]) for m in CONFIG["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in CONFIG["per_layer"]] == list(spans.LAYER_METRICS)
    bounds = {m["name"]: m["bound"] for m in CONFIG["end_to_end"]}
    assert max(bounds.values()) <= 0.25 and bounds["setup_s"] == max(bounds.values())


def test_run_fails_outside_a_checkout(tmp_path: Path) -> None:
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, *CONFIG["command"][1:], "--workload", "qos_sweep", "--seed", "1"]
    proc = subprocess.run(
        cmd + ["--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

"""Output checks for benchmark operations, run after timing ends.

A ``solve`` CSV must:

- match its recorded SHA-256 digest, where one exists;
- serve only users inside the coverage set at the CSV placement, within
  ``BOUNDARY_TOLERANCE_DB`` (the CSV rounds the placement to 6 significant
  digits, which can move a user that sits on the disk boundary by a hair);
- spend no more resource demand than the capacity;
- report the objective, its terms and the per-tenant counts that
  ``objective_value`` and ``mvno_counts`` give when recomputed.

An ``mc`` CSV (a one-run block) must match its digest, report ``runs`` 1 and
``std_total`` 0, and have per-tenant means that add up to ``mean_total``;
single-tenancy rows serve only tenant 0.  The CSV reports counts, not the
objective, so the check regenerates the block's layout and scores, with
``objective_value``, an assignment that serves the reported count of each
tenant's users.  The workload's profile has no energy or content terms, so
the objective depends only on those counts and any such assignment scores
what the solve scored.

Each check also returns the quality of the result: served users per solve and
the objective gained over serving nobody, ``objective - objective(empty)``.
The raw objective is negative under the default even-split targets, and a
relative bound cannot judge a negative number, so the benchmark reports the
gain, which orders the solutions of one scenario exactly as the objective
does.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
from fractions import Fraction
from typing import Any

from dronecell import (
    ENVIRONMENTS,
    SINGLE_TENANCY,
    covered_set,
    generate_scenario,
    mvno_counts,
    objective_value,
    path_loss,
)
from dronecell.cli.files import load_experiment_config, load_scenario
from dronecell.experiment import policy_scenario
from dronecell.scenario import Assignment, Scenario, assignment_from_ids

from workloads import Op

BOUNDARY_TOLERANCE_DB = 0.01


def _fmt(value: float) -> str:
    return format(value, ".6g")


def _rows(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def check(op: Op) -> tuple[list[str], list[tuple[float, float]]]:
    """Errors found in the op's output, and (served, objective gain) per solve."""
    try:
        data = op.out_path.read_bytes()
    except OSError as exc:
        return [f"{op.out_path.name}: no output ({exc.strerror})"], []
    errors = []
    if op.digest is not None and hashlib.sha256(data).hexdigest() != op.digest:
        errors.append(f"{op.input_path.name}: CSV digest differs from the recorded reference")
    text = data.decode("utf-8")
    try:
        if op.kind == "solve":
            more, quality = _check_solve(op, _rows(text))
        else:
            more, quality = _check_mc(op, _rows(text))
    except (KeyError, ValueError, IndexError) as exc:
        return errors + [f"{op.input_path.name}: malformed CSV ({exc!r})"], []
    return errors + more, quality


def _check_solve(op: Op, rows: list[dict[str, str]]) -> tuple[list[str], list[tuple[float, float]]]:
    name = op.input_path.name
    if len(rows) != 1:
        return [f"{name}: expected one result row, got {len(rows)}"], []
    row = rows[0]
    scenario = load_scenario(op.input_path)
    errors = []
    x, y, h = float(row["x_m"]), float(row["y_m"]), float(row["h_m"])
    ids = [int(t) for t in row["served_ids"].split(";") if t]
    covered = covered_set(scenario, (x, y, h))
    for uid in ids:
        if uid in covered:
            continue
        u = scenario.user_by_id(uid)
        loss = path_loss(h, math.hypot(u.x - x, u.y - y), scenario.environment, scenario.channel)
        if loss > u.max_path_loss_db + BOUNDARY_TOLERANCE_DB:
            errors.append(f"{name}: user {uid} served but not covered ({loss:.4f} dB)")
    served = set(ids)
    demand = sum(
        (Fraction(u.resource_demand) for u in scenario.users if u.id in served), Fraction(0)
    )
    if demand > Fraction(scenario.capacity):
        errors.append(f"{name}: served demand {float(demand)} exceeds capacity {scenario.capacity}")
    assignment = assignment_from_ids(scenario, ids)
    obj, terms = objective_value(scenario, assignment)
    expected = {
        "objective": _fmt(obj),
        "served": _fmt(terms.served),
        "tenancy_gap": _fmt(terms.tenancy_gap),
        "energy_reward": _fmt(terms.energy_reward),
        "content_reward": _fmt(terms.content_reward),
    }
    expected.update(
        (f"count_{j}", str(c)) for j, c in enumerate(mvno_counts(scenario, assignment))
    )
    for key, want in expected.items():
        if row[key] != want:
            errors.append(f"{name}: {key} is {row[key]}, recomputed {want}")
    empty, _ = objective_value(scenario, Assignment((0,) * len(scenario.users)))
    return errors, [(float(len(ids)), obj - empty)]


def _gain_at_counts(scenario: Scenario, counts: list[int]) -> float | None:
    """Objective gain of serving the first ``counts[j]`` users of each tenant j.

    None when a tenant has fewer users than its count.
    """
    left = list(counts)
    served = []
    for u in scenario.users:
        take = left[u.mvno_id] > 0
        left[u.mvno_id] -= take
        served.append(int(take))
    if any(left):
        return None
    obj, _ = objective_value(scenario, Assignment(tuple(served)))
    empty, _ = objective_value(scenario, Assignment((0,) * len(scenario.users)))
    return obj - empty


def _check_mc(op: Op, rows: list[dict[str, str]]) -> tuple[list[str], list[tuple[float, float]]]:
    name = op.input_path.name
    config = load_experiment_config(op.input_path)
    expected_rows = len(config.environments) * len(config.policies)
    errors = []
    weights = config.profile.weights
    if weights.w3 or weights.w4:
        errors.append(f"{name}: counts cannot fix the objective with energy or content terms")
    if config.n_runs != 1:
        errors.append(f"{name}: a block must hold one run, not {config.n_runs}")
    if len(rows) != expected_rows:
        errors.append(f"{name}: expected {expected_rows} rows, got {len(rows)}")
    layouts: dict[str, Scenario] = {}
    quality = []
    for row in rows:
        counts = [float(row[f"mean_per_mvno_{j}"]) for j in range(config.num_mvnos)]
        total = float(row["mean_total"])
        env = row["environment"]
        where = f"{name} {env}/{row['policy']}"
        if row["runs"] != "1" or float(row["std_total"]) != 0.0:
            errors.append(f"{where}: a one-run block must report runs 1 and std_total 0")
        if sum(counts) != total or any(c != int(c) for c in counts):
            errors.append(f"{where}: per-tenant means {counts} are not whole counts adding up to {total}")
            continue
        if row["policy"] == SINGLE_TENANCY and any(counts[1:]):
            errors.append(f"{where}: single tenancy served another tenant")
        if env not in layouts:
            layouts[env] = generate_scenario(
                config.seed,
                config.n_users,
                config.num_mvnos,
                ENVIRONMENTS[env],
                field_size_m=config.field_size_m,
                profile=config.profile,
            )
        gain = _gain_at_counts(policy_scenario(layouts[env], row["policy"]), [int(c) for c in counts])
        if gain is None:
            errors.append(f"{where}: a tenant has fewer users than its reported count")
            continue
        quality.append((total, gain))
    return errors, quality

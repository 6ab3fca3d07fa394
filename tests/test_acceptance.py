"""Acceptance gate: the seven headline behaviors of the placement engine.

Each test prints one "[ACCEPTANCE] criterion N: PASS/FAIL ..." line; the
lines are repeated in the terminal summary.
"""

import itertools
import random
import time

import pytest

from dronecell.channel import ENVIRONMENTS, ChannelConfig, coverage_radius, path_loss
from dronecell.cli.report import mc_csv, solve_csv
from dronecell.experiment import (
    MULTI_TENANCY_DMF,
    MULTI_TENANCY_NO_FAIRNESS,
    SINGLE_TENANCY,
    ExperimentConfig,
    run_experiment,
    run_policy,
)
from dronecell.cli.files import dumps, scenario_to_dict
from dronecell.fixtures import load_case24
from dronecell.scenario import (
    ObjectiveWeights,
    PlacementRegion,
    Scenario,
    User,
    assignment_from_ids,
    even_targets,
    generate_scenario,
)
from dronecell.solver import brute_force, objective_value, select_users, solve

URBAN = ENVIRONMENTS["urban"]
CFG = ChannelConfig()


@pytest.fixture(scope="module")
def default_mc():
    start = time.perf_counter()
    summary = run_experiment(ExperimentConfig())
    return summary, time.perf_counter() - start


def test_criterion_1_multi_tenancy_gain(default_mc, acceptance):
    summary, elapsed = default_mc
    ratios = {}
    for env in summary.config.environments:
        single = summary.row(env, SINGLE_TENANCY).mean_total
        shared = summary.row(env, MULTI_TENANCY_NO_FAIRNESS).mean_total
        ratios[env] = shared / single
    in_band = all(1.3 <= r <= 1.8 for r in ratios.values())
    fast = elapsed < 60.0
    detail = (
        "ratios "
        + " ".join(f"{e}={r:.3f}" for e, r in ratios.items())
        + f" (band [1.3, 1.8]), runtime {elapsed:.1f}s (< 60s)"
    )
    assert acceptance(1, in_band and fast, detail), detail


def test_criterion_2_first_tenant_sacrifice(default_mc, acceptance):
    summary, _ = default_mc
    diffs = {}
    for env in summary.config.environments:
        single = summary.row(env, SINGLE_TENANCY).mean_total
        dmf_first = summary.row(env, MULTI_TENANCY_DMF).mean_per_mvno[0]
        diffs[env] = single - dmf_first
    ok = all(0.0 <= d <= 3.0 for d in diffs.values())
    detail = (
        "single minus shared-fair first-tenant mean "
        + " ".join(f"{e}={d:.3f}" for e, d in diffs.items())
        + " (band [0, 3])"
    )
    assert acceptance(2, ok, detail), detail


def test_criterion_3_fairness_balances_fixture(acceptance):
    scenario = load_case24()
    fair = run_policy(scenario, MULTI_TENANCY_DMF)
    free = run_policy(scenario, MULTI_TENANCY_NO_FAIRNESS)
    gap = abs(fair.mvno_counts[0] - fair.mvno_counts[1])
    ok = gap <= 1 and fair.total_served == free.total_served
    detail = (
        f"counts {fair.mvno_counts} (gap {gap} <= 1), "
        f"total {fair.total_served} == unpenalized total {free.total_served}"
    )
    assert acceptance(3, ok, detail), detail


def _oracle_instance(seed: int) -> Scenario:
    # Small mixed-weight instances; energy costs are exact binary fractions
    # so objective sums carry no rounding.
    rng = random.Random(seed)
    n = rng.randint(1, 12)
    users = tuple(
        User(
            id=i,
            x=rng.uniform(-300.0, 300.0),
            y=rng.uniform(-300.0, 300.0),
            mvno_id=rng.randrange(2),
            max_path_loss_db=100.0,
            energy_cost=rng.randint(0, 4) / 8.0,
            content_request=rng.random() < 0.3,
            resource_demand=float(rng.randint(1, 2)),
        )
        for i in range(n)
    )
    weights = ObjectiveWeights(
        w1=1.0,
        w2=rng.choice([0.0, 0.5, 1.0, 2.0]),
        w3=rng.choice([0.0, 0.25, 0.5]),
        w4=rng.choice([0.0, 0.25, 1.0]),
        norm=rng.choice(["L1", "L2"]),
    )
    return Scenario(
        users=users,
        num_mvnos=2,
        targets=even_targets(n, 2),
        weights=weights,
        capacity=float(rng.randint(3, 14)),
        region=PlacementRegion((-300.0, 300.0), (-300.0, 300.0), (20.0, 80.0)),
        environment=URBAN,
        channel=ChannelConfig(),
    )


def test_criterion_4_oracle_equivalence(acceptance):
    start = time.perf_counter()
    worst_deficit = 0.0
    worst_slack = 0.0
    ok = True
    for seed in range(25):
        scenario = _oracle_instance(900 + seed)
        got = solve(scenario)
        want = brute_force(scenario, 10.0, 10.0)
        w = scenario.weights
        one_user = max(
            w.w1 + w.w2 + w.w3 * u.energy_cost + w.w4 * float(u.content_request)
            for u in scenario.users
        )
        deficit = want.objective - got.objective  # > 0 means solve lost to grid
        slack = got.objective - want.objective  # grid quantization shortfall
        worst_deficit = max(worst_deficit, deficit)
        worst_slack = max(worst_slack, slack)
        if deficit > 1e-9 or slack > one_user + 1e-9:
            ok = False
    elapsed = time.perf_counter() - start
    fast = elapsed < 120.0
    detail = (
        f"25 instances, max oracle-over-solve {worst_deficit:.3g} (<= 0), "
        f"max solve-over-oracle {worst_slack:.3g} (<= one user's terms), "
        f"runtime {elapsed:.1f}s (< 120s)"
    )
    assert acceptance(4, ok and fast, detail), detail


def _selection_instance(seed: int) -> tuple[Scenario, set[int]]:
    rng = random.Random(seed)
    n = rng.choice([4, 5, 6, 7, 8, 9, 10, 11, 12, 14, 15])
    j = rng.choice([1, 2, 2, 3])
    users = tuple(
        User(
            id=i,
            x=0.0,
            y=0.0,
            mvno_id=rng.randrange(j),
            energy_cost=rng.randint(0, 8) / 8.0,
            content_request=rng.random() < 0.4,
            resource_demand=float(rng.randint(1, 3)),
        )
        for i in range(n)
    )
    weights = ObjectiveWeights(
        w1=rng.choice([0.0, 1.0, 2.0]),
        w2=rng.choice([0.0, 0.5, 1.0]),
        w3=rng.choice([0.0, 0.25, 1.0]),
        w4=rng.choice([0.0, 0.5]),
        norm=rng.choice(["L1", "L2"]),
    )
    targets = tuple(rng.randint(0, 4) for _ in range(j))
    scenario = Scenario(
        users=users,
        num_mvnos=j,
        targets=targets,
        weights=weights,
        capacity=float(rng.randint(2, 2 * n)),
        region=PlacementRegion((-100.0, 100.0), (-100.0, 100.0), (20.0, 80.0)),
        environment=URBAN,
        channel=ChannelConfig(),
    )
    eligible = {i for i in range(n) if rng.random() < 0.8}
    return scenario, eligible


def test_criterion_5_selection_exactness(acceptance):
    mismatches = 0
    for seed in range(100):
        scenario, eligible = _selection_instance(3000 + seed)
        picked = select_users(scenario, eligible)
        got_obj, _ = objective_value(scenario, picked)
        best_obj = None
        ids = sorted(eligible)
        for r in range(len(ids) + 1):
            for combo in itertools.combinations(ids, r):
                demand = sum(scenario.user_by_id(i).resource_demand for i in combo)
                if demand > scenario.capacity:
                    continue
                obj, _ = objective_value(scenario, assignment_from_ids(scenario, combo))
                if best_obj is None or obj > best_obj:
                    best_obj = obj
        if got_obj != best_obj:
            mismatches += 1
    ok = mismatches == 0
    detail = f"100 eligible sets (|E| <= 15), objective mismatches {mismatches} (== 0)"
    assert acceptance(5, ok, detail), detail


def test_criterion_6_channel_properties(acceptance):
    problems = []
    # Path loss strictly increasing in ground distance.
    for name, env in ENVIRONMENTS.items():
        for h in (50.0, 100.0, 500.0):
            losses = [path_loss(h, r, env, CFG) for r in range(0, 5001, 25)]
            if any(b <= a for a, b in zip(losses, losses[1:])):
                problems.append(f"{name}: loss not strictly increasing at h={h}")
    # Coverage radius vs altitude: unimodal, interior peak for urban defaults.
    slack = 0.25
    hs = [float(h) for h in range(25, 3001, 25)]
    radii = [coverage_radius(h, 100.0, URBAN, CFG) for h in hs]
    peak = max(range(len(radii)), key=lambda i: radii[i])
    if not (0 < peak < len(radii) - 1):
        problems.append("urban radius peak not interior on [25, 3000]")
    if any(radii[i + 1] < radii[i] - slack for i in range(peak)):
        problems.append("urban radius not rising before peak")
    if any(radii[i + 1] > radii[i] + slack for i in range(peak, len(radii) - 1)):
        problems.append("urban radius not falling after peak")
    # Bisection lands within 0.01 dB of the threshold.
    worst_gap = 0.0
    for name, env in ENVIRONMENTS.items():
        for h in (20.0, 50.0, 100.0, 300.0, 1000.0, 2500.0):
            r = coverage_radius(h, 100.0, env, CFG)
            if r > 0.0:
                gap = abs(path_loss(h, r, env, CFG) - 100.0)
                worst_gap = max(worst_gap, gap)
                if gap > 0.01:
                    problems.append(f"{name}: boundary gap {gap:.4f} dB at h={h}")
    ok = not problems
    detail = (
        f"monotone loss grids, interior urban peak at h={hs[peak]:.0f} m, "
        f"worst boundary gap {worst_gap:.4f} dB (<= 0.01)"
        + ("" if ok else "; " + "; ".join(problems))
    )
    assert acceptance(6, ok, detail), detail


def test_criterion_7_determinism(acceptance):
    problems = []
    sc = generate_scenario(2024, 16, 2, URBAN)
    if generate_scenario(2024, 16, 2, URBAN) != sc:
        problems.append("generator not reproducible")
    if dumps(scenario_to_dict(sc)) != dumps(scenario_to_dict(sc)):
        problems.append("scenario serialization not byte-stable")
    fixture = load_case24()
    for scenario in (sc, fixture):
        first, second = solve(scenario), solve(scenario)
        if first != second:
            problems.append("solve results differ between runs")
        if solve_csv(scenario, first) != solve_csv(scenario, second):
            problems.append("solve CSV not byte-stable")
    config = ExperimentConfig(n_runs=2, n_users=6, environments=("urban",))
    if mc_csv(run_experiment(config)) != mc_csv(run_experiment(config)):
        problems.append("Monte Carlo CSV not byte-stable")
    ok = not problems
    detail = (
        "byte-identical scenario files, equal solve results, byte-identical CSVs"
        if ok
        else "; ".join(problems)
    )
    assert acceptance(7, ok, detail), detail

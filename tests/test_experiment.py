"""Monte Carlo harness: policies, per-run mapping, and summary math."""

import numpy as np
import pytest

from dronecell import experiment, solver
from dronecell.channel import ENVIRONMENTS
from dronecell.experiment import (
    MULTI_TENANCY_DMF,
    MULTI_TENANCY_NO_FAIRNESS,
    POLICIES,
    SINGLE_TENANCY,
    ExperimentConfig,
    ExperimentError,
    SummaryRow,
    policy_scenario,
    run_experiment,
    run_policy,
)
from dronecell.fixtures import load_case24
from dronecell.scenario import (
    L2,
    MAX_COUNT,
    ObjectiveWeights,
    ScenarioProfile,
    generate_scenario,
    mvno_counts,
)

URBAN = ENVIRONMENTS["urban"]


def test_policy_scenario_definitions():
    sc = generate_scenario(5, 12, 3, URBAN)
    single = policy_scenario(sc, SINGLE_TENANCY)
    assert all(u.mvno_id == 0 for u in single.users)
    assert single.weights.w2 == 0.0
    assert single.num_mvnos == sc.num_mvnos
    nofair = policy_scenario(sc, MULTI_TENANCY_NO_FAIRNESS)
    assert nofair.users == sc.users
    assert nofair.weights.w2 == 0.0
    assert policy_scenario(sc, MULTI_TENANCY_DMF) is sc
    with pytest.raises(ValueError, match="^unknown policy: 'round_robin'$"):
        policy_scenario(sc, "round_robin")


def test_an_unknown_policy_is_measured_not_echoed():
    # A 3,000-character policy name was printed whole through the Python API.
    with pytest.raises(ValueError) as info:
        policy_scenario(generate_scenario(5, 4, 2, URBAN), "x" * 3000)
    assert str(info.value) == "unknown policy: <3,000 characters>"


def test_run_policy_maps_assignment_onto_full_user_list():
    sc = load_case24()
    for policy in POLICIES:
        result = run_policy(sc, policy)
        assert len(result.assignment.served) == len(sc.users)
        assert result.mvno_counts == mvno_counts(sc, result.assignment)
    single = run_policy(sc, SINGLE_TENANCY)
    served = single.assignment.served_ids(sc)
    assert all(sc.user_by_id(i).mvno_id == 0 for i in served)


def test_run_policy_case24_reference_values():
    sc = load_case24()
    dmf = run_policy(sc, MULTI_TENANCY_DMF)
    assert dmf.mvno_counts == (5, 5)
    assert dmf.total_served == 10
    nofair = run_policy(sc, MULTI_TENANCY_NO_FAIRNESS)
    assert nofair.total_served == 10
    single = run_policy(sc, SINGLE_TENANCY)
    assert single.assignment.served_ids(sc) == (2, 4, 5, 8, 10, 23)


def test_policies_agree_for_one_tenant():
    # With a single tenant there is nothing to trade off between tenants.
    for seed in (11, 12, 13):
        sc = generate_scenario(seed, 10, 1, URBAN)
        totals = {p: run_policy(sc, p).total_served for p in POLICIES}
        assert len(set(totals.values())) == 1


def test_per_run_policy_dominance():
    # Unconstrained sharing serves at least as many users as single tenancy,
    # and adding the fairness penalty can only cost coverage.
    for seed in (1001, 1002, 1003, 1004, 1005):
        sc = generate_scenario(seed, 14, 2, URBAN)
        single = run_policy(sc, SINGLE_TENANCY).total_served
        nofair = run_policy(sc, MULTI_TENANCY_NO_FAIRNESS).total_served
        dmf = run_policy(sc, MULTI_TENANCY_DMF).total_served
        assert nofair >= single
        assert nofair >= dmf


def test_run_experiment_matches_direct_runs():
    config = ExperimentConfig(n_runs=3, n_users=10, environments=("urban",), seed=900)
    summary = run_experiment(config)
    for policy in POLICIES:
        totals = []
        counts = []
        for run in range(config.n_runs):
            sc = generate_scenario(
                config.seed + run,
                config.n_users,
                config.num_mvnos,
                URBAN,
                field_size_m=config.field_size_m,
                profile=config.profile,
            )
            result = run_policy(sc, policy)
            totals.append(result.total_served)
            counts.append(result.mvno_counts)
        row = summary.row("urban", policy)
        assert row.mean_total == float(np.mean(totals))
        assert row.std_total == float(np.std(totals))
        assert row.mean_per_mvno == tuple(np.asarray(counts, float).mean(axis=0))
        assert row.runs == config.n_runs


@pytest.mark.parametrize(
    "num_mvnos, weights, capacity",
    [
        (1, ObjectiveWeights(1.0, 2.0, 0.5, 0.5, L2), 4.0),
        (3, ObjectiveWeights(1.0, 0.5, 0.5, 0.0), None),
        (4, ObjectiveWeights(0.5, 1.5, 0.0, 1.0, L2), 5.0),
    ],
)
def test_run_experiment_matches_a_summary_of_per_policy_solves(num_mvnos, weights, capacity):
    # The policies of one layout share a coverage stage whose classes are
    # finer than single tenancy's and no fairness's; each summed back to its
    # own classes must give the counts a solve() of its own gives.
    profile = ScenarioProfile(
        energy_cost_range=(0.0, 1.0), content_probability=0.5, capacity=capacity, weights=weights
    )
    config = ExperimentConfig(
        n_runs=3, n_users=18, num_mvnos=num_mvnos, seed=77,
        environments=("suburban", "highrise_urban"), profile=profile,
    )
    rows = []
    for env in config.environments:
        counts = {p: [] for p in POLICIES}
        for run in range(config.n_runs):
            sc = generate_scenario(
                config.seed + run, config.n_users, num_mvnos, ENVIRONMENTS[env],
                field_size_m=config.field_size_m, profile=profile,
            )
            for p in POLICIES:
                counts[p].append(solver.solve(policy_scenario(sc, p)).mvno_counts)
        for p in POLICIES:
            m = np.asarray(counts[p], dtype=float)
            t = m.sum(axis=1)
            per_mvno = tuple(float(v) for v in m.mean(axis=0))
            rows.append(SummaryRow(env, p, float(t.mean()), float(t.std()), per_mvno, config.n_runs))
    assert run_experiment(config).rows == tuple(rows)


def test_run_experiment_is_deterministic():
    config = ExperimentConfig(n_runs=2, n_users=8, environments=("suburban", "urban"))
    assert run_experiment(config) == run_experiment(config)


def test_summary_row_lookup():
    config = ExperimentConfig(n_runs=1, n_users=6, environments=("urban",))
    summary = run_experiment(config)
    assert len(summary.rows) == len(POLICIES)
    assert summary.row("urban", SINGLE_TENANCY).policy == SINGLE_TENANCY
    with pytest.raises(KeyError):
        summary.row("urban", "round_robin")
    with pytest.raises(KeyError):
        summary.row("rural", SINGLE_TENANCY)


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(n_runs=0)
    with pytest.raises(ValueError):
        ExperimentConfig(policies=())
    with pytest.raises(ValueError):
        ExperimentConfig(policies=("round_robin",))
    with pytest.raises(ValueError):
        ExperimentConfig(environments=("rural",))
    with pytest.raises(ValueError, match="environments must be non-empty"):
        ExperimentConfig(environments=())
    with pytest.raises(ValueError, match=f"n_runs must be at most {MAX_COUNT}"):
        ExperimentConfig(n_runs=MAX_COUNT + 1)
    assert ExperimentConfig(n_runs=MAX_COUNT).n_runs == MAX_COUNT
    # Tenancy-fair selection has no tenant ceiling.
    assert ExperimentConfig(num_mvnos=4).num_mvnos == 4


def test_config_rejects_a_repeated_environment_or_policy():
    # A repeat would be solved again and summarized in a second, identical row.
    with pytest.raises(ValueError, match=r"^repeated environments: \['urban'\]$"):
        ExperimentConfig(environments=("urban", "suburban", "urban", "urban"))
    with pytest.raises(ValueError, match=r"^repeated policies: \['multi_tenancy_dmf'\]$"):
        ExperimentConfig(environments=("urban",), policies=(MULTI_TENANCY_DMF, MULTI_TENANCY_DMF))


@pytest.mark.parametrize("num_mvnos, stages", [(1, 3), (2, 6), (3, 6)])
def test_policies_with_the_same_users_share_one_coverage_stage(monkeypatch, num_mvnos, stages):
    # Both multi-tenancy policies keep every user; with one tenant so does
    # single tenancy.  Each run makes one stage per distinct user set.
    coverage = solver._coverage
    calls = []
    monkeypatch.setattr(solver, "_coverage", lambda *a: calls.append(a) or coverage(*a))
    config = ExperimentConfig(n_runs=3, n_users=12, num_mvnos=num_mvnos, environments=("urban",))
    run_experiment(config)
    assert len(calls) == stages


def test_solver_failures_carry_run_context():
    profile = ScenarioProfile(targets=(4,))  # one target for two tenants
    config = ExperimentConfig(
        n_runs=1, n_users=4, environments=("urban",), profile=profile
    )
    with pytest.raises(ExperimentError, match=r"run 0 \(urban,"):
        run_experiment(config)


def test_an_oversized_run_is_an_input_error_that_names_its_run(monkeypatch):
    monkeypatch.setattr(solver, "MAX_SEARCH_POINTS", 100)
    config = ExperimentConfig(n_runs=2, n_users=12, environments=("urban",))
    with pytest.raises(ExperimentError, match=r"run 0 \(urban, single_tenancy\): .*ceiling") as info:
        run_experiment(config)
    assert isinstance(info.value, ValueError)
    assert isinstance(info.value.__cause__, solver.ResourceGuardError)


def test_a_solver_failure_inside_a_run_carries_its_run_and_policy(monkeypatch):
    # A valid config whose every solve fails: the first run's first policy
    # raises, wrapped as an internal error (not a ValueError) with its context.
    def failing(scenario, shared=None):
        raise RuntimeError("boom")

    monkeypatch.setattr(experiment, "solve", failing)
    config = ExperimentConfig(n_runs=2, n_users=4, environments=("urban",))
    with pytest.raises(ExperimentError, match=r"run 0 \(urban, single_tenancy\): boom") as info:
        run_experiment(config)
    assert not isinstance(info.value, ValueError)

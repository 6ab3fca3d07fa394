"""Monte Carlo harness: policies, per-run mapping, and summary math."""

import numpy as np
import pytest

from dronecell import experiment
from dronecell.channel import ENVIRONMENTS
from dronecell.experiment import (
    MULTI_TENANCY_DMF,
    MULTI_TENANCY_NO_FAIRNESS,
    POLICIES,
    SINGLE_TENANCY,
    ExperimentConfig,
    ExperimentError,
    policy_scenario,
    run_experiment,
    run_policy,
)
from dronecell.fixtures import load_case24
from dronecell.scenario import ObjectiveWeights, ScenarioProfile, generate_scenario, mvno_counts
from dronecell.solver import UnsupportedConfigurationError

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
    with pytest.raises(ValueError):
        policy_scenario(sc, "round_robin")


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
    # Tenancy-fair selection is exact only up to 3 MVNOs: a config that would
    # need it with 4 fails before any run, not inside one.
    with pytest.raises(UnsupportedConfigurationError, match="up to 3 MVNOs"):
        ExperimentConfig(num_mvnos=4)
    ExperimentConfig(num_mvnos=4, policies=(SINGLE_TENANCY, MULTI_TENANCY_NO_FAIRNESS))
    ExperimentConfig(num_mvnos=4, profile=ScenarioProfile(weights=ObjectiveWeights(1.0, 0.0)))


def test_solver_failures_carry_run_context():
    profile = ScenarioProfile(h_bounds=(0.0, 0.0))
    config = ExperimentConfig(
        n_runs=1, n_users=4, environments=("urban",), profile=profile
    )
    with pytest.raises(ExperimentError, match=r"run 0 \(urban,"):
        run_experiment(config)


def test_a_solver_failure_inside_a_run_carries_its_run_and_policy(monkeypatch):
    # A valid config whose every solve fails: the first run's first policy
    # raises, wrapped as an internal error (not a ValueError) with its context.
    def failing(scenario):
        raise RuntimeError("boom")

    monkeypatch.setattr(experiment, "solve", failing)
    config = ExperimentConfig(n_runs=2, n_users=4, environments=("urban",))
    with pytest.raises(ExperimentError, match=r"run 0 \(urban, single_tenancy\): boom") as info:
        run_experiment(config)
    assert not isinstance(info.value, ValueError)

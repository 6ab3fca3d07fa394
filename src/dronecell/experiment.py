"""Seeded Monte Carlo comparison of tenancy policies across environments.

Each run draws one random user layout per (seed + run_index) and solves it
under every requested policy, so policies are compared on identical
geometry.  Summaries aggregate the total and per-MVNO served counts per
(environment, policy) pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .channel import ENVIRONMENTS
from .scenario import Scenario, ScenarioProfile, assignment_from_ids, generate_scenario, validate
from .solver import SolveResult, check_tenancy, solve

SINGLE_TENANCY = "single_tenancy"
MULTI_TENANCY_NO_FAIRNESS = "multi_tenancy_no_fairness"
MULTI_TENANCY_DMF = "multi_tenancy_dmf"
POLICIES = (SINGLE_TENANCY, MULTI_TENANCY_NO_FAIRNESS, MULTI_TENANCY_DMF)

DEFAULT_SEED = 31415
DEFAULT_ENVIRONMENT_NAMES = ("suburban", "urban", "dense_urban", "highrise_urban")


class ExperimentError(RuntimeError):
    """A solver failure inside the harness, annotated with its run."""


class _InvalidRunError(ExperimentError, ValueError):
    """A run whose generated scenario fails ``validate``: an input error."""


@dataclass(frozen=True)
class ExperimentConfig:
    n_runs: int = 100
    n_users: int = 30
    num_mvnos: int = 2
    seed: int = DEFAULT_SEED
    environments: tuple[str, ...] = DEFAULT_ENVIRONMENT_NAMES
    policies: tuple[str, ...] = POLICIES
    field_size_m: float = 2000.0
    profile: ScenarioProfile = field(default_factory=ScenarioProfile)

    def __post_init__(self) -> None:
        if self.n_runs < 1:
            raise ValueError("n_runs must be at least 1")
        if not 0 < self.field_size_m < math.inf:
            raise ValueError(f"field_size_m must be finite and positive, got {self.field_size_m}")
        if not self.policies:
            raise ValueError("policies must be non-empty")
        unknown = [p for p in self.policies if p not in POLICIES]
        if unknown:
            raise ValueError(f"unknown policies: {unknown}")
        if not self.environments:
            raise ValueError("environments must be non-empty")
        missing = [e for e in self.environments if e not in ENVIRONMENTS]
        if missing:
            raise ValueError(f"unknown environments: {missing}")
        if MULTI_TENANCY_DMF in self.policies:
            # The one policy that keeps w2; rejected here rather than in a run.
            check_tenancy(self.num_mvnos, self.profile.weights)


def default_experiment_config() -> ExperimentConfig:
    return ExperimentConfig()


@dataclass(frozen=True)
class SummaryRow:
    environment: str
    policy: str
    mean_total: float
    std_total: float
    mean_per_mvno: tuple[float, ...]
    runs: int


@dataclass(frozen=True)
class ExperimentSummary:
    config: ExperimentConfig
    rows: tuple[SummaryRow, ...]

    def row(self, environment: str, policy: str) -> SummaryRow:
        for r in self.rows:
            if r.environment == environment and r.policy == policy:
                return r
        raise KeyError((environment, policy))


def policy_scenario(scenario: Scenario, policy: str) -> Scenario:
    """The scenario actually solved under a policy.

    single_tenancy keeps only the first tenant's users; both single_tenancy
    and multi_tenancy_no_fairness drop the tenancy-gap penalty (w2 = 0);
    multi_tenancy_dmf solves the scenario as given.
    """
    if policy == SINGLE_TENANCY:
        kept = tuple(u for u in scenario.users if u.mvno_id == 0)
        return replace(
            scenario, users=kept, weights=replace(scenario.weights, w2=0.0)
        )
    if policy == MULTI_TENANCY_NO_FAIRNESS:
        return replace(scenario, weights=replace(scenario.weights, w2=0.0))
    if policy == MULTI_TENANCY_DMF:
        return scenario
    raise ValueError(f"unknown policy: {policy}")


def run_policy(scenario: Scenario, policy: str) -> SolveResult:
    """Solve under a policy; the assignment is indexed by ``scenario.users``.

    When a policy drops users, the solved assignment is mapped back onto the
    full user list (dropped users unserved), so results from different
    policies stay directly comparable.
    """
    sub = policy_scenario(scenario, policy)
    result = solve(sub)
    if sub.users == scenario.users:
        return result
    served = result.assignment.served_ids(sub)
    return replace(result, assignment=assignment_from_ids(scenario, served))


def run_experiment(config: ExperimentConfig) -> ExperimentSummary:
    """Deterministic summary over n_runs seeded layouts per environment.

    Raises an ``ExperimentError`` that is also a ``ValueError``, listing the
    violations, when a generated scenario fails ``validate``; nothing is
    solved on it.
    """
    rows: list[SummaryRow] = []
    for env_name in config.environments:
        env = ENVIRONMENTS[env_name]
        totals: dict[str, list[int]] = {p: [] for p in config.policies}
        per_mvno: dict[str, list[list[int]]] = {p: [] for p in config.policies}
        for run in range(config.n_runs):
            scenario = generate_scenario(
                config.seed + run,
                config.n_users,
                config.num_mvnos,
                env,
                field_size_m=config.field_size_m,
                profile=config.profile,
            )
            violations = validate(scenario)
            if violations:
                raise _InvalidRunError(
                    f"run {run} ({env_name}, seed {config.seed + run}): invalid scenario: "
                    + "; ".join(violations)
                )
            for policy in config.policies:
                try:
                    result = run_policy(scenario, policy)
                except Exception as exc:
                    raise ExperimentError(
                        f"run {run} ({env_name}, {policy}): {exc}"
                    ) from exc
                # The single-tenancy sub-scenario keeps num_mvnos, so the
                # counts stay aligned; other tenants sit at zero.
                totals[policy].append(result.total_served)
                per_mvno[policy].append(list(result.mvno_counts))
        for policy in config.policies:
            t = np.asarray(totals[policy], dtype=float)
            m = np.asarray(per_mvno[policy], dtype=float)
            rows.append(
                SummaryRow(
                    environment=env_name,
                    policy=policy,
                    mean_total=float(t.mean()),
                    std_total=float(t.std()),
                    mean_per_mvno=tuple(float(v) for v in m.mean(axis=0)),
                    runs=config.n_runs,
                )
            )
    return ExperimentSummary(config=config, rows=tuple(rows))

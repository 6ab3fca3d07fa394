"""Seeded Monte Carlo comparison of tenancy policies across environments.

Each run draws one random user layout per (seed + run_index) and solves it
under every requested policy, so policies are compared on identical
geometry.  Summaries aggregate the total and per-MVNO served counts per
(environment, policy) pair.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from .channel import ENVIRONMENTS
from .scenario import (
    DEFAULT_FIELD_SIZE_M,
    MAX_COUNT,
    Scenario,
    ScenarioProfile,
    assignment_from_ids,
    generate_scenario,
    layout_region,
    quoted,
    validate,
)
from .solver import SharedCoverage, SolveResult, solve

SINGLE_TENANCY = "single_tenancy"
MULTI_TENANCY_NO_FAIRNESS = "multi_tenancy_no_fairness"
MULTI_TENANCY_DMF = "multi_tenancy_dmf"
POLICIES = (SINGLE_TENANCY, MULTI_TENANCY_NO_FAIRNESS, MULTI_TENANCY_DMF)

DEFAULT_SEED = 31415
DEFAULT_ENVIRONMENT_NAMES = tuple(ENVIRONMENTS)


class ExperimentError(RuntimeError):
    """A solver failure inside the harness, annotated with its run."""


class _InvalidRunError(ExperimentError, ValueError):
    """An input error: a run whose scenario fails ``validate`` or whose solve
    raises ``ValueError``, a size refusal included."""


@dataclass(frozen=True)
class ExperimentConfig:
    n_runs: int = 100
    n_users: int = 30
    num_mvnos: int = 2
    seed: int = DEFAULT_SEED
    environments: tuple[str, ...] = DEFAULT_ENVIRONMENT_NAMES
    policies: tuple[str, ...] = POLICIES
    field_size_m: float = DEFAULT_FIELD_SIZE_M
    profile: ScenarioProfile = field(default_factory=ScenarioProfile)

    def __post_init__(self) -> None:
        if self.n_runs < 1:
            raise ValueError("n_runs must be at least 1")
        if self.n_runs > MAX_COUNT:
            raise ValueError(f"n_runs must be at most {MAX_COUNT}")
        # A config that cannot make a layout is refused here, not at its first run.
        layout_region(self.seed, self.n_users, self.num_mvnos, self.field_size_m, self.profile)
        for kind, names, known in (
            ("environments", self.environments, ENVIRONMENTS),
            ("policies", self.policies, POLICIES),
        ):
            if not names:
                raise ValueError(f"{kind} must be non-empty")
            unknown = [name for name in names if name not in known]
            if unknown:
                raise ValueError(f"unknown {kind}: [{', '.join(map(quoted, unknown))}]")
            # A repeat would be solved again and written as a second, identical row.
            repeated = [name for name, count in Counter(names).items() if count > 1]
            if repeated:
                raise ValueError(f"repeated {kind}: [{', '.join(map(quoted, repeated))}]")


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
    if policy == MULTI_TENANCY_DMF:
        return scenario
    if policy not in POLICIES:
        raise ValueError(f"unknown policy: {quoted(policy)}")
    users = scenario.users
    if policy == SINGLE_TENANCY:
        users = tuple(u for u in users if u.mvno_id == 0)
    return replace(scenario, users=users, weights=replace(scenario.weights, w2=0.0))


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

    A layout's policies share a ``SharedCoverage``, so the multi-tenancy two,
    which differ only in w2, run the coverage stage once.
    A failing run raises an ``ExperimentError`` that names it.  That error
    is also a ``ValueError`` when the generated scenario fails ``validate``
    (it lists the violations, and nothing is solved) or when the solve
    raised ``ValueError``, such as a ``ResourceGuardError`` above a ceiling.
    A config that cannot make a layout (a negative seed, a bad count or
    field size, an ``h_bounds`` that ``PlacementRegion`` refuses) never
    gets here: it raises ``ValueError`` when it is built.
    """
    rows: list[SummaryRow] = []
    for env_name in config.environments:
        env = ENVIRONMENTS[env_name]
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
            subs = [policy_scenario(scenario, policy) for policy in config.policies]
            shared = SharedCoverage(subs)
            for policy, sub in zip(config.policies, subs):
                try:
                    result = solve(sub, shared)
                except Exception as exc:
                    error = _InvalidRunError if isinstance(exc, ValueError) else ExperimentError
                    raise error(f"run {run} ({env_name}, {policy}): {exc}") from exc
                # The single-tenancy sub-scenario keeps num_mvnos, so the
                # counts stay aligned; other tenants sit at zero.
                per_mvno[policy].append(list(result.mvno_counts))
        for policy in config.policies:
            # Every served user has a tenant, so a run's total is its row sum.
            m = np.asarray(per_mvno[policy], dtype=float)
            t = m.sum(axis=1)
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

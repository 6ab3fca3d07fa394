"""Data model for the drone-cell placement problem.

A scenario bundles the congested users (with their tenancy, QoS, energy and
content attributes), the per-tenant service targets, the objective weights,
the cell capacity, and the region where the platform may be placed.
Scenarios are immutable and freely shareable across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Iterable

import numpy as np

from .channel import ChannelConfig, Environment

DEFAULT_FIELD_SIZE_M = 2000.0
# Largest |x| or |y| a region bound may have, in meters: far beyond any real
# field, and small enough that squared distances stay finite.
MAX_REGION_M = 1.0e7
# Default operating window for the platform altitude, in meters.  Kept at
# small-UAV heights (well under the usual ~120 m ceiling for small craft)
# so the default cells stay far below macro size; the window is plain
# configuration and any scenario file may widen it.
DEFAULT_H_BOUNDS = (20.0, 80.0)

L1 = "L1"
L2 = "L2"


@dataclass(frozen=True)
class User:
    """One congested user the drone-cell may pick up."""

    id: int
    x: float
    y: float
    mvno_id: int
    max_path_loss_db: float = 100.0  # QoS threshold q_i
    energy_cost: float = 0.0  # lambda_i in [0, 1]
    content_request: bool = False  # kappa_i
    resource_demand: float = 1.0  # R_i > 0


@dataclass(frozen=True)
class TenancyTargets:
    """Ideal number of served users per tenant (the vector v)."""

    counts: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.counts)


@dataclass(frozen=True)
class ObjectiveWeights:
    """Weights of the four objective terms plus the tenancy-deviation norm.

    The solver maximizes
    ``w1*served - w2*||counts - targets|| + w3*energy_reward + w4*content_reward``;
    w2 enters as a penalty, w3 rewards serving energy-critical users.
    """

    w1: float = 1.0
    w2: float = 1.0
    w3: float = 0.0
    w4: float = 0.0
    norm: str = L1

    def __post_init__(self) -> None:
        if min(self.w1, self.w2, self.w3, self.w4) < 0:
            raise ValueError("objective weights must be non-negative")
        if self.norm not in (L1, L2):
            raise ValueError(f"norm must be {L1!r} or {L2!r}, got {self.norm!r}")


@dataclass(frozen=True)
class PlacementRegion:
    """Axis-aligned box of allowable platform positions."""

    x_bounds: tuple[float, float]
    y_bounds: tuple[float, float]
    h_bounds: tuple[float, float]


@dataclass(frozen=True)
class Scenario:
    users: tuple[User, ...]
    num_mvnos: int
    targets: TenancyTargets
    weights: ObjectiveWeights
    capacity: float
    region: PlacementRegion
    environment: Environment
    channel: ChannelConfig

    def user_by_id(self, user_id: int) -> User:
        for u in self.users:
            if u.id == user_id:
                return u
        raise KeyError(user_id)


@dataclass(frozen=True)
class Assignment:
    """Binary service vector aligned with ``Scenario.users``."""

    served: tuple[int, ...]

    def served_ids(self, scenario: Scenario) -> tuple[int, ...]:
        return tuple(u.id for u, s in zip(scenario.users, self.served) if s)

    @property
    def total(self) -> int:
        return sum(self.served)


@dataclass(frozen=True)
class ScenarioProfile:
    """Defaults applied to generated users and scenario-level knobs.

    The default profile gives every user the same QoS threshold, unit
    resource demand, zero energy cost and no content request; capacity
    defaults to the user count (non-binding) and targets to an even split.
    """

    max_path_loss_db: float = 100.0
    resource_demand: float = 1.0
    energy_cost_range: tuple[float, float] = (0.0, 0.0)
    content_probability: float = 0.0
    capacity: float | None = None
    targets: tuple[int, ...] | None = None
    weights: ObjectiveWeights = field(default_factory=ObjectiveWeights)
    h_bounds: tuple[float, float] = DEFAULT_H_BOUNDS
    channel: ChannelConfig = field(default_factory=ChannelConfig)


DEFAULT_PROFILE = ScenarioProfile()


def even_targets(n_users: int, num_mvnos: int) -> tuple[int, ...]:
    """Even split of ``n_users`` across tenants; earlier tenants absorb the rest."""
    base, rest = divmod(n_users, num_mvnos)
    return tuple(base + (1 if j < rest else 0) for j in range(num_mvnos))


def generate_scenario(
    seed: int,
    n_users: int,
    num_mvnos: int,
    env: Environment,
    field_size_m: float = DEFAULT_FIELD_SIZE_M,
    profile: ScenarioProfile = DEFAULT_PROFILE,
) -> Scenario:
    """Random scenario: users uniform over a centered square, tenants uniform.

    Pure function of the arguments; the same seed yields the bit-identical
    scenario (positions from PCG64 via ``numpy.random.default_rng``).
    Raises ``ValueError`` on a negative user count, no tenant, a field size
    that is not finite and positive, or an energy-cost range whose width is
    not finite.
    """
    if n_users < 0:
        raise ValueError("n_users must be non-negative")
    if num_mvnos < 1:
        raise ValueError("num_mvnos must be at least 1")
    if not 0 < field_size_m < math.inf:
        raise ValueError(f"field_size_m must be finite and positive, got {field_size_m}")
    lam_lo, lam_hi = profile.energy_cost_range
    if not math.isfinite(lam_hi - lam_lo):
        raise ValueError(f"energy_cost_range must span a finite width, got {profile.energy_cost_range}")
    rng = np.random.default_rng(seed)
    half = field_size_m / 2.0
    xs = rng.uniform(-half, half, n_users)
    ys = rng.uniform(-half, half, n_users)
    mvnos = rng.integers(0, num_mvnos, n_users)
    lams = rng.uniform(lam_lo, lam_hi, n_users) if lam_hi > lam_lo else np.full(n_users, lam_lo)
    kappas = (
        rng.random(n_users) < profile.content_probability
        if profile.content_probability > 0
        else np.zeros(n_users, dtype=bool)
    )
    users = tuple(
        User(
            id=i,
            x=float(xs[i]),
            y=float(ys[i]),
            mvno_id=int(mvnos[i]),
            max_path_loss_db=profile.max_path_loss_db,
            energy_cost=float(lams[i]),
            content_request=bool(kappas[i]),
            resource_demand=profile.resource_demand,
        )
        for i in range(n_users)
    )
    targets = profile.targets if profile.targets is not None else even_targets(n_users, num_mvnos)
    capacity = profile.capacity if profile.capacity is not None else float(max(n_users, 1))
    region = PlacementRegion(
        x_bounds=(-half, half),
        y_bounds=(-half, half),
        h_bounds=profile.h_bounds,
    )
    return Scenario(
        users=users,
        num_mvnos=num_mvnos,
        targets=TenancyTargets(tuple(targets)),
        weights=profile.weights,
        capacity=capacity,
        region=region,
        environment=env,
        channel=profile.channel,
    )


def validate(scenario: Scenario) -> list[str]:
    """Every invariant violation in the scenario, or an empty list if sound.

    Violations are data, not faults: callers decide whether to proceed.
    """
    # A NaN passes or fails the comparisons below by accident, and the exact
    # selection cannot scale an infinity, so every float field must be finite.
    v = (
        _non_finite("", scenario)
        + _non_finite("weight ", scenario.weights)
        + _non_finite("channel ", scenario.channel)
        + _non_finite("environment ", scenario.environment)
    )
    if scenario.num_mvnos < 1:
        v.append(f"num_mvnos must be >= 1, got {scenario.num_mvnos}")
    if scenario.capacity <= 0:
        v.append(f"capacity must be positive, got {scenario.capacity}")
    if len(scenario.targets) != scenario.num_mvnos:
        v.append(
            f"targets length {len(scenario.targets)} does not match num_mvnos {scenario.num_mvnos}"
        )
    for j, t in enumerate(scenario.targets.counts):
        if t < 0:
            v.append(f"target for MVNO {j} is negative: {t}")
        elif t > len(scenario.users):
            v.append(f"target for MVNO {j} exceeds the user count: {t} > {len(scenario.users)}")
    region = scenario.region
    for axis, (lo, hi) in (
        ("x", region.x_bounds),
        ("y", region.y_bounds),
        ("h", region.h_bounds),
    ):
        if not (math.isfinite(lo) and math.isfinite(hi)):
            v.append(f"region {axis}_bounds must be finite, got ({lo}, {hi})")
        elif not lo < hi:
            v.append(f"region {axis}_bounds must satisfy min < max, got ({lo}, {hi})")
        elif axis != "h" and max(abs(lo), abs(hi)) > MAX_REGION_M:
            v.append(f"region {axis}_bounds must lie within +-{MAX_REGION_M:g} m, got ({lo}, {hi})")
    if region.h_bounds[0] <= 0:
        v.append(f"region h_bounds must start above ground, got {region.h_bounds[0]}")

    seen_ids: set[int] = set()
    (x_lo, x_hi), (y_lo, y_hi) = region.x_bounds, region.y_bounds
    for u in scenario.users:
        if u.id in seen_ids:
            v.append(f"user id {u.id} is duplicated")
        seen_ids.add(u.id)
        v += _non_finite(f"user {u.id}: ", u)
        if not 0 <= u.mvno_id < scenario.num_mvnos:
            v.append(f"user {u.id}: mvno_id {u.mvno_id} outside [0, {scenario.num_mvnos})")
        if u.resource_demand <= 0:
            v.append(f"user {u.id}: resource_demand must be positive, got {u.resource_demand}")
        if not 0.0 <= u.energy_cost <= 1.0:
            v.append(f"user {u.id}: energy_cost must be in [0, 1], got {u.energy_cost}")
        if u.max_path_loss_db <= 0:
            v.append(f"user {u.id}: max_path_loss_db must be positive, got {u.max_path_loss_db}")
        if not (x_lo <= u.x <= x_hi and y_lo <= u.y <= y_hi):
            v.append(f"user {u.id}: position ({u.x}, {u.y}) outside the field of interest")
    return v


def _non_finite(where: str, obj: object) -> list[str]:
    """One violation per float field of the dataclass ``obj`` that is NaN or infinite."""
    out = []
    for f in fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            out.append(f"{where}{f.name} must be finite, got {value}")
    return out


def mvno_counts(scenario: Scenario, assignment: Assignment) -> tuple[int, ...]:
    """Served-user count per tenant (the vector Su)."""
    if len(assignment.served) != len(scenario.users):
        raise ValueError(
            f"assignment length {len(assignment.served)} does not match "
            f"user count {len(scenario.users)}"
        )
    counts = [0] * scenario.num_mvnos
    for u, s in zip(scenario.users, assignment.served):
        if s:
            counts[u.mvno_id] += 1
    return tuple(counts)


def assignment_from_ids(scenario: Scenario, served_ids: Iterable[int]) -> Assignment:
    chosen = set(served_ids)
    return Assignment(tuple(1 if u.id in chosen else 0 for u in scenario.users))

"""Data model for the drone-cell placement problem.

A scenario bundles the congested users (with their tenancy, QoS, energy and
content attributes), the per-tenant service targets, the objective weights,
the cell capacity, and the region where the platform may be placed.
Scenarios are immutable and freely shareable across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
# Largest user, tenant or Monte Carlo run count: over 200 times the largest the
# bundled data and benchmarks use, and far below one that fills memory.
MAX_COUNT = 100_000

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
class ObjectiveWeights:
    """Weights of the four objective terms plus the tenancy-deviation norm.

    The solver maximizes
    ``w1*served - w2*||counts - targets|| + w3*energy_reward + w4*content_reward``;
    w2 enters as a penalty, w3 rewards serving energy-critical users.
    Each weight must be finite and non-negative: the constructor checks it,
    as ``ChannelConfig`` and ``Environment`` do theirs, and ``validate`` does not.
    """

    w1: float = 1.0
    w2: float = 1.0
    w3: float = 0.0
    w4: float = 0.0
    norm: str = L1

    def __post_init__(self) -> None:
        if not all(-math.inf < w < math.inf for w in (self.w1, self.w2, self.w3, self.w4)):
            raise ValueError(f"objective weights must be finite, got {self}")
        if min(self.w1, self.w2, self.w3, self.w4) < 0:
            raise ValueError("objective weights must be non-negative")
        if self.norm not in (L1, L2):
            raise ValueError(f"norm must be {L1!r} or {L2!r}, got {self.norm!r}")


@dataclass(frozen=True)
class PlacementRegion:
    """Axis-aligned box of allowable platform positions.

    Its constructor checks the bounds: finite, min <= max (no width pins a
    coordinate), |x| and |y| within ``MAX_REGION_M`` and h_min > 0.
    """

    x_bounds: tuple[float, float]
    y_bounds: tuple[float, float]
    h_bounds: tuple[float, float]

    def __post_init__(self) -> None:
        for axis, (lo, hi) in zip("xyh", (self.x_bounds, self.y_bounds, self.h_bounds)):
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError(f"{axis}_bounds must be finite, got ({lo}, {hi})")
            if not lo <= hi:
                raise ValueError(f"{axis}_bounds must satisfy min <= max, got ({lo}, {hi})")
            if axis != "h" and max(abs(lo), abs(hi)) > MAX_REGION_M:
                raise ValueError(f"{axis}_bounds must lie within +-{MAX_REGION_M:g} m, got ({lo}, {hi})")
        if self.h_bounds[0] <= 0:
            raise ValueError(f"h_bounds must start above ground, got {self.h_bounds[0]}")


@dataclass(frozen=True)
class Scenario:
    users: tuple[User, ...]
    num_mvnos: int
    targets: tuple[int, ...]  # ideal served users per tenant (the vector v)
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
    The constructor checks the knobs that shape the draw: the content
    probability lies in [0, 1], the energy-cost range is an ordered pair in
    [0, 1], the QoS threshold, the resource demand and any capacity are
    finite and positive, and ``PlacementRegion`` accepts the altitude window.
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

    def __post_init__(self) -> None:  # a NaN fails both comparisons
        if not 0.0 <= self.content_probability <= 1.0:
            raise ValueError(f"content_probability must be in [0, 1], got {self.content_probability}")
        lo, hi = self.energy_cost_range
        if not 0.0 <= lo <= hi <= 1.0:
            raise ValueError(f"energy_cost_range must satisfy 0 <= min <= max <= 1, got ({lo}, {hi})")
        positive = [
            ("max_path_loss_db", self.max_path_loss_db), ("resource_demand", self.resource_demand)
        ]
        if self.capacity is not None:
            positive.append(("capacity", self.capacity))
        for name, value in positive:
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be finite and positive, got {value}")
        PlacementRegion((0.0, 0.0), (0.0, 0.0), self.h_bounds)  # the box's own rule for h


DEFAULT_PROFILE = ScenarioProfile()


def even_targets(n_users: int, num_mvnos: int) -> tuple[int, ...]:
    """Even split of ``n_users`` across tenants; earlier tenants absorb the rest."""
    base, rest = divmod(n_users, num_mvnos)
    return tuple(base + (1 if j < rest else 0) for j in range(num_mvnos))


def layout_region(
    seed: int, n_users: int, num_mvnos: int, field_size_m: float, profile: ScenarioProfile
) -> PlacementRegion:
    """The placement box of a generated layout, once its arguments pass their checks.

    Raises ``ValueError`` on a negative seed or user count, no tenant, a
    count above ``MAX_COUNT``, or a field size that is not finite and
    positive or whose box ``PlacementRegion`` refuses (the profile has
    checked its ``h_bounds``, so only the field's bounds can be refused).
    """
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    if n_users < 0:
        raise ValueError("n_users must be non-negative")
    if num_mvnos < 1:
        raise ValueError("num_mvnos must be at least 1")
    for name, count in (("n_users", n_users), ("num_mvnos", num_mvnos)):
        if count > MAX_COUNT:
            raise ValueError(f"{name} must be at most {MAX_COUNT}")
    if not 0 < field_size_m < math.inf:
        raise ValueError(f"field_size_m must be finite and positive, got {field_size_m}")
    half = field_size_m / 2.0
    try:
        return PlacementRegion((-half, half), (-half, half), profile.h_bounds)
    except ValueError as exc:
        raise ValueError(f"field_size_m: {exc}") from exc


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
    ``layout_region`` checks the arguments before anything is allocated.
    """
    region = layout_region(seed, n_users, num_mvnos, field_size_m, profile)
    lo, hi = region.x_bounds
    lam_lo, lam_hi = profile.energy_cost_range
    rng = np.random.default_rng(seed)
    xs = rng.uniform(lo, hi, n_users)
    ys = rng.uniform(lo, hi, n_users)
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
    return Scenario(
        users=users,
        num_mvnos=num_mvnos,
        targets=tuple(targets),
        weights=profile.weights,
        capacity=capacity,
        region=region,
        environment=env,
        channel=profile.channel,
    )


def validate(scenario: Scenario) -> list[str]:
    """Every invariant violation in the scenario, or an empty list if sound.

    Violations are data, not faults: callers decide whether to proceed.
    Only the scenario's own data is checked here: the weights, channel,
    environment and region objects check their numbers when they are built.
    The one region rule here is that each axis has width.
    """
    # A NaN passes or fails the comparisons below by accident, and the exact
    # selection cannot scale an infinity, so the capacity and every float
    # field of a user must be finite.
    v: list[str] = []
    if not -math.inf < scenario.capacity < math.inf:
        v.append(f"capacity must be finite, got {scenario.capacity}")
    if scenario.num_mvnos < 1:
        v.append(f"num_mvnos must be >= 1, got {scenario.num_mvnos}")
    if scenario.capacity <= 0:
        v.append(f"capacity must be positive, got {scenario.capacity}")
    if len(scenario.targets) != scenario.num_mvnos:
        v.append(
            f"targets length {len(scenario.targets)} does not match num_mvnos {scenario.num_mvnos}"
        )
    for j, t in enumerate(scenario.targets):
        if t < 0:
            v.append(f"target for MVNO {j} is negative: {t}")
        elif t > len(scenario.users):
            v.append(f"target for MVNO {j} exceeds the user count: {t} > {len(scenario.users)}")
    region = scenario.region
    for axis, (lo, hi) in zip("xyh", (region.x_bounds, region.y_bounds, region.h_bounds)):
        if not lo < hi:  # legal for the box itself, which may pin a coordinate
            v.append(f"region {axis}_bounds must satisfy min < max, got ({lo}, {hi})")

    seen_ids: set[int] = set()
    (x_lo, x_hi), (y_lo, y_hi) = region.x_bounds, region.y_bounds
    for u in scenario.users:
        if u.id in seen_ids:
            v.append(f"user id {u.id} is duplicated")
        seen_ids.add(u.id)
        for name in ("x", "y", "max_path_loss_db", "energy_cost", "resource_demand"):
            value = getattr(u, name)
            if not -math.inf < value < math.inf:  # an int of any size is finite
                v.append(f"user {u.id}: {name} must be finite, got {value}")
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
    if not v and not math.isfinite(term_magnitude(scenario)):  # once every field is sound
        v.append("objective weights are too large: the largest possible objective overflows")
    return v


def term_magnitude(scenario: Scenario) -> float:
    """Largest possible sum of the objective's terms; ``solve()`` scales its slack by it."""
    w, users = scenario.weights, scenario.users
    energy = w.w3 * sum(u.energy_cost for u in users)
    return (w.w1 + w.w2 + w.w4) * len(users) + w.w2 * sum(scenario.targets) + energy


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


def quoted(name: object) -> str:
    """A name as an error message shows it: its repr if short, else its length, not its text."""
    text = repr(name)
    return text if len(text) <= 80 else f"<{len(str(name)):,} characters>"

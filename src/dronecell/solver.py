"""Exact 3-D placement of a drone-mounted cell over congested users.

The engine picks a platform position (x, y, h) inside an allowed box and a
subset of users to serve, maximizing a weighted mix of total served users,
closeness to per-tenant service targets, energy-criticality rewards, and
content rewards, subject to per-user QoS (path loss) limits and a shared
capacity budget.

The search decomposes: a feasible assignment only improves when the covered
set grows, so the altitude maximizing the coverage radius is optimal for any
horizontal position, and the horizontal optimum over the remaining 2-D
problem is attained at one of finitely many candidate centers (user
positions, pairwise coverage-circle intersections, circle/box-edge
crossings, and box corners).  The coverage sets of those centers are then
scored by an exact subset-selection routine, once per signature: the
per-tenant count vector where that alone fixes the score, otherwise the set
itself.  On that set path only the maximal sets are scored up front, since a
superset never scores worse; a smaller set is scored only when no maximal
superset of it falls below the best.  The selection DP runs on demands and
capacity scaled to exact integers.  ``brute_force`` provides an independent
grid-search oracle for testing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .channel import SPEED_OF_LIGHT, coverage_radius, optimal_altitude, path_loss
from .scenario import (
    L2,
    Assignment,
    Scenario,
    User,
    assignment_from_ids,
    mvno_counts,
)

# Relative slack on squared distances when testing disk membership, so a
# candidate point constructed on a circle boundary keeps the users that
# define it despite floating-point rounding.
DISK_EPS = 1e-12
# Hard ceiling on oracle grid size.
MAX_ORACLE_POINTS = 10_000_000
# Candidate centers tested for eligibility at a time, so the distance and
# eligibility blocks hold this many rows rather than one per candidate.
ELIGIBILITY_CHUNK = 512
# Slack of the superset bound in solve()'s pruning, relative to the largest
# possible sum of the objective's terms; far above the rounding error of
# adding those terms in two different orders.
SCORE_RTOL = 1e-9


class SolverError(Exception):
    """Base class for placement-engine failures."""


class InfeasibleRegionError(SolverError):
    """The placement region is empty or entirely below ground."""


class UnsupportedConfigurationError(SolverError):
    """The scenario shape falls outside the exact engine's domain."""


class ResourceGuardError(SolverError):
    """A requested computation exceeds the configured size ceiling."""


class TermBreakdown(NamedTuple):
    """The four objective terms before weighting (all non-negative)."""

    served: float  # t1: number of served users
    tenancy_gap: float  # t2: norm of per-MVNO counts minus targets
    energy_reward: float  # t3: summed energy cost of served users
    content_reward: float  # t4: number of served content requesters


@dataclass(frozen=True)
class SolveResult:
    placement: tuple[float, float, float]
    assignment: Assignment
    objective: float
    term_breakdown: TermBreakdown
    mvno_counts: tuple[int, ...]
    coverage_radius_used: float

    @property
    def total_served(self) -> int:
        return self.assignment.total


def objective_value(scenario: Scenario, assignment: Assignment) -> tuple[float, TermBreakdown]:
    """Objective of an assignment: w1*t1 - w2*t2 + w3*t3 + w4*t4.

    t1 counts served users, t2 is the chosen norm of the per-MVNO served
    counts minus the targets, t3 sums the energy costs of served users, and
    t4 counts served content requesters.  The tenancy gap enters as a
    penalty; the energy and content terms as rewards.
    """
    w = scenario.weights
    t2 = _tenancy_gap(mvno_counts(scenario, assignment), scenario.targets.counts, w.norm)
    t1 = float(assignment.total)
    t3 = sum(u.energy_cost for u, s in zip(scenario.users, assignment.served) if s)
    t4 = float(sum(1 for u, s in zip(scenario.users, assignment.served) if s and u.content_request))
    breakdown = TermBreakdown(t1, t2, float(t3), t4)
    objective = w.w1 * t1 - w.w2 * t2 + w.w3 * breakdown.energy_reward + w.w4 * t4
    return objective, breakdown


def covered_set(scenario: Scenario, placement: Sequence[float]) -> set[int]:
    """Ids of users whose QoS limit holds at the given (x, y, h) placement."""
    x, y, h = placement
    env, cfg = scenario.environment, scenario.channel
    return {
        u.id
        for u in scenario.users
        if path_loss(h, math.hypot(u.x - x, u.y - y), env, cfg) <= u.max_path_loss_db
    }


def select_users(scenario: Scenario, eligible: Iterable[int]) -> Assignment:
    """Exact best subset of the eligible users under the capacity budget.

    Maximizes the scenario objective over all subsets of ``eligible`` whose
    total resource demand fits the capacity.  Ties break toward more served
    users, then the lexicographically smallest served id set.
    """
    by_id = {u.id: u for u in scenario.users}
    ids = sorted(set(eligible))
    unknown = [i for i in ids if i not in by_id]
    if unknown:
        raise KeyError(f"eligible ids not in scenario: {unknown}")
    w = scenario.weights
    if w.w2 > 0 and scenario.num_mvnos > 3:
        raise UnsupportedConfigurationError(
            "tenancy-fair selection is exact only up to 3 MVNOs, "
            f"got {scenario.num_mvnos} with w2 = {w.w2}"
        )
    chosen = _choose(scenario, [by_id[i] for i in ids])
    return assignment_from_ids(scenario, chosen)


def _tenancy_gap(counts: Sequence[int], targets: Sequence[int], norm: str) -> float:
    diffs = [c - t for c, t in zip(counts, targets)]
    if norm == L2:
        return math.sqrt(sum(d * d for d in diffs))
    return float(sum(abs(d) for d in diffs))


def _choose(scenario: Scenario, users: list[User]) -> tuple[int, ...]:
    """Chosen ids for the sorted eligible ``users``; dispatches by shape."""
    w = scenario.weights
    # Demands and capacity scaled by the lcm of their denominators: exact
    # integers, so the DPs add and compare ints rather than Fractions.
    ratios = [u.resource_demand.as_integer_ratio() for u in users]
    cap_num, cap_den = scenario.capacity.as_integer_ratio()
    scale = math.lcm(cap_den, *(den for _, den in ratios))
    demands = [num * (scale // den) for num, den in ratios]
    cap = cap_num * (scale // cap_den)
    unconstrained = sum(demands) <= cap
    if w.w2 == 0 and unconstrained:
        # Every user contributes w1 + w3*lambda + w4*kappa >= 0, so serving
        # all eligible users is optimal and uniquely maximizes the count.
        return tuple(u.id for u in users)
    if w.w3 == 0 and w.w4 == 0 and len(set(demands)) <= 1:
        return _choose_by_counts(scenario, users, demands, cap)
    return _choose_dp(scenario, users, demands, cap, unconstrained)


def _realize_quota(users: list[User], quota: Sequence[int]) -> tuple[int, ...]:
    """Lexicographically smallest id set hitting the per-MVNO quotas exactly."""
    remaining = list(quota)
    out: list[int] = []
    for u in users:
        if remaining[u.mvno_id] > 0:
            remaining[u.mvno_id] -= 1
            out.append(u.id)
    return tuple(out)


def _choose_by_counts(
    scenario: Scenario, users: list[User], demands: list[int], cap: int
) -> tuple[int, ...]:
    # Uniform demands with the energy/content terms off: the objective only
    # depends on the per-MVNO served counts, so enumerate count vectors.
    w = scenario.weights
    max_served = min(len(users), cap // demands[0]) if users else 0
    if w.w2 == 0:
        # Only the total matters; the first ids are the lexicographic minimum.
        return tuple(u.id for u in users[:max_served])
    per_mvno = [0] * scenario.num_mvnos
    for u in users:
        per_mvno[u.mvno_id] += 1
    targets = scenario.targets.counts
    best: tuple[float, int, tuple[int, ...]] | None = None  # (obj, total, quota)
    for quota in product(*(range(n + 1) for n in per_mvno)):
        total = sum(quota)
        if total > max_served:
            continue
        obj = w.w1 * total - w.w2 * _tenancy_gap(quota, targets, w.norm)
        if best is None or (obj, total) > (best[0], best[1]):
            best = (obj, total, quota)
        elif (obj, total) == (best[0], best[1]):
            if _realize_quota(users, quota) < _realize_quota(users, best[2]):
                best = (obj, total, quota)
    assert best is not None  # the zero vector is always enumerated
    return _realize_quota(users, best[2])


def _choose_dp(
    scenario: Scenario, users: list[User], demands: list[int], cap: int, unconstrained: bool
) -> tuple[int, ...]:
    # General exact path: dynamic programming over (per-MVNO counts, exact
    # scaled resource usage).  The count dimension collapses when w2 = 0 (the
    # gap term is off) and the resource dimension when capacity cannot bind.
    w = scenario.weights
    track_counts = w.w2 > 0
    zero_counts = (0,) * scenario.num_mvnos if track_counts else ()
    # state -> (summed per-user value, served id tuple)
    states: dict[tuple[tuple[int, ...], int], tuple[float, tuple[int, ...]]] = {
        (zero_counts, 0): (0.0, ())
    }
    for u, demand in zip(users, demands):
        delta = w.w3 * u.energy_cost + w.w4 * (1.0 if u.content_request else 0.0)
        if not track_counts:
            delta += w.w1
        updates: dict[tuple[tuple[int, ...], int], tuple[float, tuple[int, ...]]] = {}
        for (counts, used), (extra, ids) in states.items():
            if unconstrained:
                new_used = 0
            else:
                new_used = used + demand
                if new_used > cap:
                    continue
            if track_counts:
                j = u.mvno_id
                new_counts = counts[:j] + (counts[j] + 1,) + counts[j + 1 :]
            else:
                new_counts = ()
            key = (new_counts, new_used)
            cand = (extra + delta, ids + (u.id,))
            cur = updates.get(key)
            if cur is None:
                cur = states.get(key)
            if cur is None or _dp_better(cand, cur):
                updates[key] = cand
        states.update(updates)
    targets = scenario.targets.counts
    best: tuple[float, int, tuple[int, ...]] | None = None
    for (counts, _used), (extra, ids) in states.items():
        if track_counts:
            total = sum(counts)
            obj = w.w1 * total - w.w2 * _tenancy_gap(counts, targets, w.norm) + extra
        else:
            total = len(ids)
            obj = extra
        if (
            best is None
            or (obj, total) > (best[0], best[1])
            or ((obj, total) == (best[0], best[1]) and ids < best[2])
        ):
            best = (obj, total, ids)
    assert best is not None  # the empty state is always present
    return best[2]


def _dp_better(
    cand: tuple[float, tuple[int, ...]], cur: tuple[float, tuple[int, ...]]
) -> bool:
    # Per-state retention order: higher value, then more served, then the
    # lexicographically smaller id tuple (an exchange argument shows keeping
    # one entry per state preserves the global optimum and tie-break).
    if cand[0] != cur[0]:
        return cand[0] > cur[0]
    if len(cand[1]) != len(cur[1]):
        return len(cand[1]) > len(cur[1])
    return cand[1] < cur[1]


def _check_region(scenario: Scenario) -> None:
    region = scenario.region
    (x_lo, x_hi), (y_lo, y_hi) = region.x_bounds, region.y_bounds
    h_lo, h_hi = region.h_bounds
    if x_lo > x_hi or y_lo > y_hi or h_lo > h_hi:
        raise InfeasibleRegionError(f"empty placement region: {region}")
    if h_lo <= 0:
        raise InfeasibleRegionError(f"placement altitudes must be positive: {region}")


def _zero_result(scenario: Scenario, placement: tuple[float, float, float], radius: float) -> SolveResult:
    empty = Assignment((0,) * len(scenario.users))
    obj, breakdown = objective_value(scenario, empty)
    return SolveResult(placement, empty, obj, breakdown, mvno_counts(scenario, empty), radius)


def solve(scenario: Scenario) -> SolveResult:
    """Exact optimum placement and assignment for the scenario.

    The altitude search maximizes the coverage radius at the scenario's
    default QoS threshold; per-user thresholds then size individual disks at
    that altitude.  Candidate centers realize every maximal coverage set
    inside the region box.  Their eligibility is tested in blocks of
    ``ELIGIBILITY_CHUNK`` centers, so memory holds the block plus the D
    distinct packed sets, not one row per candidate.  Each coverage set gets
    a signature, and only each signature's first set, at its first center,
    can win.  When every user has the same resource demand and the energy
    and content weights are zero, the score depends only on the set's
    per-tenant counts, so the count vector is the signature and
    ``select_users`` scores each one.  Otherwise the set itself is the
    signature, and since a superset never scores worse, ``select_users``
    first scores only the maximal sets (found by a blocked bitset subset
    test), which gives the best score; a non-maximal set is then scored only
    if none of its maximal supersets scored below that best.  Ties break
    toward more served users, then the lexicographically smallest center;
    when nobody is coverable the result keeps the all-zero assignment at the
    region's smallest corner.
    """
    _check_region(scenario)
    region = scenario.region
    (x_lo, x_hi), (y_lo, y_hi) = region.x_bounds, region.y_bounds
    env, cfg = scenario.environment, scenario.channel
    h_star, r_default = optimal_altitude(cfg.max_path_loss_db, env, cfg, region.h_bounds)
    users = scenario.users
    radii = [coverage_radius(h_star, u.max_path_loss_db, env, cfg) for u in users]

    best = _zero_result(scenario, (x_lo, y_lo, h_star), r_default)
    best_total = 0
    centers = _candidate_centers(users, radii, region.x_bounds, region.y_bounds)
    if not centers:
        return best

    pts = np.array(sorted(centers))
    ux = np.array([u.x for u in users])
    uy = np.array([u.y for u in users])
    # A zero radius means the user fails QoS even at the nadir; the negative
    # sentinel keeps it out of every disk, including candidates at distance 0.
    r2 = np.array([r * r * (1.0 + DISK_EPS) if r > 0 else -1.0 for r in radii])
    w = scenario.weights
    by_counts = w.w3 == 0 and w.w4 == 0 and len({u.resource_demand for u in users}) == 1
    if by_counts:
        tenant = np.zeros((len(users), scenario.num_mvnos), dtype=np.int64)
        tenant[np.arange(len(users)), [u.mvno_id for u in users]] = 1

    # A repeated signature scores exactly as its first set did, and a later
    # equal score never replaces the best, so only first sightings count:
    # their center, eligible user indices and signature, in center order.
    firsts: list[tuple[float, float, np.ndarray, bytes]] = []
    seen: set[bytes] = set()
    for start in range(0, len(pts), ELIGIBILITY_CHUNK):
        block = pts[start : start + ELIGIBILITY_CHUNK]
        d2 = (block[:, 0:1] - ux[None, :]) ** 2 + (block[:, 1:2] - uy[None, :]) ** 2
        eligible = d2 <= r2[None, :]
        keys = eligible @ tenant if by_counts else np.packbits(eligible, axis=1)
        rows = keys.view(np.dtype((np.void, keys.shape[1] * keys.itemsize))).ravel()
        _, first_idx = np.unique(rows, return_index=True)
        for k in np.sort(first_idx):
            signature = rows[k].tobytes()
            if signature in seen:
                continue
            seen.add(signature)
            members = np.flatnonzero(eligible[k])
            if len(members):  # the zero-assignment fallback covers the empty set
                firsts.append((float(block[k, 0]), float(block[k, 1]), members, signature))

    def score(i: int) -> tuple[float, Assignment, TermBreakdown]:
        assignment = select_users(scenario, {users[j].id for j in firsts[i][2]})
        obj, breakdown = objective_value(scenario, assignment)
        return obj, assignment, breakdown

    scored: dict[int, tuple[float, Assignment, TermBreakdown]] = {}
    order: Iterable[int] = range(len(firsts))
    if not by_counts and firsts:
        scored, order = _prune_to_maximal(scenario, firsts, score)
    for i in order:
        obj, assignment, breakdown = scored[i] if i in scored else score(i)
        if (obj, assignment.total) > (best.objective, best_total):
            x, y = firsts[i][:2]
            best = SolveResult(
                (x, y, h_star),
                assignment,
                obj,
                breakdown,
                mvno_counts(scenario, assignment),
                r_default,
            )
            best_total = assignment.total
    return best


def _prune_to_maximal(
    scenario: Scenario,
    firsts: list[tuple[float, float, np.ndarray, bytes]],
    score: Callable[[int], tuple[float, Assignment, TermBreakdown]],
) -> tuple[dict[int, tuple[float, Assignment, TermBreakdown]], list[int]]:
    """Scores of the maximal sets, and the indices of the sets that can win.

    ``firsts`` holds distinct nonempty sets, each with its packed set as the
    signature.  ``select_users`` on a superset optimizes over a superset of
    subsets, so it never scores worse: the maximal sets hold the best score,
    and a set with a maximal superset scoring below it cannot reach it.  The
    slack covers rounding, since ``select_users`` and ``objective_value`` add
    the same terms in different orders; it is relative to the largest
    possible sum of the objective's terms.
    """
    w = scenario.weights
    users = scenario.users
    magnitude = (
        (w.w1 + w.w2 + w.w4) * len(users)
        + w.w2 * sum(scenario.targets.counts)
        + w.w3 * sum(u.energy_cost for u in users)
    )
    sets = np.frombuffer(b"".join(f[3] for f in firsts), dtype=np.uint8).reshape(len(firsts), -1)
    sizes = np.array([len(f[2]) for f in firsts])
    # Larger sets first: sets of one size never contain each other, and a
    # set is maximal unless one of the maximal sets found so far contains it.
    maximal: list[int] = []
    for size in sorted(set(sizes.tolist()), reverse=True):
        group = np.flatnonzero(sizes == size)
        maximal.extend(group[~_subset_of_any(sets[group], sets[maximal])].tolist())
    maximal.sort()
    scored = {i: score(i) for i in maximal}
    floor = max(obj for obj, _, _ in scored.values()) - SCORE_RTOL * (1.0 + magnitude)
    # A low maximal set, and every set inside one, scores below the best.
    low = [i for i in maximal if scored[i][0] < floor]
    return scored, np.flatnonzero(~_subset_of_any(sets, sets[low])).tolist()


def _subset_of_any(sets: np.ndarray, sups: np.ndarray) -> np.ndarray:
    """Whether each packed set is a subset of one of the packed ``sups``.

    The sets are tested in blocks of ``ELIGIBILITY_CHUNK``, one byte column
    at a time, so every temporary holds one block row per set of ``sups``.
    """
    out = np.zeros(len(sets), dtype=bool)
    outside = ~sups
    for start in range(0, len(sets), ELIGIBILITY_CHUNK):
        block = sets[start : start + ELIGIBILITY_CHUNK]
        contained = np.ones((len(block), len(sups)), dtype=bool)
        for b in range(sets.shape[1]):
            contained &= (block[:, b : b + 1] & outside[:, b]) == 0
        out[start : start + len(block)] = contained.any(axis=1)
    return out


def _candidate_centers(
    users: Sequence[User],
    radii: Sequence[float],
    x_bounds: tuple[float, float],
    y_bounds: tuple[float, float],
) -> set[tuple[float, float]]:
    """Horizontal positions that realize every maximal coverage set.

    Any nonempty intersection of coverage disks with the region box is
    convex; it contains a disk center, a box corner, or a boundary vertex
    (circle/circle or circle/edge crossing), all of which are enumerated.
    """
    x_lo, x_hi = x_bounds
    y_lo, y_hi = y_bounds
    pts: set[tuple[float, float]] = set()

    def add(x: float, y: float) -> None:
        if x_lo <= x <= x_hi and y_lo <= y <= y_hi:
            pts.add((x, y))

    active = [(u.x, u.y, r) for u, r in zip(users, radii) if r > 0]
    if not active:
        return pts
    for cx, cy, r in active:
        add(cx, cy)
        for xe in (x_lo, x_hi):
            rem = r * r - (xe - cx) ** 2
            if rem >= 0:
                s = math.sqrt(rem)
                add(xe, cy - s)
                add(xe, cy + s)
        for ye in (y_lo, y_hi):
            rem = r * r - (ye - cy) ** 2
            if rem >= 0:
                s = math.sqrt(rem)
                add(cx - s, ye)
                add(cx + s, ye)
    for i in range(len(active)):
        x1, y1, r1 = active[i]
        for j in range(i + 1, len(active)):
            x2, y2, r2 = active[j]
            d = math.hypot(x2 - x1, y2 - y1)
            if d == 0 or d > r1 + r2 or d < abs(r1 - r2):
                continue  # disjoint, nested, or concentric: no boundary crossing
            a = (d * d + r1 * r1 - r2 * r2) / (2.0 * d)
            h2 = r1 * r1 - a * a
            half = math.sqrt(h2) if h2 > 0 else 0.0
            mx = x1 + a * (x2 - x1) / d
            my = y1 + a * (y2 - y1) / d
            ox = -(y2 - y1) / d * half
            oy = (x2 - x1) / d * half
            add(mx + ox, my + oy)
            add(mx - ox, my - oy)
    for cx in (x_lo, x_hi):
        for cy in (y_lo, y_hi):
            pts.add((cx, cy))
    return pts


def _grid_axis(lo: float, hi: float, step: float) -> list[float]:
    """Inclusive grid from lo to hi; both endpoints always present."""
    n = int(math.floor((hi - lo) / step + 1e-9))
    vals = [lo + k * step for k in range(n + 1)]
    if vals[-1] < hi - 1e-9 * max(1.0, abs(hi)):
        vals.append(hi)
    return vals


def brute_force(scenario: Scenario, grid_step_xy: float, grid_step_h: float) -> SolveResult:
    """Independent oracle: exhaustive search over a region grid.

    Eligibility is evaluated straight from the path-loss formula at every
    grid point (no radius bisection or altitude search involved), and each
    distinct coverage set is scored once by ``select_users``.  Ties break
    toward more served users, then lower altitude, then the
    lexicographically smallest center.
    """
    if grid_step_xy <= 0 or grid_step_h <= 0:
        raise ValueError("grid steps must be positive")
    _check_region(scenario)
    region = scenario.region
    xs = _grid_axis(*region.x_bounds, grid_step_xy)
    ys = _grid_axis(*region.y_bounds, grid_step_xy)
    hs = _grid_axis(*region.h_bounds, grid_step_h)
    n_points = len(xs) * len(ys) * len(hs)
    if n_points > MAX_ORACLE_POINTS:
        raise ResourceGuardError(
            f"oracle grid has {n_points} points, above the {MAX_ORACLE_POINTS} ceiling"
        )
    env, cfg = scenario.environment, scenario.channel
    users = scenario.users
    if not users:
        result = _zero_result(scenario, (xs[0], ys[0], hs[0]), 0.0)
        radius = coverage_radius(hs[0], cfg.max_path_loss_db, env, cfg)
        return SolveResult(
            result.placement,
            result.assignment,
            result.objective,
            result.term_breakdown,
            result.mvno_counts,
            radius,
        )

    gx = np.repeat(np.asarray(xs), len(ys))
    gy = np.tile(np.asarray(ys), len(xs))
    ux = np.array([u.x for u in users])
    uy = np.array([u.y for u in users])
    q = np.array([u.max_path_loss_db for u in users])
    d2 = (gx[:, None] - ux[None, :]) ** 2 + (gy[:, None] - uy[None, :]) ** 2
    ground = np.sqrt(d2)
    fspl_scale = 4.0 * math.pi * cfg.frequency_hz / SPEED_OF_LIGHT
    a, b = env.plos_a, env.plos_b
    eta_l, eta_n = env.eta_los_db, env.eta_nlos_db

    best: SolveResult | None = None
    best_total = -1
    memo: dict[bytes, tuple[float, Assignment, TermBreakdown, tuple[int, ...]]] = {}
    for h in hs:
        theta = np.degrees(np.arctan2(h, ground))
        p_los = 1.0 / (1.0 + a * np.exp(-b * (theta - a)))
        loss = (
            20.0 * np.log10(fspl_scale * np.sqrt(d2 + h * h))
            + p_los * eta_l
            + (1.0 - p_los) * eta_n
        )
        eligible = loss <= q[None, :]
        packed = np.packbits(eligible, axis=1)
        void = np.ascontiguousarray(packed).view([("v", f"V{packed.shape[1]}")]).ravel()
        _, first_idx = np.unique(void, return_index=True)
        for k in np.sort(first_idx):
            key = packed[k].tobytes()
            entry = memo.get(key)
            if entry is None:
                ids = {users[i].id for i in np.nonzero(eligible[k])[0]}
                assignment = select_users(scenario, ids)
                obj, breakdown = objective_value(scenario, assignment)
                entry = (obj, assignment, breakdown, mvno_counts(scenario, assignment))
                memo[key] = entry
            obj, assignment, breakdown, counts = entry
            if best is None or (obj, assignment.total) > (best.objective, best_total):
                radius = coverage_radius(float(h), cfg.max_path_loss_db, env, cfg)
                best = SolveResult(
                    (float(gx[k]), float(gy[k]), float(h)),
                    assignment,
                    obj,
                    breakdown,
                    counts,
                    radius,
                )
                best_total = assignment.total
    assert best is not None
    return best

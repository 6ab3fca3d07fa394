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
crossings, and box corners).  The O(n^2) circle pairs and the eligibility
tests run in numpy with the bits the scalar formulas give.  Users that add
the same demand and the same objective terms form classes of
interchangeable users, and a coverage set's signature is its count vector:
how many members it holds of each class.  Sets with one signature score the
same, so the coverage sets of those centers are scored by an exact
subset-selection routine once per signature.  Each signature's score has an
upper bound, read off its counts: a fractional knapsack (Dantzig) over what
each of its users can add to the objective.  Signatures are scored in
descending bound order until a bound falls below the best score.  The
selection is one DP over the classes, on demands and capacity scaled to
exact integers.  ``brute_force`` provides an independent grid-search oracle
for testing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter, mul, sub
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .channel import SPEED_OF_LIGHT, coverage_radius, optimal_altitude, path_loss
from .scenario import (
    L2,
    Assignment,
    ObjectiveWeights,
    Scenario,
    User,
    assignment_from_ids,
    mvno_counts,
)

# Relative slack on squared distances when testing disk membership, so a
# candidate point constructed on a circle boundary keeps the users that
# define it despite floating-point rounding.
DISK_EPS = 1e-12
# Hard ceiling on the points a search may visit: the oracle's grid points
# and the bound on solve()'s candidate centers.
MAX_SEARCH_POINTS = 10_000_000
# Candidate centers tested for eligibility at a time, so the distance and
# eligibility blocks, and the knapsack bounds of a block's new signatures,
# hold this many rows rather than one per candidate.
ELIGIBILITY_CHUNK = 512
# Slack of the knapsack bound in solve()'s pruning, relative to the largest
# possible sum of the objective's terms; far above the rounding error of
# adding those terms in different orders.
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
    check_tenancy(scenario.num_mvnos, scenario.weights)
    chosen = _choose(scenario, [by_id[i] for i in ids])
    return assignment_from_ids(scenario, chosen)


def check_tenancy(num_mvnos: int, weights: ObjectiveWeights) -> None:
    """Raise ``UnsupportedConfigurationError`` outside the exact selection's domain.

    Tenancy-fair selection (w2 > 0) is exact only up to 3 MVNOs.
    """
    if weights.w2 > 0 and num_mvnos > 3:
        raise UnsupportedConfigurationError(
            "tenancy-fair selection is exact only up to 3 MVNOs, "
            f"got {num_mvnos} with w2 = {weights.w2}"
        )


def _tenancy_gap(counts: Sequence[int], targets: Sequence[int], norm: str) -> float:
    diffs = list(map(sub, counts, targets))
    if norm == L2:
        return math.sqrt(sum(map(mul, diffs, diffs)))
    return float(sum(map(abs, diffs)))


def _classes(users: Sequence[User], weights: ObjectiveWeights) -> list[list[int]]:
    """Positions in ``users`` of each class of interchangeable users.

    Users are interchangeable when they add the same to the constraints and
    to the objective's terms: the same resource demand, and the same tenant,
    energy cost and content flag where their term's weight is on.  Swapping
    two of them in a set changes neither its feasibility nor its score.
    Classes come in the order of their first member, each in position order.
    """
    fields = ["resource_demand"]
    if weights.w2 > 0:
        fields.append("mvno_id")
    if weights.w3 > 0:
        fields.append("energy_cost")
    if weights.w4 > 0:
        fields.append("content_request")
    key = attrgetter(*fields)
    classes: dict[object, list[int]] = {}
    for p, u in enumerate(users):
        classes.setdefault(key(u), []).append(p)
    return list(classes.values())


def _choose(scenario: Scenario, users: list[User]) -> tuple[int, ...]:
    """Chosen ids for the sorted eligible ``users``: one DP over classes.

    The DP state is (per-MVNO counts, scaled resource usage); the count
    dimension collapses when w2 = 0 (the gap term is off) and the usage one
    when capacity cannot bind.  Each class of interchangeable users adds its
    first 0..k members in id order, since any c members of a class score
    alike and the first c are the lexicographically smallest.  A state keeps
    one entry, the greatest (value, served, mask): higher value, then more
    served, then the smaller id set (an exchange argument shows this
    preserves the global optimum and tie-break).
    """
    w = scenario.weights
    # Demands and capacity scaled by the lcm of their denominators: exact
    # integers, so the DP adds and compares ints rather than Fractions.
    ratios = [u.resource_demand.as_integer_ratio() for u in users]
    cap_num, cap_den = scenario.capacity.as_integer_ratio()
    scale = math.lcm(cap_den, *(den for _, den in ratios))
    demands = [num * (scale // den) for num, den in ratios]
    cap = cap_num * (scale // cap_den)
    unconstrained = sum(demands) <= cap
    track_counts = w.w2 > 0
    # The user at sorted position p is mask bit m-1-p: among sets of one
    # size, the greater mask is the lexicographically smaller id tuple.
    m = len(users)
    zero_counts = (0,) * scenario.num_mvnos if track_counts else ()
    # state -> (summed per-user value, served, mask)
    states: dict[tuple[tuple[int, ...], int], tuple[float, int, int]] = {
        (zero_counts, 0): (0.0, 0, 0)
    }
    for members in _classes(users, w):
        u = users[members[0]]
        demand = 0 if unconstrained else demands[members[0]]
        delta = w.w3 * u.energy_cost + w.w4 * (1.0 if u.content_request else 0.0)
        if not track_counts:
            delta += w.w1
        j = u.mvno_id
        bits = [1 << (m - 1 - p) for p in members]
        grown = dict(states)
        for (counts, used), (value, served, mask) in states.items():
            for c, bit in enumerate(bits, 1):
                used += demand
                if used > cap:
                    break
                value += delta
                mask |= bit
                new_counts = counts[:j] + (counts[j] + c,) + counts[j + 1 :] if track_counts else ()
                key = (new_counts, used)
                cand = (value, served + c, mask)
                cur = grown.get(key)
                if cur is None or cand > cur:
                    grown[key] = cand
        states = grown
    targets = scenario.targets.counts
    base: dict[tuple[int, ...], float] = {}  # counts -> w1*t1 - w2*t2
    best: tuple[float, int, int] | None = None
    for (counts, _used), (value, served, mask) in states.items():
        if track_counts:
            if counts not in base:
                base[counts] = w.w1 * served - w.w2 * _tenancy_gap(counts, targets, w.norm)
            value = base[counts] + value
        if best is None or (value, served, mask) > best:
            best = (value, served, mask)
    assert best is not None  # the empty state is always present
    mask = best[2]
    return tuple(u.id for p, u in enumerate(users) if mask >> (m - 1 - p) & 1)


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
    inside the region box; ``ResourceGuardError`` is raised before they are
    enumerated when there could be more than ``MAX_SEARCH_POINTS``.  Their
    eligibility is tested in blocks of ``ELIGIBILITY_CHUNK`` centers, sorted
    by x, so memory holds the block plus the members and bound of each of
    the D distinct signatures, not one row per candidate, and a block
    computes distances only to the users whose x-distance to its slab of
    centers is within their radius.  A coverage set's signature is its
    count vector, how many members it holds of each class of
    interchangeable users (``_classes``).  Sets with one signature score the
    same, so only each signature's first set, at its first center, can win;
    its knapsack bound, which reads only the counts, is computed in its
    block when it is first seen.  ``select_users`` scores the sets in
    descending bound order, then more members, then center order, and stops
    at the first bound below the best score so far less a rounding slack,
    since no later set can reach it.  The best score wins, ties breaking
    toward more served users, then the lexicographically smallest center;
    a set must beat the all-zero assignment at the region's smallest
    corner, which is the result when nobody is coverable.
    """
    _check_region(scenario)
    region = scenario.region
    (x_lo, x_hi), (y_lo, y_hi) = region.x_bounds, region.y_bounds
    env, cfg = scenario.environment, scenario.channel
    h_star, r_default = optimal_altitude(cfg.max_path_loss_db, env, cfg, region.h_bounds)
    users = scenario.users
    radii = [coverage_radius(h_star, u.max_path_loss_db, env, cfg) for u in users]

    zero = _zero_result(scenario, (x_lo, y_lo, h_star), r_default)
    pts = _candidate_centers(users, radii, region.x_bounds, region.y_bounds)
    if not len(pts):
        return zero

    # A served user adds at most value = w1 + w2' + w3*e + w4*kappa to the
    # objective, less w2' times the summed targets: with k users served the
    # tenancy gap is at least the targets' sum less k under L1, and that over
    # sqrt(M) under L2 (M tenants).  A set's bound is the fractional knapsack
    # of its members' values under the capacity.  Every field the value reads
    # also separates ``_classes``, so a class has one value and one demand;
    # the columns run class by class in descending value per unit demand,
    # and a set's greedy fill is a running sum along its count vector.
    w = scenario.weights
    w2 = w.w2 / math.sqrt(scenario.num_mvnos) if w.norm == L2 else w.w2

    def value(u: User) -> float:
        return w.w1 + w2 + w.w3 * u.energy_cost + w.w4 * (1.0 if u.content_request else 0.0)

    def density(members: list[int]) -> float:
        return value(users[members[0]]) / users[members[0]].resource_demand

    groups = sorted(_classes(users, w), key=density, reverse=True)
    order = [j for members in groups for j in members]
    cols = np.array(order)
    values = np.array([value(users[members[0]]) for members in groups])
    demands = np.array([users[members[0]].resource_demand for members in groups])
    base = w2 * sum(scenario.targets.counts)
    count_type = np.min_scalar_type(len(order))
    class_start = np.cumsum([0] + [len(members) for members in groups[:-1]])

    # Rows of x, y and squared radius by column.  A zero radius means the
    # user fails QoS even at the nadir; the negative sentinel keeps it out of
    # every disk, including candidates at distance 0.
    disks = np.array(
        [
            [users[j].x for j in order],
            [users[j].y for j in order],
            [r * r * (1.0 + DISK_EPS) if r > 0 else -1.0 for r in (radii[j] for j in order)],
        ]
    )
    ux, r2 = disks[0], disks[2]

    # Sets with one signature score the same, and a later equal score never
    # wins, so only first sightings count: their center, eligible user
    # indices and bound, in center order.
    firsts: list[tuple[float, float, np.ndarray, float]] = []
    seen: set[bytes] = set()
    for start in range(0, len(pts), ELIGIBILITY_CHUNK):
        bx, by = pts[start : start + ELIGIBILITY_CHUNK].T
        # The centers are sorted by x, so the block spans [bx[0], bx[-1]].  A
        # user whose x-gap to that slab (ux clipped into it, less ux) has
        # gap^2 > r2 is in none of the block's disks: rounding is monotone,
        # so the rounded d2 is at least the rounded gap^2.
        gap = np.minimum(np.maximum(ux, bx[0]), bx[-1])
        gap -= ux
        near = (gap * gap <= r2).nonzero()[0]
        near_x, near_y, near_r2 = disks[:, near]
        d2 = np.subtract.outer(bx, near_x)
        d2 *= d2
        dy2 = np.subtract.outer(by, near_y)
        d2 += np.multiply(dy2, dy2, out=dy2)
        eligible = np.zeros((len(bx), len(order)), dtype=bool)
        eligible[:, near] = d2 <= near_r2
        held = np.add.reduceat(eligible, class_start, axis=1, dtype=count_type)
        signatures = held.view(np.dtype((np.void, held.strides[0]))).ravel().tolist()
        new = []
        for k, signature in enumerate(signatures):
            if signature not in seen:
                seen.add(signature)
                new.append(k)
        # Each class's share of its members: all while the fill stays within
        # the capacity, then the part that still fits, then none.
        counts = held[new]
        fill = np.cumsum(counts * demands, axis=1)
        share = np.clip((scenario.capacity - fill) / demands + counts, 0, counts)
        for k, bound in zip(new, share @ values - base):
            members = cols[eligible[k].nonzero()[0]]
            if len(members):  # the zero assignment covers the empty set
                firsts.append((float(bx[k]), float(by[k]), members, float(bound)))

    # The slack covers rounding, since the bound, ``select_users`` and
    # ``objective_value`` add the same terms in different orders; it is
    # relative to the largest possible sum of the objective's terms.
    magnitude = (
        (w.w1 + w.w2 + w.w4) * len(users)
        + w.w2 * sum(scenario.targets.counts)
        + w.w3 * sum(u.energy_cost for u in users)
    )
    slack = SCORE_RTOL * (1.0 + magnitude)
    # The winner is the greatest (objective, served, -index); the zero
    # assignment ranks as index -1, so a set must beat it outright.  Sets go
    # highest bound first, then more members, then center order (lexsort is
    # stable); once a bound is below the best score, so are all that follow.
    win = (zero.objective, 0, 1, zero.assignment, zero.term_breakdown)
    bounds = [f[3] for f in firsts]
    for i in np.lexsort(([-len(f[2]) for f in firsts], np.negative(bounds))).tolist():
        if bounds[i] < win[0] - slack:
            break
        assignment = select_users(scenario, {users[j].id for j in firsts[i][2]})
        obj, breakdown = objective_value(scenario, assignment)
        win = max(win, (obj, assignment.total, -i, assignment, breakdown))
    obj, _, neg_index, assignment, breakdown = win
    if neg_index == 1:
        return zero
    x, y = firsts[-neg_index][:2]
    return SolveResult(
        (x, y, h_star), assignment, obj, breakdown, mvno_counts(scenario, assignment), r_default
    )


def _candidate_centers(
    users: Sequence[User],
    radii: Sequence[float],
    x_bounds: tuple[float, float],
    y_bounds: tuple[float, float],
) -> np.ndarray:
    """Horizontal positions that realize every maximal coverage set.

    Any nonempty intersection of coverage disks with the region box is
    convex; it contains a disk center, a box corner, or a boundary vertex
    (circle/circle or circle/edge crossing), all of which are enumerated.
    Returns the distinct points inside the box as a (k, 2) array sorted by
    x, then y, with none at all when no user has a positive radius.  Raises
    ``ResourceGuardError`` when the m users with a positive radius could
    give more than ``MAX_SEARCH_POINTS`` points (m^2 + 8m + 4 bounds them).

    The circle pairs run in numpy, ``ELIGIBILITY_CHUNK`` rows at a time,
    with the float operations of the scalar formulas in the same order, so
    every point has the bits the scalar arithmetic gives.  Points are listed
    in a fixed order and stably sorted, so of equal points (0.0 and -0.0
    alike) the first listed is kept.
    """
    x_lo, x_hi = x_bounds
    y_lo, y_hi = y_bounds
    active = [(u.x, u.y, r) for u, r in zip(users, radii) if r > 0]
    m = len(active)
    if m * m + 8 * m + 4 > MAX_SEARCH_POINTS:
        raise ResourceGuardError(
            f"{m} coverable users give up to {m * m + 8 * m + 4} candidate centers, "
            f"above the {MAX_SEARCH_POINTS} ceiling"
        )
    if not active:
        return np.empty((0, 2))
    # Disk centers and circle/edge crossings stay scalar: Python's ``**``
    # calls libm's pow, which numpy's square does not always match.
    flat: list[float] = []  # x0, y0, x1, y1, ...
    for cx, cy, r in active:
        flat += (cx, cy)
        for xe in (x_lo, x_hi):
            rem = r * r - (xe - cx) ** 2
            if rem >= 0:
                s = math.sqrt(rem)
                flat += (xe, cy - s, xe, cy + s)
        for ye in (y_lo, y_hi):
            rem = r * r - (ye - cy) ** 2
            if rem >= 0:
                s = math.sqrt(rem)
                flat += (cx - s, ye, cx + s, ye)
    blocks = [np.array(flat).reshape(-1, 2)]
    circles = np.array(active)  # rows of (x, y, r)
    x, y, r = circles.T
    idx = np.arange(m)
    for start in range(0, m, ELIGIBILITY_CHUNK):
        rows = slice(start, start + ELIGIBILITY_CHUNK)
        # The pairs i < j whose circles can cross, tested on squared
        # distances with a relative margin far above their rounding error;
        # the exact test below uses math.hypot, as the scalar code does.
        dist2 = x - x[rows, None]
        dist2 *= dist2
        dy2 = y - y[rows, None]
        dist2 += np.multiply(dy2, dy2, out=dy2)
        bound = r + r[rows, None]
        bound *= bound * (1.0 + 1e-9)
        near = dist2 <= bound
        bound = r - r[rows, None]
        bound *= bound * (1.0 - 1e-9)
        near &= dist2 >= bound
        near &= idx > idx[rows, None]
        i, j = np.nonzero(near)
        c1, c2 = circles[i + start], circles[j]
        delta = c2 - c1  # rows of (x2 - x1, y2 - y1, r2 - r1)
        d = np.array(list(map(math.hypot, *delta[:, :2].T.tolist())))
        # Disjoint, nested or concentric circles have no boundary crossing.
        keep = (d != 0) & (d <= c1[:, 2] + c2[:, 2]) & (d >= abs(delta[:, 2]))
        c1, c2, delta, d = c1[keep], c2[keep], delta[keep, :2], d[keep]
        # The scalar formulas, elementwise on (x, y) columns: a - b is
        # a + (-b), and negating a product or quotient negates the result.
        r1_sq = c1[:, 2] * c1[:, 2]
        a = (d * d + r1_sq - c2[:, 2] * c2[:, 2]) / (2.0 * d)
        h2 = r1_sq - a * a
        half = np.sqrt(np.where(h2 > 0, h2, 0.0))
        d = d[:, None]
        mid = c1[:, :2] + a[:, None] * delta / d
        off = delta[:, ::-1] / d * (half[:, None] * (-1.0, 1.0))
        # Each pair's two crossings, in the order the scalar loop adds them.
        blocks.append(np.concatenate([mid + off, mid - off], axis=1).reshape(-1, 2))
    blocks.append(np.array([(x_lo, y_lo), (x_lo, y_hi), (x_hi, y_lo), (x_hi, y_hi)]))
    pts = np.concatenate(blocks)
    inside = (blocks[-1][0] <= pts) & (pts <= blocks[-1][-1])
    pts = pts[inside[:, 0] & inside[:, 1]]
    # As complex numbers the points sort by x, then y, in one stable sort.
    z = np.sort(pts.view(np.complex128).ravel(), kind="stable")
    return z[np.concatenate(([True], z[1:] != z[:-1]))].view(np.float64).reshape(-1, 2)


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
    if n_points > MAX_SEARCH_POINTS:
        raise ResourceGuardError(
            f"oracle grid has {n_points} points, above the {MAX_SEARCH_POINTS} ceiling"
        )
    env, cfg = scenario.environment, scenario.channel
    users = scenario.users
    if not users:
        radius = coverage_radius(hs[0], cfg.max_path_loss_db, env, cfg)
        return _zero_result(scenario, (xs[0], ys[0], hs[0]), radius)

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
            if best is None or (obj, assignment.total) > (best.objective, best.total_served):
                radius = coverage_radius(float(h), cfg.max_path_loss_db, env, cfg)
                best = SolveResult(
                    (float(gx[k]), float(gy[k]), float(h)),
                    assignment,
                    obj,
                    breakdown,
                    counts,
                    radius,
                )
    assert best is not None
    return best

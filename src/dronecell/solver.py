"""Placement of a drone-mounted cell over congested users.

The engine picks a platform position (x, y, h) inside an allowed box and a
subset of users to serve, maximizing a weighted mix of total served users,
closeness to per-tenant service targets, energy-criticality rewards, and
content rewards, subject to per-user QoS (path loss) limits and a shared
capacity budget.

``solve()`` fixes h at h*, where the default threshold's coverage radius
peaks, and sizes each user's disk there with ``coverage_radius``.  At h* the
optimum lies at one of finitely many candidate centers (user positions,
pairwise circle crossings, circle/box-edge crossings, and box corners),
which the coverage stage makes.  When the box could hold more centers than
``ELIGIBILITY_CHUNK`` and than a quadtree of tiles about an eighth of the
smallest radius has leaves, it first searches that quadtree, dropping the
tiles whose knapsack bound (below) is under a floor set at one user
position, and makes centers only in the leaves left ("Big Square Small
Square", Hansen, Peeters, Richard & Thisse, Oper. Res. 33(6), 1985).  It
finds the circle pairs that can cross and tests which disks each center,
and each user position the floor weighs, is in, in numpy with the scalar
formulas' bits, a block of rows of at most ``BLOCK_FLOATS`` values at a
time: ``BLOCK_FLOATS`` sizes every block and ``ELIGIBILITY_CHUNK`` steers
the search.  Users that add the same demand
and objective terms form classes of interchangeable users; a coverage set's
signature is its count vector, and the stage keeps each signature's first
center and counts.  Scenarios that
differ only in weights, targets and capacity can share it
(``SharedCoverage``).  The scoring stage sums the counts into the
scenario's own classes and scores the sets in descending order of a
fractional knapsack (Dantzig) bound, until a bound falls below the best
score, with one exact selection DP that takes the classes tenant by tenant
on demands and capacity scaled to integers.  It selects from the members
whose scalar ``path_loss`` is within their threshold, so every served user
is.  The result is optimal over placements at h* with those disks; another
altitude, or a radius's bisection slack, can serve more.  ``brute_force``
provides an independent grid-search oracle for testing.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from operator import attrgetter, mul, sub
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .channel import coverage_radius, optimal_altitude, path_loss, path_loss_array
from .scenario import (
    L2,
    Assignment,
    ObjectiveWeights,
    PlacementRegion,
    Scenario,
    User,
    assignment_from_ids,
    mvno_counts,
    term_magnitude,
)

# Relative slack on squared distances when testing disk membership, so a
# candidate point constructed on a circle boundary keeps the users that
# define it despite floating-point rounding.
DISK_EPS = 1e-12
# Hard ceiling on the points a search may visit: the oracle's grid points
# and the bound on solve()'s candidate centers.
MAX_SEARCH_POINTS = 10_000_000
# Hard ceiling on the selection DP's states.  A state costs about 450 bytes
# (its key and entry tuples, their numbers, and its slots in the two dicts a
# class holds), so the DP stops near 0.5 GiB rather than after several.
MAX_DP_STATES = 1_000_000
# Floats in one numpy block, 128 KiB: a loop over the rows of a matrix takes
# max(1, BLOCK_FLOATS // columns) rows at a time, so the temporaries of the
# circle pairs, the membership blocks and the knapsack bounds stay under
# glibc's default mmap threshold and come from the heap rather than fresh
# pages on every solve.
BLOCK_FLOATS = 16_384
# The tile search's scale: the box is tiled only when it could hold more
# centers than this, its finest level has at most this many cells a side, the
# search starts with at most this many tiles and stops before a level's
# (tile, disk) pairs exceed this many per disk.  It sizes no block: changing
# it moves the search.
ELIGIBILITY_CHUNK = 512
# Slack of the knapsack bound in solve()'s pruning, relative to the largest
# possible sum of the objective's terms; far above the rounding error of
# adding those terms in different orders.
SCORE_RTOL = 1e-9


class SolverError(Exception):
    """Base class for placement-engine failures."""


class ResourceGuardError(SolverError, ValueError):
    """A requested computation exceeds the configured size ceiling: an input error."""


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
    t2 = _tenancy_gap(mvno_counts(scenario, assignment), scenario.targets, w.norm)
    t1 = float(assignment.total)
    t3 = sum(u.energy_cost for u, s in zip(scenario.users, assignment.served) if s)
    t4 = float(sum(1 for u, s in zip(scenario.users, assignment.served) if s and u.content_request))
    breakdown = TermBreakdown(t1, t2, float(t3), t4)
    objective = w.w1 * t1 - w.w2 * t2 + w.w3 * breakdown.energy_reward + w.w4 * t4
    return objective, breakdown


def covered_set(scenario: Scenario, placement: Sequence[float]) -> set[int]:
    """Ids of users whose QoS limit holds at the given (x, y, h) placement."""
    return _covered(scenario, scenario.users, placement)


def _covered(scenario: Scenario, users: Iterable[User], placement: Sequence[float]) -> set[int]:
    """Ids of the ``users`` whose scalar path loss at (x, y, h) is within their threshold."""
    x, y, h = placement
    env, cfg = scenario.environment, scenario.channel
    return {
        u.id
        for u in users
        if path_loss(h, math.hypot(u.x - x, u.y - y), env, cfg) <= u.max_path_loss_db
    }


def select_users(scenario: Scenario, eligible: Iterable[int]) -> Assignment:
    """Exact best subset of the eligible users under the capacity budget.

    Maximizes the scenario objective over all subsets of ``eligible`` whose
    total resource demand fits the capacity.  Ties break toward more served
    users, then the lexicographically smallest served id set.  Raises
    ``ResourceGuardError`` when the selection DP would hold more than
    ``MAX_DP_STATES`` states.
    """
    by_id = {u.id: u for u in scenario.users}
    ids = sorted(set(eligible))
    unknown = [i for i in ids if i not in by_id]
    if unknown:
        raise KeyError(f"eligible ids not in scenario: {unknown}")
    chosen = _choose(scenario, [by_id[i] for i in ids])
    return assignment_from_ids(scenario, chosen)


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

    The classes are taken tenant by tenant, or as one group when w2 = 0.
    Inside a tenant the DP state is (L2 gap S, scaled resource usage, the
    tenant's served count c); the usage stays 0 when capacity cannot bind.
    When a tenant ends, even one with no eligible user, (c - T)^2 adds to S
    or |c - T| to the entry's own L1 gap, and c is dropped.  An entry's value
    is w1*t1 - w2*t2 + its w3/w4 reward, from exact counts, so equal
    objectives stay equal in floats.  Each class of interchangeable users
    adds its first 0..k members in id order, since any c members of a class
    score alike and the first c are the lexicographically smallest.  A state
    keeps the greatest (value, served, mask): higher value, then more served,
    then the smaller id set; later classes set bits that neither compared
    mask holds, so the optimum and its tie-break survive.  Raises
    ``ResourceGuardError`` once a class holds more than ``MAX_DP_STATES``
    states, checked after each state it extends, so one large class cannot
    run far past the ceiling.
    """
    w, targets = scenario.weights, scenario.targets
    # Demands and capacity scaled by the lcm of their denominators: exact
    # integers, so the DP adds and compares ints rather than Fractions.
    demands, cap = _scaled(scenario.capacity, users)
    unconstrained = sum(demands) <= cap
    fair, l2 = w.w2 > 0, w.norm == L2
    norm = math.sqrt if l2 else float  # t2 from the integer gap
    groups = [_classes(users, w)]
    if fair:
        groups = [[k for k in groups[0] if users[k[0]].mvno_id == j] for j in range(len(targets))]
    # The user at sorted position p is mask bit m-1-p: among sets of one
    # size, the greater mask is the lexicographically smaller id tuple.
    m = len(users)
    # (L2 gap, used, c) -> (value, served, mask, w3/w4 reward, gap)
    states: dict[tuple[int, int, int], tuple[float, int, int, float, int]] = {
        (0, 0, 0): (0.0, 0, 0, 0.0, 0)
    }
    for j, group in enumerate(groups):
        for members in group:
            u = users[members[0]]
            demand = 0 if unconstrained else demands[members[0]]
            delta = w.w3 * u.energy_cost + w.w4 * (1.0 if u.content_request else 0.0)
            bits = [1 << (m - 1 - p) for p in members]
            grown = dict(states)
            for (s, used, c), (_, served, mask, reward, gap) in states.items():
                penalty = w.w2 * norm(gap)
                for i, bit in enumerate(bits, 1):
                    used += demand
                    if used > cap:
                        break
                    reward += delta
                    mask |= bit
                    key = (s, used, c + i if fair else 0)
                    value = w.w1 * (served + i) - penalty + reward
                    cand = (value, served + i, mask, reward, gap)
                    cur = grown.get(key)
                    if cur is None or cand > cur:
                        grown[key] = cand
                if len(grown) > MAX_DP_STATES:
                    raise ResourceGuardError(
                        f"the selection DP holds {len(grown)} states, "
                        f"above the {MAX_DP_STATES} ceiling"
                    )
            states = grown
        if fair:
            folded: dict[tuple[int, int, int], tuple[float, int, int, float, int]] = {}
            for (_, used, c), (_, served, mask, reward, gap) in states.items():
                gap += (c - targets[j]) ** 2 if l2 else abs(c - targets[j])
                key = (gap if l2 else 0, used, 0)
                cand = (w.w1 * served - w.w2 * norm(gap) + reward, served, mask, reward, gap)
                cur = folded.get(key)
                if cur is None or cand > cur:
                    folded[key] = cand
            states = folded
    mask = max(states.values())[2]
    return tuple(u.id for p, u in enumerate(users) if mask >> (m - 1 - p) & 1)


def _scaled(capacity: float, users: Sequence[User]) -> tuple[list[int], int]:
    """The users' demands and the capacity, scaled by the lcm of their denominators."""
    ratios = [u.resource_demand.as_integer_ratio() for u in users]
    cap_num, cap_den = capacity.as_integer_ratio()
    scale = math.lcm(cap_den, *(den for _, den in ratios))
    return [num * (scale // den) for num, den in ratios], cap_num * (scale // cap_den)


def _zero_result(scenario: Scenario, placement: tuple[float, float, float], radius: float) -> SolveResult:
    empty = Assignment((0,) * len(scenario.users))
    obj, breakdown = objective_value(scenario, empty)
    return SolveResult(placement, empty, obj, breakdown, mvno_counts(scenario, empty), radius)


class _Coverage(NamedTuple):  # what the coverage stage hands the scoring stage
    classes: list[list[int]]  # the partition it counts by, as positions in the users
    pts: np.ndarray  # candidate centers, sorted by x, then y
    disks: np.ndarray  # rows of x, y and r^2, a column per user in class order
    rows: np.ndarray  # each signature's first center row, ascending
    counts: np.ndarray  # and its count vector, a column per class
    search: _Search | None  # the tile search its centers come from; None for a box kept whole


def solve(scenario: Scenario, shared: SharedCoverage | None = None) -> SolveResult:
    """Best placement and assignment at h*, with the guarantees the module states.

    Sizes the disks, then runs the coverage stage on them (from ``shared``
    if given, made from scenarios that include this one) and the scoring.
    ``ResourceGuardError`` is raised before the candidate centers are
    enumerated when there could be more than ``MAX_SEARCH_POINTS``.  The
    coverage stage alone decides whether the box is tiled: when its centers
    outnumber ``ELIGIBILITY_CHUNK`` and the leaves of its quadtree
    (``_grid``), ``_search`` first drops the tiles whose knapsack bound is
    below a floor: the objective of a feasible set at one user position,
    less the ``SCORE_RTOL`` slack.  Centers are made only in the leaves
    left, and tested in blocks of centers sorted by x, at most
    ``BLOCK_FLOATS`` values with a column per user, against the users whose
    x-distance to the block's slab is within their radius; sets whose bound
    is below the floor are not scored.  A result below the floor means no
    set reaching it was first seen at a center where its members pass the
    loss check, and the solve reruns with the box as its only leaf, so the
    result is the one the whole box gives.
    Ties break toward more served users, then the lexicographically
    smallest center; a set must beat the all-zero assignment at the
    region's smallest corner.  One DEBUG line on the ``dronecell`` logger
    gives the tiles bounded, the leaves kept, the centers made against the
    m^2 + 8m + 4 bound, and whether the rerun ran.
    """
    env, cfg, users = scenario.environment, scenario.channel, scenario.users
    h_star, r_default = optimal_altitude(cfg.max_path_loss_db, env, cfg, scenario.region.h_bounds)
    # One radius per distinct threshold; the search sized the default one.
    sized = {cfg.max_path_loss_db: r_default}
    for q in {u.max_path_loss_db for u in users} - sized.keys():
        sized[q] = coverage_radius(h_star, q, env, cfg)
    radii = [sized[u.max_path_loss_db] for u in users]
    shared = shared or SharedCoverage([scenario])
    cov, knapsack, floor = shared(scenario, radii, h_star)
    result = _score(knapsack, cov, h_star, r_default, floor)
    fallback = result.objective < floor
    if fallback:
        whole = _coverage(users, radii, scenario.region, cov.classes)
        result = _score(knapsack, whole, h_star, r_default)
    log = logging.getLogger("dronecell")
    if log.isEnabledFor(logging.DEBUG):
        m = sum(r > 0 for r in radii)
        search = cov.search
        log.debug(
            "solve: %d tiles bounded, %d leaves kept, %d candidate centers of at most %d, "
            "fallback %s",
            0 if search is None else search.tiles,
            1 if search is None else int(search.kept.sum()),
            len(cov.pts),
            m * m + 8 * m + 4,
            "ran" if fallback else "not run",
        )
    return result


class SharedCoverage:
    """Coverage stages, each made once, on its first caller's radii, for scenarios sharing it.

    Scenarios with equal users, channel, environment and region share a
    stage.  When the box is tiled, it holds the centers of every leaf that
    any of them keeps, so each one sees all the centers of its own leaves.
    The stage is built with one knapsack per scenario sharing it, which the
    search, the floor and the scoring all read.  A call gives a scenario's
    stage, its knapsack and its search floor (-inf for a box kept whole); a
    scenario not among them is refused with ``ValueError``.
    """

    def __init__(self, scenarios: Iterable[Scenario]) -> None:
        self._scenarios = list(scenarios)
        keys = [(s.users, s.channel, s.environment, s.region) for s in self._scenarios]
        self._groups = [keys.index(key) for key in keys]  # each scenario's first layout-mate
        self._views: dict[int, tuple[_Coverage, _Knapsack, float]] = {}  # by scenario index

    def __call__(
        self, scenario: Scenario, radii: Sequence[float], h_star: float
    ) -> tuple[_Coverage, _Knapsack, float]:
        try:
            i = self._scenarios.index(scenario)
        except ValueError:
            raise ValueError("scenario not among those the coverage is shared by") from None
        if i not in self._views:  # the stage's classes separate each field any weights turn on
            mates = [j for j, g in enumerate(self._groups) if g == self._groups[i]]
            group = [self._scenarios[j] for j in mates]
            w2, w3, w4 = (max(getattr(s.weights, t) for s in group) for t in ("w2", "w3", "w4"))
            classes = _classes(scenario.users, ObjectiveWeights(w2=w2, w3=w3, w4=w4))
            knapsacks = [_knapsack(s, classes) for s in group]
            stage = _coverage(scenario.users, radii, scenario.region, classes, knapsacks, h_star)
            floors = stage.search.floors if stage.search else (-math.inf,) * len(mates)
            self._views.update({j: (stage, k, f) for j, k, f in zip(mates, knapsacks, floors)})
        return self._views[i]


def _disks(users: Sequence[User], radii: Sequence[float], order: Sequence[int]) -> np.ndarray:
    """Rows of x, y and squared radius, one column per user in ``order``.

    A zero radius means the user fails QoS even at the nadir; the negative
    sentinel keeps it out of every disk, including candidates at distance 0.
    """
    return np.array(
        [
            [u.x for u in users],
            [u.y for u in users],
            [r * r * (1.0 + DISK_EPS) if r > 0 else -1.0 for r in radii],
        ]
    )[:, order]


def _coverage(
    users: Sequence[User],
    radii: Sequence[float],
    region: PlacementRegion,
    classes: list[list[int]],
    knapsacks: Sequence[_Knapsack] = (),
    h_star: float = math.nan,
) -> _Coverage:
    """The coverage stage of ``solve()``: the disks of ``radii``, counted by ``classes``.

    The stage's one column layout is the users in class order, each class a
    run of columns starting at one of its ``runs``; its ``disks``, the tile
    search, the floor and the scoring all read that layout.  It alone
    decides tiling: with ``knapsacks`` over ``classes``, of scenarios that
    share these users and region, when ``_grid`` gives a grid, ``_search``
    bounds its tiles for them at ``h_star`` and ``_candidate_centers``
    makes centers only in the cells kept, from the users whose disk meets
    one.  ``_held_blocks`` tests the centers in blocks of ``_block_rows``
    rows, one column per user, so a block's float temporaries hold at most
    ``BLOCK_FLOATS`` values; the narrower the block, the narrower its
    x-slab and the fewer users near it.
    """
    order = [p for members in classes for p in members]
    runs = np.cumsum([0, *map(len, classes)])[:-1]
    disks = _disks(users, radii, order)
    circles, pairs, count = _circle_pairs(users, radii)
    grid = _grid(region.x_bounds, region.y_bounds, circles[:, 2], count) if knapsacks else None
    search = None if grid is None else _search(knapsacks, disks, runs, h_star, grid)
    # The circles run in user position order, the search's columns in class order.
    makers = None if search is None else search.meeting[np.argsort(order)][np.asarray(radii) > 0]
    leaves = None if search is None else (grid, search.kept, makers)
    pts = _candidate_centers(circles, pairs, region.x_bounds, region.y_bounds, leaves)
    count_type = np.min_scalar_type(len(order))
    seen: dict[bytes, int] = {}
    for start, held in _held_blocks(pts, disks, runs):
        _first_sightings(held, seen, start)
    counts = np.frombuffer(b"".join(seen), dtype=count_type).reshape(len(seen), len(classes))
    rows = np.fromiter(seen.values(), dtype=np.intp, count=len(seen))
    return _Coverage(classes, pts, disks, rows, counts, search)


def _held_blocks(
    pts: np.ndarray, disks: np.ndarray, runs: np.ndarray
) -> Iterator[tuple[int, np.ndarray]]:
    """The members of each point's disks, per run of columns, in blocks of ``_block_rows`` rows.

    ``pts`` are sorted by x; a run of the columns of ``disks`` starts at
    each of ``runs``, and ``_run_sums`` sums each block's membership
    flags over them.  Yields each block's first row and its counts, in the
    smallest unsigned type that holds a column count.
    """
    ux, r2 = disks[0], disks[2]
    count_type = np.min_scalar_type(len(ux))
    chunk = _block_rows(len(ux))
    # One buffer serves every block, so the heap does not shrink and regrow.
    blank = np.zeros((min(len(pts), chunk), len(ux)), dtype=bool)
    for start in range(0, len(pts), chunk):
        bx, by = pts[start : start + chunk].T
        # The points are sorted by x, so the block spans [bx[0], bx[-1]].  A
        # user whose x-gap to that slab (ux clipped into it, less ux) has
        # gap^2 > r2 is in none of the block's disks: rounding is monotone,
        # so the rounded d2 is at least the rounded gap^2.
        gap = np.minimum(np.maximum(ux, bx[0]), bx[-1])
        gap -= ux
        near = (gap * gap <= r2).nonzero()[0]
        inside = blank[: len(bx)]
        inside[:] = False
        inside[:, near] = _inside(bx[:, None], by[:, None], disks[:, near])
        yield start, _run_sums(inside, runs, count_type)


def _run_sums(matrix: np.ndarray, starts: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """The sums, as ``dtype``, of the runs of ``matrix``'s columns that start at each of ``starts``.

    ``starts`` ascend from 0.  When every run is one column, the sums are
    the columns cast, which costs a copy rather than ``np.add.reduceat``.
    """
    if len(starts) == matrix.shape[1]:
        return matrix.astype(dtype, copy=False)
    return np.add.reduceat(matrix, starts, axis=1, dtype=dtype)


def _block_rows(columns: int) -> int:
    """Rows of a matrix ``columns`` wide that one block of ``BLOCK_FLOATS`` holds; at least one."""
    return max(1, BLOCK_FLOATS // max(columns, 1))


def _first_sightings(held: np.ndarray, seen: dict[bytes, int], start: int = 0) -> dict[bytes, int]:
    """``seen`` with each new row of ``held`` added, by its bytes, at its index plus ``start``."""
    signatures = held.view(np.dtype((np.void, held.strides[0]))).ravel().tolist()
    for k, signature in enumerate(signatures, start):
        if signature not in seen:
            seen[signature] = k
    return seen


class _Knapsack(NamedTuple):
    """A scenario's classes over a coverage stage, and its fractional knapsack (Dantzig) bound.

    A served user adds at most value = w1 + w2' + w3*e + w4*kappa, less w2'
    times the summed targets (the tenancy gap is at least their sum less k
    for k served, over sqrt(M) under L2).  A set's bound is the fractional
    knapsack of its members' values.  Every field the value reads separates
    ``_classes``, so a class has one value and one demand; classes run in
    descending value per unit demand, so a set's fill is a running sum.
    The scenario's classes are unions of the stage's: ``columns`` lists the
    stage's classes with each of the scenario's a run, in that order, and
    ``held`` sums a stage's counts into the scenario's classes.
    """

    scenario: Scenario
    columns: np.ndarray  # the stage's classes, each of the scenario's a run, in bound order
    starts: np.ndarray  # where each of the scenario's classes' run of ``columns`` starts
    users: list[User]  # the scenario's users in the stage's column order
    values: np.ndarray  # a member's value, per class
    demands: np.ndarray  # and its demand
    base: float  # w2' times the summed targets
    slack: float  # the bound prunes a set only when below a score less this

    def held(self, counts: np.ndarray) -> np.ndarray:
        """Each row of ``counts``, its members per stage class, as its members per class."""
        return _run_sums(counts.take(self.columns, axis=1), self.starts, counts.dtype)

    def bound(self, held: np.ndarray) -> np.ndarray:
        """The bound of each row of ``held``, its members per class.

        Each class's share of its members: all while the fill stays within
        the capacity, then the part that still fits, then none.  A fill or
        quotient that overflows to +-inf clips to the same share.
        """
        with np.errstate(over="ignore"):
            fill = np.cumsum(held * self.demands, axis=1)
            share = np.clip((self.scenario.capacity - fill) / self.demands + held, 0, held)
        return np.einsum("ij,j->i", share, self.values) - self.base


def _knapsack(scenario: Scenario, classes: list[list[int]]) -> _Knapsack:
    """The knapsack of ``scenario`` over a stage counted by ``classes`` (positions in its users)."""
    firsts = [scenario.users[members[0]] for members in classes]
    w = scenario.weights
    w2 = w.w2 / math.sqrt(scenario.num_mvnos) if w.norm == L2 else w.w2

    def value(u: User) -> float:
        return w.w1 + w2 + w.w3 * u.energy_cost + w.w4 * (1.0 if u.content_request else 0.0)

    def density(group: list[int]) -> float:
        return value(firsts[group[0]]) / firsts[group[0]].resource_demand

    # The scenario's classes are unions of the given ones.
    groups = sorted(_classes(firsts, w), key=density, reverse=True)
    values = np.array([value(firsts[group[0]]) for group in groups])
    demands = np.array([firsts[group[0]].resource_demand for group in groups])
    columns = np.array([c for group in groups for c in group], dtype=np.intp)
    starts = np.cumsum([0, *map(len, groups)])[:-1]
    users = [scenario.users[p] for members in classes for p in members]
    # The bound, ``select_users`` and ``objective_value`` add the same terms in
    # different orders; the slack covers the rounding, relative to their largest sum.
    slack = SCORE_RTOL * (1.0 + term_magnitude(scenario))
    base = w2 * sum(scenario.targets)
    return _Knapsack(scenario, columns, starts, users, values, demands, base, slack)


def _score(
    knapsack: _Knapsack, cov: _Coverage, h_star: float, radius: float, floor: float = -math.inf
) -> SolveResult:
    """The scoring stage of ``solve()`` at h*, for the knapsack's scenario on the stage ``cov``.

    Sets whose bound is below ``floor`` less the knapsack's slack are not scored.
    """
    classes, pts, disks, rows, counts, _ = cov
    scenario = knapsack.scenario
    region = scenario.region
    zero = _zero_result(scenario, (region.x_bounds[0], region.y_bounds[0], h_star), radius)

    # Summed into fewer classes, signatures can repeat; a summed signature's
    # first sighting is a coverage signature's.
    counts = knapsack.held(counts)
    if counts.shape[1] < len(classes):
        first = list(_first_sightings(counts, {}).values())
        rows, counts = rows[first], counts[first]
    bound, chunk = np.empty(len(rows)), _block_rows(counts.shape[1])
    for start in range(0, len(rows), chunk):
        bound[start : start + chunk] = knapsack.bound(counts[start : start + chunk])
    size = counts.sum(axis=1, dtype=np.intp)

    # The winner is the greatest (objective, served, -row); the zero
    # assignment covers the empty set and ranks as row -1, so a set must beat
    # it outright.  Nonempty sets go highest bound first, then more members,
    # then center order (lexsort is stable); once a bound is below the best
    # score, so are all that follow.
    win = (zero.objective, 0, 1, zero.assignment, zero.term_breakdown)
    nonempty = size.nonzero()[0]
    ranked = nonempty[np.lexsort((-size[nonempty], -bound[nonempty]))]
    for i, b in zip(rows[ranked].tolist(), bound[ranked].tolist()):
        if b < max(win[0], floor) - knapsack.slack:
            break
        # At a radius exactly on its threshold's boundary, DISK_EPS can take in
        # a user just past it, so the loss itself decides who is eligible.
        x, y = pts[i].tolist()
        members = [knapsack.users[j] for j in _inside(x, y, disks).nonzero()[0]]
        assignment = select_users(scenario, _covered(scenario, members, (x, y, h_star)))
        obj, breakdown = objective_value(scenario, assignment)
        win = max(win, (obj, assignment.total, -i, assignment, breakdown))
    obj, _, neg_index, assignment, breakdown = win
    if neg_index == 1:
        return zero
    x, y = pts[-neg_index].tolist()
    return SolveResult(
        (x, y, h_star), assignment, obj, breakdown, mvno_counts(scenario, assignment), radius
    )


class _Grid(NamedTuple):
    """The finest level of a quadtree over the box, 2^depth cells a side.

    A tile at level l spans 2^(depth - l) cells a side.  A point belongs to
    the cell whose edges [e_k, e_k+1) hold it, and the cells at the box's
    far edges are closed, so each point of the box is in exactly one.
    """

    xe: np.ndarray  # cell edges in x, from the box's near edge to its far one
    ye: np.ndarray
    depth: int

    def gaps(self, level: int, disks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Squared gaps from each disk center to each column, then each row, of a level."""
        span = 1 << (self.depth - level)
        gaps = []
        for edges, u in ((self.xe, disks[0]), (self.ye, disks[1])):
            gap = np.minimum(np.maximum(u, edges[:-1:span, None]), edges[span::span, None])
            gap -= u
            gaps.append(np.multiply(gap, gap, out=gap))
        return gaps[0], gaps[1]

    def cells(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The cell of each point of the box.

        The cell is estimated by scaling, then moved by one where the
        scaled value rounded across an edge, so it agrees with the edges.
        """
        cells = []
        for edges, v in ((self.xe, pts[:, 0]), (self.ye, pts[:, 1])):
            last = len(edges) - 2
            span = edges[-1] - edges[0]
            if not span:  # a box of no width: every cell is [e, e], and the last holds e
                cells.append(np.full(len(v), last))
                continue
            k = ((v - edges[0]) * ((last + 1) / span)).astype(np.intp)
            np.clip(k, 0, last, out=k)
            k -= v < edges.take(k)
            k += (v >= edges.take(k + 1)) & (k < last)
            cells.append(k)
        return cells[0], cells[1]


def _grid(
    x_bounds: tuple[float, float], y_bounds: tuple[float, float], radii: np.ndarray, count: int
) -> _Grid | None:
    """The finest level of a quadtree over the box, or None to keep the box as the only leaf.

    A tile splits while its side is at least r_min / 4, with r_min the
    smallest of the positive ``radii``, so leaves end with a side near
    r_min / 8; the
    finest level has at most ``ELIGIBILITY_CHUNK`` cells a side, so a
    level's table of gaps has at most that many rows.  The box is tiled
    only when the ``count`` centers it could hold outnumber both the leaves
    and ``ELIGIBILITY_CHUNK``: below one center a leaf, or with few centers
    in all, bounding the tiles costs more than testing the centers.
    """
    if count <= ELIGIBILITY_CHUNK:
        return None
    (x_lo, x_hi), (y_lo, y_hi) = x_bounds, y_bounds
    # The least depth with 2^depth > 4 side / r_min, or the cap.
    ratio = min(4.0 * max(x_hi - x_lo, y_hi - y_lo) / float(radii.min()), ELIGIBILITY_CHUNK)
    depth = min(int(ratio).bit_length(), ELIGIBILITY_CHUNK.bit_length() - 1)
    if not depth or count <= 4**depth:
        return None
    n = 1 << depth
    return _Grid(np.linspace(x_lo, x_hi, n + 1), np.linspace(y_lo, y_hi, n + 1), depth)


def _reach(disks: np.ndarray) -> np.ndarray:
    """``disks`` with each squared radius widened for the tile test.

    A candidate center lies on the circles that make it only up to rounding
    of the largest squared radius times a few ulps, so the margin is 1e-9 of
    the squared radius plus 1e-9 of the largest one; it always includes
    ``DISK_EPS``.  Disks of no radius stay empty.
    """
    r2 = disks[2]
    reach = np.where(r2 > 0, r2 * (1.0 + 1e-9) + 1e-9 * r2.max(), -1.0)
    return np.array([disks[0], disks[1], reach])


class _Search(NamedTuple):  # what the tile search of a box keeps
    kept: np.ndarray  # the grid's cells any of its scenarios keeps, as a grid of flags
    meeting: np.ndarray  # whether each stage column's disk meets a kept cell
    floors: tuple[float, ...]  # each scenario's floor, in their order
    tiles: int  # tiles bounded


def _search(
    knapsacks: Sequence[_Knapsack], disks: np.ndarray, runs: np.ndarray, h_star: float, grid: _Grid
) -> _Search:
    """The quadtree search over the box of the ``knapsacks``' scenarios, which share one stage.

    ``disks`` and ``runs`` are the stage's columns and its classes' runs of
    them (``_coverage``).  It bounds each scenario's tiles level by level,
    down to the leaves of ``grid``, counting the (tile, stage class) pairs
    of the disks that meet each tile and summing them into the scenario's
    classes with its knapsack's ``held``.  A tile holds the users whose disk
    meets it; every set realized in it is a subset of them, and the
    knapsack bound is monotone, so their bound bounds every center in it.  A
    tile whose bound is below the scenario's floor less the slack is
    dropped, with its children.  The floor, set before the first level, is
    the objective of a greedy feasible set at one user position
    (``_floor``), less the slack; a result at or above it is the one the
    whole box gives.  Bounds are taken in blocks of ``_block_rows`` tiles.
    """
    leaves = np.zeros((len(grid.xe) - 1, len(grid.ye) - 1), dtype=bool)
    columns, width = disks.shape[1], len(runs)
    meeting = np.zeros(columns, dtype=bool)
    reach = _reach(disks)
    class_of = np.repeat(np.arange(width), np.diff(runs, append=columns))  # each column's class
    chunk = _block_rows(width)
    floors, tiles = [], 0
    for knapsack in knapsacks:
        floor = _floor(knapsack, disks, runs, h_star) - knapsack.slack
        floors.append(floor)
        # The tiles of a level as cell indices, and (tile, column) pairs sorted
        # by tile: the disks that meet each tile.  The search starts three
        # levels above the leaves, with tiles about r_min wide, since wider
        # ones seldom fall below the floor, and with at most ELIGIBILITY_CHUNK
        # tiles.  A kept tile splits in 4: child 2a + b of tile t is tile
        # (2a + b) * len(ix) + t.  A level stops the search when its children
        # could hold more than ELIGIBILITY_CHUNK pairs per disk.
        level = max(min(grid.depth - 3, (ELIGIBILITY_CHUNK.bit_length() - 1) // 2), 1)
        ix, iy = np.divmod(np.arange(4**level), 1 << level)
        at = np.repeat(np.arange(4**level), columns)
        col = np.tile(np.arange(columns), 4**level)
        while True:
            gx, gy = grid.gaps(level, reach)
            d2 = gx.take(ix.take(at) * columns + col)
            d2 += gy.take(iy.take(at) * columns + col)
            hit = (d2 <= reach[2].take(col)).nonzero()[0]
            at, col = at.take(hit), col.take(hit)
            bound = np.empty(len(ix))
            ends = np.searchsorted(at, range(0, len(ix) + chunk, chunk))
            for k, start in enumerate(range(0, len(ix), chunk)):
                part = slice(ends[k], ends[k + 1])
                size = min(chunk, len(ix) - start)
                pairs = (at[part] - start) * width + class_of.take(col[part])
                held = np.bincount(pairs, minlength=size * width).reshape(size, width)
                bound[start : start + size] = knapsack.bound(knapsack.held(held))
            tiles += len(ix)
            alive = bound >= floor - knapsack.slack
            kept = alive.take(at).nonzero()[0]
            at, col = (np.cumsum(alive) - 1).take(at.take(kept)), col.take(kept)
            ix, iy = ix[alive], iy[alive]
            if level == grid.depth or 4 * len(at) > ELIGIBILITY_CHUNK * columns:
                break
            at = (at + len(ix) * np.arange(4)[:, None]).ravel()
            col = np.concatenate((col,) * 4)
            ix, iy = 2 * ix, 2 * iy
            ix = np.concatenate((ix, ix, ix + 1, ix + 1))
            iy = np.concatenate((iy, iy + 1, iy, iy + 1))
            level += 1
        meeting[col] = True
        cells = np.zeros((1 << level, 1 << level), dtype=bool)
        cells[ix, iy] = True
        span = 1 << (grid.depth - level)
        leaves |= cells.repeat(span, axis=0).repeat(span, axis=1)
    return _Search(leaves, meeting, tuple(floors), tiles)


def _floor(knapsack: _Knapsack, disks: np.ndarray, runs: np.ndarray, h_star: float) -> float:
    """The objective a search's floor is set from: a greedy feasible set at a user position.

    It is -inf with no user position in the box.  ``disks`` and ``runs``
    are the stage's columns and its classes' runs of them.  The knapsack's
    order of the columns is by their stage class's place in its
    ``columns``, then by column.  The position is the user in the box whose
    members have the highest bound, the first in that order of those that
    tie; the positions are tested by ``_held_blocks``, sorted by x.  Members
    are taken as the scoring stage takes them at ``h_star``: in the disks,
    and within their threshold by the scalar loss; then each in that order
    if it still fits the capacity.
    """
    scenario = knapsack.scenario
    (x_lo, x_hi), (y_lo, y_hi) = scenario.region.x_bounds, scenario.region.y_bounds
    x, y, r2 = disks
    spots = ((r2 > 0) & (x_lo <= x) & (x <= x_hi) & (y_lo <= y) & (y <= y_hi)).nonzero()[0]
    if not len(spots):
        return -math.inf
    spots = spots[np.argsort(x[spots], kind="stable")]
    bound = np.empty(len(spots))
    for start, held in _held_blocks(disks[:2, spots].T, disks, runs):
        bound[start : start + len(held)] = knapsack.bound(knapsack.held(held))
    place = np.argsort(knapsack.columns).repeat(np.diff(runs, append=len(x)))
    tied = spots[bound == bound.max()]
    p = tied[np.lexsort((tied, place[tied]))[0]]
    inside = _inside(x[p], y[p], disks).nonzero()[0]
    members = [knapsack.users[j] for j in inside[np.argsort(place[inside], kind="stable")].tolist()]
    ids = _covered(scenario, members, (x[p], y[p], h_star))
    members = [u for u in members if u.id in ids]
    demands, cap = _scaled(scenario.capacity, members)
    chosen, used = [], 0
    for u, demand in zip(members, demands):
        if used + demand <= cap:
            chosen.append(u.id)
            used += demand
    return objective_value(scenario, assignment_from_ids(scenario, chosen))[0]


def _inside(px: np.ndarray, py: np.ndarray, disks: np.ndarray) -> np.ndarray:
    """Whether points (px, py) lie in disk columns (x, y, r^2) of ``disks``, broadcast.

    The one membership test of ``solve()``: its eligibility blocks, score-time
    member lists and search floor all call it, so all see the same bits.
    """
    d2 = px - disks[0]
    d2 *= d2
    dy2 = py - disks[1]
    d2 += np.multiply(dy2, dy2, out=dy2)
    return d2 <= disks[2]


def _circle_pairs(
    users: Sequence[User], radii: Sequence[float]
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray], int]:
    """The coverage circles, the pairs of them that can cross, and a bound on their centers.

    Circles are rows of (x, y, r) for the users with a positive radius, and
    the pairs are two arrays of rows i < j in row-major order, tested over
    the upper triangle only, in blocks of rows that ``_block_rows`` sizes.
    The bound, 9m + 4 plus 2 per pair, counts the points
    ``_candidate_centers`` lists.  Raises ``ResourceGuardError`` when the m
    circles could give more than ``MAX_SEARCH_POINTS`` (m^2 + 8m + 4).
    """
    circles = np.array([(u.x, u.y, r) for u, r in zip(users, radii) if r > 0]).reshape(-1, 3)
    m = len(circles)
    if m * m + 8 * m + 4 > MAX_SEARCH_POINTS:
        raise ResourceGuardError(
            f"{m} coverable users give up to {m * m + 8 * m + 4} candidate centers, "
            f"above the {MAX_SEARCH_POINTS} ceiling"
        )
    x, y, r = circles.T
    blocks, start = [], 0
    while start < m - 1 or not blocks:  # the last row has no j > i; below m = 2, one empty block
        # Rows i of the block against columns j > start.  The pairs that can
        # cross are tested on squared distances with a relative margin far
        # above their rounding error; the exact crossing test uses
        # math.hypot, as the scalar code does.
        rows, cols = slice(start, start + _block_rows(m - 1 - start)), slice(start + 1, None)
        dist2 = x[cols] - x[rows, None]
        dist2 *= dist2
        dy2 = y[cols] - y[rows, None]
        dist2 += np.multiply(dy2, dy2, out=dy2)
        bound = r[cols] + r[rows, None]
        bound *= bound * (1.0 + 1e-9)
        near = dist2 <= bound
        bound = r[cols] - r[rows, None]
        bound *= bound * (1.0 - 1e-9)
        near &= dist2 >= bound
        # Entry (a, k) is the pair (start + a, start + 1 + k), so i < j where
        # k >= a: the block's upper triangle, cut from the few pairs found
        # rather than masked over the whole block as np.triu would.
        i, j = np.nonzero(near)
        upper = j >= i
        blocks.append((i[upper] + start, j[upper] + (start + 1)))
        start = rows.stop
    # The blocks run down the rows, so joined they keep row-major order.
    i, j = blocks[0] if len(blocks) == 1 else map(np.concatenate, zip(*blocks))
    # Each user adds its position and up to 8 edge crossings, each pair 2.
    return circles, (i, j), 9 * m + 4 + 2 * len(i)


def _candidate_centers(
    circles: np.ndarray,
    pairs: tuple[np.ndarray, np.ndarray],
    x_bounds: tuple[float, float],
    y_bounds: tuple[float, float],
    leaves: tuple[_Grid, np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Horizontal positions that realize every maximal coverage set of ``circles``.

    Any nonempty intersection of coverage disks with the region box is
    convex; it contains a disk center, a box corner, or a boundary vertex
    (circle/circle or circle/edge crossing), all of which are enumerated,
    the circle/circle ones from the ``pairs`` that ``_circle_pairs`` gives.
    Returns the distinct points inside the box as a (k, 2) array sorted by
    x, then y, with none at all when there is no circle.  With ``leaves``,
    a grid, its kept cells and a flag per circle, only the flagged circles
    and the pairs of them make points, and only those in kept cells stay.

    The circle pairs run in numpy, with the float operations of the scalar
    formulas in the same order, so every point has the bits the scalar
    arithmetic gives.  Points are listed in a fixed order and stably
    sorted, so of equal points (0.0 and -0.0 alike) the first listed is
    kept.
    """
    if not len(circles):
        return np.empty((0, 2))
    x_lo, x_hi = x_bounds
    y_lo, y_hi = y_bounds
    active, (i, j) = circles, pairs
    if leaves is not None:
        grid, kept, makers = leaves
        active = circles[makers]
        both = makers[i] & makers[j]
        i, j = i[both], j[both]
    # Disk centers and circle/edge crossings stay scalar: Python's ``**``
    # calls libm's pow, which numpy's square does not always match.
    flat: list[float] = []  # x0, y0, x1, y1, ...
    for cx, cy, r in active.tolist():
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
    c1, c2 = circles[i], circles[j]
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
    corners = np.array([(x_lo, y_lo), (x_lo, y_hi), (x_hi, y_lo), (x_hi, y_hi)])
    # Each pair's two crossings, in the order the scalar loop adds them.
    crossings = np.concatenate([mid + off, mid - off], axis=1).reshape(-1, 2)
    pts = np.concatenate([np.array(flat).reshape(-1, 2), crossings, corners])
    inside = (corners[0] <= pts) & (pts <= corners[-1])
    pts = pts[inside[:, 0] & inside[:, 1]]
    if leaves is not None:
        ix, iy = grid.cells(pts)
        pts = pts[kept[ix, iy]]
    # As complex numbers the points sort by x, then y, in one stable sort.
    z = np.sort(pts.view(np.complex128).ravel(), kind="stable")
    return z[np.concatenate(([True], z[1:] != z[:-1]))].view(np.float64).reshape(-1, 2)


def _axis_steps(lo: float, hi: float, step: float) -> tuple[float, bool]:
    """``_grid_axis``'s steps n from lo, and whether it appends hi after lo + n * step.

    n is a whole float, inf when a subnormal step overflows the quotient.
    """
    n = float(np.floor((hi - lo) / step + 1e-9))
    return n, lo + n * step < hi - 1e-9 * max(1.0, abs(hi))


def _grid_axis(lo: float, hi: float, step: float) -> list[float]:
    """Inclusive grid from lo to hi; both endpoints always present."""
    n, tail = _axis_steps(lo, hi, step)
    return [lo + k * step for k in range(int(n) + 1)] + [hi] * tail


def brute_force(scenario: Scenario, grid_step_xy: float, grid_step_h: float) -> SolveResult:
    """Independent oracle: exhaustive search over a region grid.

    Eligibility is evaluated straight from the channel's numpy loss
    ``path_loss_array`` at every grid point (no radius bisection or altitude
    search involved), and each distinct coverage set is scored once by
    ``select_users``.  Ties break toward more served users, then lower
    altitude, then the lexicographically smallest center.  Grid steps must
    be finite and positive.  A grid of more than ``MAX_SEARCH_POINTS``
    points, a subnormal step's included, is refused before its axes are
    built.
    """
    if not (0 < grid_step_xy < math.inf and 0 < grid_step_h < math.inf):
        raise ValueError("grid steps must be positive and finite")
    region = scenario.region
    axes = [
        (*region.x_bounds, grid_step_xy),
        (*region.y_bounds, grid_step_xy),
        (*region.h_bounds, grid_step_h),
    ]
    n_points = math.prod(n + 1 + tail for n, tail in (_axis_steps(*axis) for axis in axes))
    if n_points > MAX_SEARCH_POINTS:
        raise ResourceGuardError(
            f"oracle grid has {n_points:.0f} points, above the {MAX_SEARCH_POINTS} ceiling"
        )
    xs, ys, hs = (_grid_axis(*axis) for axis in axes)
    env, cfg = scenario.environment, scenario.channel
    users = scenario.users
    gx = np.repeat(np.asarray(xs), len(ys))
    gy = np.tile(np.asarray(ys), len(xs))
    ux = np.array([u.x for u in users])
    uy = np.array([u.y for u in users])
    q = np.array([u.max_path_loss_db for u in users])
    ground = np.hypot(gx[:, None] - ux[None, :], gy[:, None] - uy[None, :])

    # The winner's (objective, served), grid point and memo entry.  With no
    # users every row is empty, so the first grid point wins.
    best = None
    memo: dict[bytes, tuple[float, Assignment, TermBreakdown, tuple[int, ...]]] = {}
    for h in hs:
        loss, _ = path_loss_array(h, ground, env, cfg)
        eligible = loss <= q[None, :]
        packed = np.packbits(eligible, axis=1)
        _, first_idx = np.unique(packed, axis=0, return_index=True)
        for k in np.sort(first_idx):
            key = packed[k].tobytes()
            entry = memo.get(key)
            if entry is None:
                ids = {users[i].id for i in np.nonzero(eligible[k])[0]}
                assignment = select_users(scenario, ids)
                obj, breakdown = objective_value(scenario, assignment)
                entry = memo[key] = (obj, assignment, breakdown, mvno_counts(scenario, assignment))
            if best is None or (entry[0], entry[1].total) > best[0]:
                best = (entry[0], entry[1].total), (float(gx[k]), float(gy[k]), h), entry
    assert best is not None
    _, (x, y, h), (obj, assignment, breakdown, counts) = best
    radius = coverage_radius(h, cfg.max_path_loss_db, env, cfg)
    return SolveResult((x, y, h), assignment, obj, breakdown, counts, radius)

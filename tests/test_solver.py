"""Placement engine: covered sets, exact solve, and the grid oracle."""

import collections
import dataclasses
import fractions
import itertools
import logging
import math
import random
import re
import warnings

import numpy as np
import pytest

from dronecell import solver
from dronecell.channel import (
    ENVIRONMENTS,
    ChannelConfig,
    Environment,
    coverage_radius,
    optimal_altitude,
    path_loss,
)
from dronecell.fixtures import load_case24
from dronecell.scenario import (
    L1,
    L2,
    ObjectiveWeights,
    PlacementRegion,
    Scenario,
    ScenarioProfile,
    User,
    assignment_from_ids,
    generate_scenario,
    mvno_counts,
    term_magnitude,
    validate,
)
from dronecell.solver import (
    DISK_EPS,
    ResourceGuardError,
    SolveResult,
    _candidate_centers,
    _zero_result,
    brute_force,
    covered_set,
    objective_value,
    select_users,
    solve,
)

URBAN = ENVIRONMENTS["urban"]
SUBURBAN = ENVIRONMENTS["suburban"]
CFG = ChannelConfig()
# Slack for users sitting exactly on a coverage-circle boundary candidate.
QOS_SLACK_DB = 1e-6


def make_scenario(
    users,
    num_mvnos=2,
    targets=None,
    weights=None,
    capacity=None,
    region=None,
    env=URBAN,
):
    users = tuple(users)
    if targets is None:
        base, rest = divmod(len(users), num_mvnos)
        targets = tuple(base + (1 if j < rest else 0) for j in range(num_mvnos))
    return Scenario(
        users=users,
        num_mvnos=num_mvnos,
        targets=tuple(targets),
        weights=weights or ObjectiveWeights(),
        capacity=capacity if capacity is not None else float(max(len(users), 1)),
        region=region or PlacementRegion((-1000.0, 1000.0), (-1000.0, 1000.0), (20.0, 80.0)),
        environment=env,
        channel=ChannelConfig(),
    )


def test_covered_set_empty_when_threshold_unreachable():
    users = [User(id=0, x=0.0, y=0.0, mvno_id=0, max_path_loss_db=10.0)]
    sc = make_scenario(users, num_mvnos=1)
    assert covered_set(sc, (0.0, 0.0, 50.0)) == set()


def test_covered_set_user_under_platform():
    users = [User(id=0, x=0.0, y=0.0, mvno_id=0)]
    sc = make_scenario(users, num_mvnos=1)
    h_star, _ = optimal_altitude(100.0, URBAN, CFG, sc.region.h_bounds)
    assert path_loss(h_star, 0.0, URBAN, CFG) < 100.0
    assert covered_set(sc, (0.0, 0.0, h_star)) == {0}


def test_covered_set_shrinks_as_qos_tightens():
    rng = random.Random(77)
    for _ in range(20):
        n = rng.randint(1, 10)
        base = [
            User(
                id=i,
                x=rng.uniform(-500, 500),
                y=rng.uniform(-500, 500),
                mvno_id=0,
                max_path_loss_db=100.0,
            )
            for i in range(n)
        ]
        tighter = [
            User(
                id=u.id,
                x=u.x,
                y=u.y,
                mvno_id=0,
                max_path_loss_db=u.max_path_loss_db - rng.uniform(0.0, 10.0),
            )
            for u in base
        ]
        placement = (rng.uniform(-500, 500), rng.uniform(-500, 500), rng.uniform(20, 80))
        loose = covered_set(make_scenario(base, num_mvnos=1), placement)
        tight = covered_set(make_scenario(tighter, num_mvnos=1), placement)
        assert tight <= loose


def test_solve_single_user_places_at_nadir():
    users = [User(id=0, x=123.0, y=-45.0, mvno_id=0)]
    sc = make_scenario(users, num_mvnos=1)
    result = solve(sc)
    assert result.placement[0] == 123.0
    assert result.placement[1] == -45.0
    assert result.assignment.served == (1,)
    assert result.objective == 1.0


def test_solve_empty_scenario_pays_full_tenancy_gap():
    sc = make_scenario([], num_mvnos=2, targets=(12, 12), weights=ObjectiveWeights(1.0, 1.0))
    result = solve(sc)
    assert result.assignment.served == ()
    assert result.objective == -24.0
    assert result.placement[0] == -1000.0 and result.placement[1] == -1000.0


def test_solve_no_coverable_users_returns_zero_assignment():
    users = [User(id=i, x=float(i), y=0.0, mvno_id=0, max_path_loss_db=20.0) for i in range(4)]
    sc = make_scenario(users, num_mvnos=1, weights=ObjectiveWeights(1.0, 0.0))
    result = solve(sc)
    assert result.assignment.served == (0, 0, 0, 0)
    assert result.objective == 0.0


def test_solve_keeps_the_zero_assignment_at_the_corner_when_no_user_fits():
    # Every coverage set selects nobody and ties the zero assignment, which
    # no set beats outright, so the result stays at the region's corner.
    users = [User(id=i, x=100.0 * i, y=0.0, mvno_id=0, resource_demand=2.0) for i in range(3)]
    sc = make_scenario(users, num_mvnos=1, capacity=1.0, weights=ObjectiveWeights(1.0, 0.0))
    result = solve(sc)
    assert result == reference_solve(sc)[0]
    assert result.assignment.served == (0, 0, 0)
    assert result.placement[:2] == (-1000.0, -1000.0)


def test_solve_rejects_empty_or_underground_regions():
    # The box refuses itself, so no scenario can hand solve() one.
    with pytest.raises(ValueError, match=r"x_bounds must satisfy min <= max, got \(10.0, -10.0\)"):
        PlacementRegion((10.0, -10.0), (-10.0, 10.0), (20.0, 80.0))
    with pytest.raises(ValueError, match="h_bounds must start above ground, got 0.0"):
        PlacementRegion((-10.0, 10.0), (-10.0, 10.0), (0.0, 80.0))


def test_solve_tie_breaks_toward_lexicographic_center():
    # Two identical single-user cells far apart: the west option wins.
    users = [User(id=0, x=-900.0, y=0.0, mvno_id=0), User(id=1, x=900.0, y=0.0, mvno_id=0)]
    sc = make_scenario(users, num_mvnos=1, weights=ObjectiveWeights(1.0, 0.0))
    result = solve(sc)
    assert result.assignment.served_ids(sc) == (0,)
    assert result.placement[0] < 0.0


def test_solve_result_invariants_on_random_instances():
    rng = random.Random(424242)
    for trial in range(15):
        n = rng.randint(1, 14)
        j = rng.randint(1, 2)
        profile = ScenarioProfile(
            capacity=float(rng.randint(1, n)) if rng.random() < 0.4 else None,
            weights=ObjectiveWeights(
                w1=1.0, w2=float(rng.randint(0, 2)), w3=0.0, w4=0.0
            ),
        )
        sc = generate_scenario(
            9000 + trial, n, j, URBAN, field_size_m=1200.0, profile=profile
        )
        result = solve(sc)
        x, y, h = result.placement
        assert sc.region.x_bounds[0] <= x <= sc.region.x_bounds[1]
        assert sc.region.y_bounds[0] <= y <= sc.region.y_bounds[1]
        assert sc.region.h_bounds[0] <= h <= sc.region.h_bounds[1]
        demand = sum(
            u.resource_demand for u, s in zip(sc.users, result.assignment.served) if s
        )
        assert demand <= sc.capacity + 1e-9
        for u, s in zip(sc.users, result.assignment.served):
            if s:
                loss = path_loss(h, math.hypot(u.x - x, u.y - y), URBAN, CFG)
                assert loss <= u.max_path_loss_db + QOS_SLACK_DB
        obj, breakdown = objective_value(sc, result.assignment)
        assert result.objective == obj
        assert result.term_breakdown == breakdown
        assert result.mvno_counts == mvno_counts(sc, result.assignment)


def test_solve_is_deterministic():
    sc = generate_scenario(77, 18, 2, URBAN)
    assert solve(sc) == solve(sc)


def test_solve_matches_oracle_with_count_objective():
    # Pure coverage maximization: the exact count must match the oracle's.
    profile = ScenarioProfile(weights=ObjectiveWeights(1.0, 0.0, 0.0, 0.0))
    for seed in (501, 502, 503):
        sc = generate_scenario(seed, 10, 2, URBAN, field_size_m=600.0, profile=profile)
        got = solve(sc)
        want = brute_force(sc, 10.0, 10.0)
        assert got.total_served == want.total_served
        assert got.objective >= want.objective


def two_users(q0, q1, d, h_bounds):
    """One tenant: users at (0, 0) and (d, 0), thresholds q0 and q1, on [0, d] x [-1, 1]."""
    users = [
        User(id=0, x=0.0, y=0.0, mvno_id=0, max_path_loss_db=q0),
        User(id=1, x=d, y=0.0, mvno_id=0, max_path_loss_db=q1),
    ]
    region = PlacementRegion((0.0, d), (-1.0, 1.0), h_bounds)
    return make_scenario(users, num_mvnos=1, region=region)


def bug_b():
    """ROADMAP item 2's bug B, and the oracle's placement that serves both users.

    At h = 100.5 m the radius of 100 dB is the inside end of its bisection,
    rb = 261.962890625 m, short of the true boundary r_true near 262.0084 m.
    The users sit rb + r_true apart, so a point holds both only if one of
    them is beyond rb from it, which no disk of solve() allows.
    """
    rb = coverage_radius(100.5, 100.0, URBAN, CFG)
    lo, hi = rb, rb + 1.0  # r_true, bisected to the last float
    while (lo + hi) / 2 not in (lo, hi):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if path_loss(100.5, mid, URBAN, CFG) <= 100.0 else (lo, mid)
    sc = two_users(100.0, 100.0, rb + lo, (100.0, 100.5))
    return sc, brute_force(sc, (rb + lo) / 2, 0.5).placement


def two_altitude_construction():
    """ROADMAP item 2's two users coverable together only between their thresholds' h*.

    With q = 97 and 103 dB on [20, 3000] m, r1 + r2 peaks near 570 m, 61.5 m
    above its best at {20, 3000} and the two h*; the users sit halfway
    between those two sums apart, and a point at the peak covers both.
    """
    h_bounds = (20.0, 3000.0)

    def reach(h):
        return coverage_radius(h, 97.0, URBAN, CFG) + coverage_radius(h, 103.0, URBAN, CFG)

    peak = max(np.arange(20.0, 3000.0, 10.0).tolist(), key=reach)
    altitudes = [*h_bounds, *(optimal_altitude(q, URBAN, CFG, h_bounds)[0] for q in (97.0, 103.0))]
    d = (reach(peak) + max(map(reach, altitudes))) / 2
    return two_users(97.0, 103.0, d, h_bounds), (coverage_radius(peak, 97.0, URBAN, CFG), 0.0, peak)


@pytest.mark.parametrize("reproducer", [bug_b, two_altitude_construction])
def test_item_2_reproducers_have_a_placement_serving_both_users(reproducer):
    sc, placement = reproducer()
    assert validate(sc) == []
    assert covered_set(sc, placement) == {0, 1}


@pytest.mark.xfail(strict=True, reason="solve() fixes h at h* and sizes disks by a bisection's inside end")
@pytest.mark.parametrize("reproducer", [bug_b, two_altitude_construction])
def test_solve_serves_both_users_of_the_item_2_reproducers(reproducer):
    sc, _ = reproducer()
    assert solve(sc).total_served == 2


def test_coverage_monotonicity_of_selection():
    # Growing the eligible set never lowers the best objective.
    rng = random.Random(31)
    sc = generate_scenario(88, 12, 2, URBAN)
    ids = [u.id for u in sc.users]
    for _ in range(25):
        small = {i for i in ids if rng.random() < 0.4}
        extra = {i for i in ids if rng.random() < 0.3}
        big = small | extra
        obj_small, _ = objective_value(sc, select_users(sc, small))
        obj_big, _ = objective_value(sc, select_users(sc, big))
        assert obj_big >= obj_small


def test_fairness_dominance_at_returned_placement():
    # With fairness on, the returned counts minimize the tenancy gap among
    # all feasible assignments with the same total at that placement.
    import itertools

    for seed in (61, 62, 63):
        sc = generate_scenario(seed, 9, 2, URBAN, field_size_m=800.0)
        result = solve(sc)
        eligible = sorted(covered_set(sc, result.placement))
        total = result.total_served
        best_gap = None
        for combo in itertools.combinations(eligible, total):
            counts = [0, 0]
            for i in combo:
                counts[sc.user_by_id(i).mvno_id] += 1
            gap = sum(abs(c - t) for c, t in zip(counts, sc.targets))
            best_gap = gap if best_gap is None else min(best_gap, gap)
        assert result.term_breakdown.tenancy_gap == best_gap


def test_brute_force_single_point_region():
    users = [User(id=0, x=5.0, y=5.0, mvno_id=0)]
    region = PlacementRegion((5.0, 5.0), (5.0, 5.0), (60.0, 60.0))
    sc = make_scenario(users, num_mvnos=1, region=region)
    result = brute_force(sc, 10.0, 10.0)
    assert result.placement == (5.0, 5.0, 60.0)
    assert result.assignment.served == (1,)


def test_brute_force_empty_scenario():
    sc = make_scenario([], num_mvnos=2, targets=(3, 4), weights=ObjectiveWeights(1.0, 2.0))
    result = brute_force(sc, 100.0, 20.0)
    assert result.objective == -2.0 * 7.0
    assert result.assignment.served == ()


def test_brute_force_grid_ends_at_the_top_of_the_window():
    # A step of 300 m does not divide [0, 1000]: the axis appends 1000, and
    # only there does the drone-cell reach a user 50 m inside its radius.
    assert solver._grid_axis(0.0, 1000.0, 300.0) == [0.0, 300.0, 600.0, 900.0, 1000.0]
    assert solver._grid_axis(0.0, 900.0, 300.0) == [0.0, 300.0, 600.0, 900.0]
    reach = coverage_radius(60.0, CFG.max_path_loss_db, URBAN, CFG)
    users = [User(id=0, x=1000.0 + reach - 50.0, y=0.0, mvno_id=0)]
    region = PlacementRegion((0.0, 1000.0), (0.0, 0.0), (60.0, 60.0))
    result = brute_force(make_scenario(users, num_mvnos=1, region=region), 300.0, 10.0)
    assert result.placement == (1000.0, 0.0, 60.0)
    assert result.assignment.served == (1,)


def test_brute_force_resource_guard():
    sc = generate_scenario(1, 3, 2, URBAN)
    with pytest.raises(ResourceGuardError):
        brute_force(sc, 0.1, 0.1)


def test_brute_force_refuses_a_grid_before_building_its_axes(monkeypatch):
    # The axes are Python lists: a 1e-9 m step would ask for about 2e12
    # floats per axis of this box, so an axis built before the size check
    # fails the wrapper instead of filling the memory.
    grid_axis = solver._grid_axis

    def bounded(lo, hi, step):
        assert (hi - lo) / step < solver.MAX_SEARCH_POINTS, "an axis was built before the check"
        return grid_axis(lo, hi, step)

    monkeypatch.setattr(solver, "_grid_axis", bounded)
    with pytest.raises(ResourceGuardError, match="ceiling"):
        brute_force(generate_scenario(1, 3, 2, URBAN), 1e-9, 10.0)
    # Small axes, too many points: 4,000 x 4,000 x 1.
    region = PlacementRegion((0.0, 3999.0), (0.0, 3999.0), (60.0, 60.0))
    sc = make_scenario([User(id=0, x=5.0, y=5.0, mvno_id=0)], num_mvnos=1, region=region)
    with pytest.raises(ResourceGuardError, match="oracle grid has 16000000 points"):
        brute_force(sc, 1.0, 1.0)


def test_a_size_refusal_is_an_input_error():
    # Callers catch one ValueError for every input error, size refusals included.
    assert issubclass(ResourceGuardError, ValueError)


def test_brute_force_rejects_bad_steps():
    # A NaN step used to fail in int(), and an infinite one to return the
    # placement (nan, nan, 20.0) or reach path_loss with a NaN altitude.
    sc = generate_scenario(1, 3, 2, URBAN)
    for step in (0.0, -1.0, math.nan, math.inf):
        for steps in ((step, 10.0), (10.0, step)):
            with pytest.raises(ValueError, match="grid steps must be positive and finite"):
                brute_force(sc, *steps)
    # 2000 / 1e-320 overflows to inf, which int() used to refuse with OverflowError.
    for steps in ((1e-320, 10.0), (10.0, 1e-320)):
        with pytest.raises(ResourceGuardError, match="oracle grid has inf points"):
            brute_force(sc, *steps)


def test_brute_force_is_deterministic():
    sc = generate_scenario(12, 8, 2, URBAN, field_size_m=600.0)
    assert brute_force(sc, 25.0, 20.0) == brute_force(sc, 25.0, 20.0)


def test_solve_handles_heterogeneous_qos():
    # Mixed per-user thresholds: the result must stay feasible and at least
    # match a coarse oracle.
    users = [
        User(id=0, x=-50.0, y=0.0, mvno_id=0, max_path_loss_db=95.0),
        User(id=1, x=60.0, y=10.0, mvno_id=1, max_path_loss_db=100.0),
        User(id=2, x=0.0, y=-40.0, mvno_id=0, max_path_loss_db=90.0),
        User(id=3, x=400.0, y=300.0, mvno_id=1, max_path_loss_db=98.0),
    ]
    sc = make_scenario(users, num_mvnos=2, region=PlacementRegion((-500.0, 500.0), (-500.0, 500.0), (20.0, 80.0)))
    result = solve(sc)
    x, y, h = result.placement
    for u, s in zip(sc.users, result.assignment.served):
        if s:
            loss = path_loss(h, math.hypot(u.x - x, u.y - y), URBAN, CFG)
            assert loss <= u.max_path_loss_db + QOS_SLACK_DB
    oracle = brute_force(sc, 20.0, 10.0)
    assert result.objective >= oracle.objective - 1e-9


def test_solve_serves_no_user_past_its_threshold_at_an_exact_disk_boundary():
    # With h* = 80 m and q = path_loss(80, r) for a bisection midpoint r,
    # coverage_radius returns r exactly, so the loss at the disk's edge is q
    # and the DISK_EPS margin reaches past it.  Two users sit r*f apart.  One
    # case, r = 162.5 and the second user at (211.25, 0.3), served both at
    # (105.4496..., 123.6391..., 80), where the second's loss was q + 1.4e-14 dB.
    region = PlacementRegion((-500.0, 800.0), (-500.0, 500.0), (20.0, 80.0))
    radii = (112.5, 125.0, 137.5, 150.0, 162.5, 175.0, 187.5)
    for r, f, y in itertools.product(radii, (1.05, 1.2, 1.3, 1.5, 1.7, 1.9), (0.0, 0.3, 7.0)):
        q = path_loss(80.0, r, URBAN, CFG)
        assert coverage_radius(80.0, q, URBAN, CFG) == r
        users = [
            User(id=0, x=0.0, y=0.0, mvno_id=0, max_path_loss_db=q),
            User(id=1, x=f * r, y=y, mvno_id=0, max_path_loss_db=q),
        ]
        sc = make_scenario(users, num_mvnos=1, targets=(2,), capacity=10.0, region=region)
        result = solve(sc)
        served = set(result.assignment.served_ids(sc))
        assert served <= covered_set(sc, result.placement), (r, f, y)


def test_solve_sizes_each_threshold_once(monkeypatch):
    # The altitude search sizes the default threshold's disk, and each other
    # threshold is sized once at h*, however many users share it.
    thresholds = []

    def counted(h, q, env, cfg):
        thresholds.append(q)
        return coverage_radius(h, q, env, cfg)

    monkeypatch.setattr(solver, "coverage_radius", counted)
    solve(load_case24())
    assert thresholds == []
    q = CFG.max_path_loss_db
    users = [
        User(id=i, x=40.0 * i - 150.0, y=(-1.0) ** i * 30.0, mvno_id=i % 2,
             max_path_loss_db=q + (0.0, -2.0, 3.0)[i % 3])
        for i in range(9)
    ]
    sc = make_scenario(users)
    assert solve(sc) == reference_solve(sc)[0]
    assert sorted(thresholds) == [q - 2.0, q + 3.0]


# So steep that exp(-b * (theta - a)) overflows below about 3.6 degrees.
STEEP = Environment("steep", 27.23, 30.0, 2.3, 34.0)


@pytest.mark.parametrize("env", [*ENVIRONMENTS.values(), STEEP], ids=lambda e: e.name)
def test_oracle_never_beats_solve_on_every_environment(env):
    # Criterion 4's instances, on every preset and on a sigmoid whose
    # exponent overflows at the grid's low elevations; no warning may fire.
    for seed in range(5):
        rng = random.Random(1300 + seed)
        users = [
            User(
                id=i,
                x=rng.uniform(-300.0, 300.0),
                y=rng.uniform(-300.0, 300.0),
                mvno_id=rng.randrange(2),
                energy_cost=rng.randint(0, 4) / 8.0,
                content_request=rng.random() < 0.3,
                resource_demand=float(rng.randint(1, 2)),
            )
            for i in range(rng.randint(1, 12))
        ]
        weights = ObjectiveWeights(
            w1=1.0,
            w2=rng.choice([0.0, 0.5, 1.0]),
            w3=rng.choice([0.0, 0.5]),
            w4=rng.choice([0.0, 0.25]),
            norm=rng.choice([L1, L2]),
        )
        region = PlacementRegion((-300.0, 300.0), (-300.0, 300.0), (20.0, 80.0))
        sc = make_scenario(
            users, weights=weights, capacity=float(rng.randint(3, 14)), region=region, env=env
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            oracle = brute_force(sc, 10.0, 10.0)
        assert oracle.objective <= solve(sc).objective + 1e-9


def reference_centers(users, radii, x_bounds, y_bounds):
    """Candidate centers by the scalar enumeration, as a set of (x, y).

    User positions, circle/box-edge crossings, circle/circle crossings
    (pairs in row order) and box corners, each kept if inside the box; the
    set keeps the first of equal points, so 0.0 and -0.0 merge.
    """
    x_lo, x_hi = x_bounds
    y_lo, y_hi = y_bounds
    pts = set()

    def add(x, y):
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


def center_instances():
    """Seeded inputs for the candidate-center enumeration.

    Half the instances draw positions and radii at random; the other half
    snap positions to a 50 m grid and draw radii from {0, 50, 100, 150} m,
    which gives tangent, concentric and coincident circles and circles
    tangent to the box edges; in half of those the radii move by one ulp, so
    circles nearly touch.  The random half adds pairs of circles whose
    radii make them tangent, outside or inside, at the distance
    ``math.hypot`` gives.  Positions reach past the +-500 m box, some
    users repeat the first position, some radii are zero, and some boxes and
    users sit at -0.0, so a -0.0 and a 0.0 coordinate must merge.
    """
    rng = random.Random(8080)
    for trial in range(300):
        snapped = trial % 2 == 1

        def coord():
            v = rng.uniform(-600.0, 600.0)
            return float(round(v / 50.0) * 50.0) if snapped else v

        pos = [(coord(), coord()) for _ in range(rng.randint(0, 30))]
        if pos and rng.random() < 0.3:
            pos += [pos[0], pos[0]]
        if rng.random() < 0.3:
            pos.append((-0.0, -0.0))
        if snapped:
            radii = [rng.choice((0.0, 50.0, 100.0, 150.0)) for _ in pos]
            if rng.random() < 0.5:  # one ulp off: circles that nearly touch
                radii = [math.nextafter(r, rng.choice((0.0, 1e9))) if r else r for r in radii]
        else:
            radii = [0.0 if rng.random() < 0.1 else rng.uniform(1.0, 300.0) for _ in pos]
            for _ in range(rng.randint(0, 3)):
                # Circles exactly tangent by math.hypot, outside or inside.
                x1, y1 = coord(), coord()
                x2, y2 = x1 + rng.uniform(-200.0, 200.0), y1 + rng.uniform(-200.0, 200.0)
                d = math.hypot(x2 - x1, y2 - y1)
                pos += [(x1, y1), (x2, y2)]
                radii += [d / 2.0, d / 2.0] if rng.random() < 0.5 else [2.0 * d, d]
        x_bounds = (-0.0, 400.0) if rng.random() < 0.3 else (-500.0, 500.0)
        y_bounds = (-300.0, -0.0) if rng.random() < 0.3 else (-500.0, 500.0)
        users = [User(id=i, x=x, y=y, mvno_id=0) for i, (x, y) in enumerate(pos)]
        yield users, radii, x_bounds, y_bounds


def block_sizes(*chunks):
    """Parametrize ``size`` by ``ELIGIBILITY_CHUNK`` values, each with its value as id, then small blocks.

    The chunk moves only the tile search.  A ``BLOCK_FLOATS`` of 1 puts one
    row in every block of circle pairs, of centers, of user positions and of
    knapsack bounds, and one of 40 a few rows, so those loops split at small
    n too.
    """
    cases = [pytest.param(("ELIGIBILITY_CHUNK", c), id=str(c)) for c in chunks]
    cases += [pytest.param(("BLOCK_FLOATS", b), id=f"block{b}") for b in (1, 40)]
    return pytest.mark.parametrize("size", cases)


def set_size(monkeypatch, size):
    """Patch ``size`` into the solver; returns a list of the rows of each knapsack bound taken."""
    monkeypatch.setattr(solver, *size)
    rows = []
    bound = solver._Knapsack.bound

    def counted(self, held):
        rows.append(len(held))
        return bound(self, held)

    monkeypatch.setattr(solver._Knapsack, "bound", counted)
    return rows


def check_bound_rows(size, rows):
    """Under a ``BLOCK_FLOATS`` of 1, every knapsack bound was taken on one row."""
    assert rows
    if size == ("BLOCK_FLOATS", 1):
        assert set(rows) == {1}


@block_sizes(3, solver.ELIGIBILITY_CHUNK)
def test_candidate_centers_equal_the_scalar_enumeration_bitwise(monkeypatch, size):
    monkeypatch.setattr(solver, *size)
    for users, radii, x_bounds, y_bounds in center_instances():
        circles, pairs, _ = solver._circle_pairs(users, radii)
        got = _candidate_centers(circles, pairs, x_bounds, y_bounds)
        want = np.array(sorted(reference_centers(users, radii, x_bounds, y_bounds)))
        want = want.reshape(-1, 2)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def reference_pairs(circles):
    """The rows i < j of ``circles`` whose disks can cross, one pair at a time, row by row.

    The same float operations and margins as the blocked prefilter, in Python floats.
    """
    pairs = []
    for i, (xi, yi, ri) in enumerate(circles.tolist()):
        for j in range(i + 1, len(circles)):
            xj, yj, rj = circles[j].tolist()
            dx, dy = xj - xi, yj - yi
            dist2 = dx * dx + dy * dy
            outer, inner = rj + ri, rj - ri
            if inner * (inner * (1.0 - 1e-9)) <= dist2 <= outer * (outer * (1.0 + 1e-9)):
                pairs.append((i, j))
    return pairs


@pytest.mark.parametrize("block", [1, 7, 100, solver.BLOCK_FLOATS])
@pytest.mark.parametrize("m", [0, 1, 2, 50])
def test_circle_pairs_equal_the_pairs_found_one_at_a_time(monkeypatch, m, block):
    # Blocks of 7 and 100 floats take several rows of the upper triangle at
    # a time, cut mid-matrix, so the corner below each block's diagonal is
    # dropped; the pairs of all blocks must come out in row-major order.
    monkeypatch.setattr(solver, "BLOCK_FLOATS", block)
    rng = random.Random(6060 + m)
    users, radii = [], []
    for k in range(m):
        x, y = rng.uniform(-500.0, 500.0), rng.uniform(-500.0, 500.0)
        if k % 5 == 4:  # concentric with, or tangent to, the previous circle
            x, y = users[-1].x, users[-1].y + rng.choice((0.0, radii[-1] + 60.0))
        users.append(User(id=k, x=x, y=y, mvno_id=0))
        radii.append(60.0 if k % 5 == 4 else rng.choice((0.0, rng.uniform(10.0, 300.0))))
    circles, (i, j), count = solver._circle_pairs(users, radii)
    want = reference_pairs(circles)
    assert i.dtype == j.dtype == np.intp
    assert list(zip(i.tolist(), j.tolist())) == want
    assert count == 9 * len(circles) + 4 + 2 * len(want)
    if m == 50:
        assert 0 < len(want) < len(circles) * (len(circles) - 1) // 2


@pytest.mark.parametrize("n", [120, 240])
def test_coverage_is_the_same_for_any_block_size(monkeypatch, n):
    # First sightings are keyed by the center's row and the slab filter is
    # sound for any block, so blocks of one row give the same stage bytes.
    sc = generate_scenario(7, n, 2, URBAN)
    h_star, radii = disks_of(sc)
    classes = solver._classes(sc.users, sc.weights)
    knapsacks, stages = [solver._knapsack(sc, classes)], []
    for block in (solver.BLOCK_FLOATS, 1):
        monkeypatch.setattr(solver, "BLOCK_FLOATS", block)
        stages.append(solver._coverage(sc.users, radii, sc.region, classes, knapsacks, h_star))
    default, single = stages
    assert len(default.rows) > 1
    for name in ("pts", "rows", "counts"):
        a, b = getattr(default, name), getattr(single, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_solve_refuses_more_candidate_centers_than_the_ceiling(monkeypatch):
    # Five coverable users give at most 5^2 + 8*5 + 4 = 69 candidate
    # centers; the user with an unreachable threshold does not count.
    users = [User(id=i, x=40.0 * i, y=0.0, mvno_id=0) for i in range(5)]
    users.append(User(id=5, x=0.0, y=0.0, mvno_id=0, max_path_loss_db=20.0))
    sc = make_scenario(users, num_mvnos=1)
    monkeypatch.setattr(solver, "MAX_SEARCH_POINTS", 68)
    with pytest.raises(ResourceGuardError, match="69 candidate centers"):
        solve(sc)
    monkeypatch.setattr(solver, "MAX_SEARCH_POINTS", 69)
    assert solve(sc).total_served > 0


def reference_coverage(sc):
    """Sorted candidate centers and their coverage, as one full matrix.

    Returns the altitude, the default radius, the (k, 2) centers in sorted
    order and the (k, n) matrix of which users each center covers.
    """
    env, cfg, region = sc.environment, sc.channel, sc.region
    h_star, r_default = optimal_altitude(cfg.max_path_loss_db, env, cfg, region.h_bounds)
    users = sc.users
    radii = [coverage_radius(h_star, u.max_path_loss_db, env, cfg) for u in users]
    pts = np.array(sorted(reference_centers(users, radii, region.x_bounds, region.y_bounds)))
    pts = pts.reshape(-1, 2)
    ux = np.array([u.x for u in users])
    uy = np.array([u.y for u in users])
    r2 = np.array([r * r * (1.0 + DISK_EPS) if r > 0 else -1.0 for r in radii])
    d2 = (pts[:, 0:1] - ux[None, :]) ** 2 + (pts[:, 1:2] - uy[None, :]) ** 2
    return h_star, r_default, pts, d2 <= r2[None, :]


def reference_solve(sc):
    """solve() with every distinct coverage set scored, as one full matrix.

    ``select_users`` and ``objective_value`` run on each distinct set in
    sorted candidate-center order, and only a strictly better (objective,
    total) replaces the best.  Returns the result and the number of sets
    scored.
    """
    h_star, r_default, pts, eligible = reference_coverage(sc)
    region, users = sc.region, sc.users
    best = _zero_result(sc, (region.x_bounds[0], region.y_bounds[0], h_star), r_default)
    if not len(pts):
        return best, 0
    packed = np.packbits(eligible, axis=1)
    void = np.ascontiguousarray(packed).view([("v", f"V{packed.shape[1]}")]).ravel()
    _, first_idx = np.unique(void, return_index=True)
    scored = 0
    for k in np.sort(first_idx):
        ids = {users[i].id for i in np.nonzero(eligible[k])[0]}
        if not ids:
            continue
        scored += 1
        assignment = select_users(sc, ids)
        obj, breakdown = objective_value(sc, assignment)
        if (obj, assignment.total) > (best.objective, best.total_served):
            best = SolveResult(
                (float(pts[k, 0]), float(pts[k, 1]), h_star),
                assignment,
                obj,
                breakdown,
                mvno_counts(sc, assignment),
                r_default,
            )
    return best, scored


def signature_instances():
    """Seeded instances whose users form classes of every size.

    Every combination of 1-3 MVNOs, w2 in {0, 1.5}, the L1 and L2 norms,
    capacity that binds or not, and four user kinds: uniform demand with the
    energy/content terms off (classes are the tenants, or everyone when
    w2 = 0), mixed demands, w3 > 0 with energy costs that all differ (every
    class a single user), and w3 = w4 = 0.5 with energy costs from {0.25,
    0.5} and content flags (classes form on the energy and content keys).
    Per-user thresholds differ in every instance.
    """
    rng = random.Random(3131)
    grid = ((1, 2, 3), (0.0, 1.5), (L1, L2), (False, True))
    shapes = itertools.chain(
        itertools.product(*grid, ("uniform", "mixed_demand", "energy")),
        itertools.product(*grid, ("classes",)),
    )
    for num_mvnos, w2, norm, binding, kind in shapes:
        n = rng.randint(6, 20)
        users = [
            User(
                id=i,
                x=rng.uniform(-400.0, 400.0),
                y=rng.uniform(-400.0, 400.0),
                mvno_id=rng.randrange(num_mvnos),
                max_path_loss_db=rng.uniform(94.0, 102.0),
                energy_cost=rng.choice((0.25, 0.5)) if kind == "classes" else rng.random(),
                content_request=rng.random() < 0.3,
                resource_demand=rng.choice((0.5, 1.0, 1.5)) if kind == "mixed_demand" else 1.0,
            )
            for i in range(n)
        ]
        w3 = 0.5 if kind in ("energy", "classes") else 0.0
        w4 = 0.5 if kind == "classes" else 0.0
        weights = ObjectiveWeights(1.0, w2, w3, w4, norm)
        capacity = float(rng.randint(1, n // 2)) if binding else None
        region = PlacementRegion((-500.0, 500.0), (-500.0, 500.0), (20.0, 80.0))
        yield kind, make_scenario(users, num_mvnos, weights=weights, capacity=capacity, region=region)


def count_selections(monkeypatch):
    """Replace ``solver.select_users`` with a wrapper recording each id set."""
    calls = []

    def counted(scenario, eligible):
        calls.append(frozenset(eligible))
        return select_users(scenario, eligible)

    monkeypatch.setattr(solver, "select_users", counted)
    return calls


@block_sizes(1, 3, solver.ELIGIBILITY_CHUNK)
def test_solve_scores_each_signature_once_and_matches_every_set_scored(monkeypatch, size):
    # A chunk of 1 keeps every box whole, and one of 3 tiles a box that could
    # hold more than 4 centers in four leaves.  Small blocks put the first
    # sighting of a signature in a later block; blocks of one row decide
    # every first sighting across blocks and take every bound alone.
    rows = set_size(monkeypatch, size)
    calls = count_selections(monkeypatch)
    skipped = collections.Counter()
    for kind, sc in signature_instances():
        want, scored = reference_solve(sc)
        calls.clear()
        assert solve(sc) == want
        assert len(set(calls)) == len(calls) <= scored
        skipped[kind] += scored - len(calls)
    # Classes and bound-order scoring save work in total on every kind.
    assert set(skipped) == {"uniform", "mixed_demand", "energy", "classes"}
    assert all(skipped.values())
    check_bound_rows(size, rows)


def bound_instances():
    """``signature_instances()``, then draws with w1 = 0 and the L2 norm at 3 MVNOs.

    With w1 = 0 a served user adds little beyond the tenancy term, so the
    bound leans on w2/sqrt(M), the L2 gap's share per user.
    """
    yield from signature_instances()
    rng = random.Random(4242)
    for _ in range(12):
        n = rng.randint(8, 20)
        users = [
            User(
                id=i,
                x=rng.uniform(-400.0, 400.0),
                y=rng.uniform(-400.0, 400.0),
                mvno_id=rng.randrange(3),
                max_path_loss_db=rng.uniform(94.0, 102.0),
                energy_cost=rng.random(),
                content_request=rng.random() < 0.3,
                resource_demand=rng.choice((0.1, 1.0 / 3.0, 1.0)),
            )
            for i in range(n)
        ]
        weights = ObjectiveWeights(0.0, rng.choice((1.0, 2.5)), rng.choice((0.0, 0.5)), 0.5, L2)
        targets = [rng.randint(1, n // 3) for _ in range(3)]
        capacity = rng.choice((float(n), rng.uniform(0.5, n / 3.0)))
        region = PlacementRegion((-500.0, 500.0), (-500.0, 500.0), (20.0, 80.0))
        yield "l2", make_scenario(users, 3, targets, weights, capacity, region)


def reference_bound(sc, ids):
    """Dantzig bound on the objective of any subset of ``ids``, user by user.

    Each user is worth value = w1 + w2' + w3*e + w4*kappa, with w2' = w2
    under L1 and w2/sqrt(M) under L2, less w2' times the summed targets;
    users are taken greedily by value per unit demand, the last one in part.
    """
    w = sc.weights
    w2 = w.w2 / math.sqrt(sc.num_mvnos) if w.norm == L2 else w.w2

    def value(u):
        return w.w1 + w2 + w.w3 * u.energy_cost + w.w4 * u.content_request

    room, bound = sc.capacity, -w2 * sum(sc.targets)
    for u in sorted(map(sc.user_by_id, ids), key=lambda u: value(u) / u.resource_demand, reverse=True):
        if room <= 0:
            break
        bound += min(1.0, room / u.resource_demand) * value(u)
        room -= u.resource_demand
    return bound


def test_solve_scores_sets_in_bound_order_and_no_set_beats_its_bound(monkeypatch):
    calls = count_selections(monkeypatch)
    for _, sc in bound_instances():
        w = sc.weights
        magnitude = (
            (w.w1 + w.w2 + w.w4) * len(sc.users)
            + w.w2 * sum(sc.targets)
            + w.w3 * sum(u.energy_cost for u in sc.users)
        )
        slack = solver.SCORE_RTOL * (1.0 + magnitude)
        calls.clear()
        assert solve(sc) == reference_solve(sc)[0]
        bounds = [reference_bound(sc, ids) for ids in calls]
        assert all(b <= a + slack for a, b in zip(bounds, bounds[1:]))
        for ids, bound in zip(calls, bounds):
            obj, _ = objective_value(sc, select_users(sc, ids))
            assert obj <= bound + slack


@block_sizes(1, 3, solver.ELIGIBILITY_CHUNK)
def test_solve_scores_each_set_at_its_signatures_first_center(monkeypatch, size):
    # solve() keeps a signature's bound and size at its first center's row
    # and recomputes its members there.  Blocks of a few rows put some first
    # sightings in a later block, and blocks of one row all of them, so a
    # set taken at a later center with the same class counts would differ.
    # A chunk of 1 keeps every box whole, and one of 3 tiles a box that could
    # hold more than 4 centers in four leaves.
    rows = set_size(monkeypatch, size)
    calls = count_selections(monkeypatch)
    for _, sc in bound_instances():
        classes = solver._classes(sc.users, sc.weights)

        def signature(ids):
            return tuple(sum(sc.users[p].id in ids for p in members) for members in classes)

        first = {}
        for row in reference_coverage(sc)[3]:
            ids = frozenset(sc.users[i].id for i in row.nonzero()[0])
            first.setdefault(signature(ids), ids)
        calls.clear()
        solve(sc)
        assert calls
        for ids in calls:
            assert sorted(ids) == sorted(first[signature(ids)])
    check_bound_rows(size, rows)


@pytest.mark.parametrize("demand", [1e308, 5e-324])
def test_solve_with_extreme_demands_matches_every_set_scored(demand):
    # The knapsack bound's fill overflowed at a demand of 1e308 and its
    # quotient at 5e-324: a RuntimeWarning, and exit 3 under -W error.  The
    # infinities clip to the right share, so the warning is silenced.
    sc = load_case24()
    users = tuple(
        dataclasses.replace(u, resource_demand=demand) if p < 3 else u
        for p, u in enumerate(sc.users)
    )
    sc = dataclasses.replace(sc, users=users)
    assert validate(sc) == []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert solve(sc) == reference_solve(sc)[0]


def test_solve_tie_between_equal_count_vectors_goes_to_the_earlier_center(monkeypatch):
    # {0, 1} in the west and {2, 3} in the east both count one user per
    # tenant and score the same; the western set comes first in center order,
    # so it wins and the eastern pair is never scored.
    users = [
        User(id=0, x=-900.0, y=0.0, mvno_id=0),
        User(id=1, x=-890.0, y=5.0, mvno_id=1),
        User(id=2, x=890.0, y=0.0, mvno_id=0),
        User(id=3, x=900.0, y=5.0, mvno_id=1),
    ]
    sc = make_scenario(users, num_mvnos=2, targets=(2, 2))
    calls = count_selections(monkeypatch)
    result = solve(sc)
    assert result == reference_solve(sc)[0]
    assert result.assignment.served_ids(sc) == (0, 1)
    assert result.placement[0] < 0.0
    assert frozenset({0, 1}) in calls and frozenset({2, 3}) not in calls


def test_solve_tie_between_a_non_maximal_set_and_its_superset_goes_to_the_earlier_center(
    monkeypatch,
):
    # Two overlapping disks, a capacity of one user and equal per-user
    # values: every nonempty set scores the same and has the same bound.
    # solve() scores the larger set {0, 1} (centered between the users)
    # first; the non-maximal {0} around user 0 has lexicographically smaller
    # centers, ties it and must win.
    _, radius = optimal_altitude(CFG.max_path_loss_db, URBAN, CFG, (20.0, 80.0))
    users = [
        User(id=0, x=0.0, y=0.0, mvno_id=0, energy_cost=0.5),
        User(id=1, x=1.5 * radius, y=0.0, mvno_id=0, energy_cost=0.5),
    ]
    weights = ObjectiveWeights(1.0, 0.0, 0.5, 0.0)
    sc = make_scenario(users, num_mvnos=1, weights=weights, capacity=1.0)
    calls = count_selections(monkeypatch)
    result = solve(sc)
    assert result == reference_solve(sc)[0]
    assert result.assignment.served_ids(sc) == (0,)
    assert covered_set(sc, result.placement) == {0}
    assert result.placement[0] < 0.75 * radius
    assert calls[0] == frozenset({0, 1}) and frozenset({0}) in calls


def shared_instances():
    """``bound_instances()``, then generated layouts of 1-4 MVNOs with mixed demands.

    The generated ones draw the L1 or L2 norm, energy costs from a few
    values, content flags and a capacity that often binds.
    """
    yield from (sc for _, sc in bound_instances())
    rng = random.Random(5151)
    for seed in range(16):
        profile = ScenarioProfile(
            energy_cost_range=(0.0, 1.0),
            content_probability=0.4,
            capacity=rng.choice((None, 3.0, 6.5)),
            weights=ObjectiveWeights(1.0, rng.choice((0.5, 2.0)), 0.5, 0.5, rng.choice((L1, L2))),
        )
        sc = generate_scenario(seed, rng.randint(8, 30), rng.randint(1, 4), URBAN, 600.0, profile)
        users = tuple(
            dataclasses.replace(
                u, energy_cost=rng.choice((0.0, 0.5, 1.0)), resource_demand=rng.choice((0.5, 1.0, 1.5))
            )
            for u in sc.users
        )
        yield dataclasses.replace(sc, users=users)


@block_sizes(3, solver.ELIGIBILITY_CHUNK)
def test_shared_coverage_gives_each_scenario_its_own_solve(monkeypatch, size):
    # Variants of one layout that turn different terms on share a stage whose
    # classes are finer than theirs, so each sums its own columns and drops
    # repeated signatures again; the subset of users gets a stage of its own.
    # A chunk of 3 tiles a box that could hold more than 4 centers in four leaves.
    rows = set_size(monkeypatch, size)
    stages = []
    monkeypatch.setattr(solver, "_candidate_centers", lambda *a: stages.append(a) or _candidate_centers(*a))
    for sc in shared_instances():
        w = sc.weights
        subs = [
            sc,
            dataclasses.replace(sc, weights=dataclasses.replace(w, w2=0.0)),
            dataclasses.replace(sc, weights=dataclasses.replace(w, w3=0.0, w4=0.0)),
            dataclasses.replace(sc, weights=ObjectiveWeights(0.5, 0.0, 0.0, 1.0, w.norm)),
            dataclasses.replace(sc, users=sc.users[: len(sc.users) // 2]),
        ]
        want = [repr(solve(s)) for s in subs]
        stages.clear()
        shared = solver.SharedCoverage(subs)
        assert [repr(solve(s, shared)) for s in reversed(subs)] == want[::-1]
        assert len(stages) == 2
    check_bound_rows(size, rows)


def force_depth(monkeypatch, depth):
    """Make every searched box a quadtree of ``depth`` levels, or keep it whole at 0."""

    def grid(x_bounds, y_bounds, radii, count):
        if not depth:
            return None
        n = 1 << depth
        return solver._Grid(np.linspace(*x_bounds, n + 1), np.linspace(*y_bounds, n + 1), depth)

    monkeypatch.setattr(solver, "_grid", grid)


def count_knapsacks(monkeypatch):
    """The scenario of each ``_knapsack`` call from here on, in call order."""
    built = []
    knapsack = solver._knapsack
    monkeypatch.setattr(solver, "_knapsack", lambda sc, classes: built.append(sc) or knapsack(sc, classes))
    return built


def solve_log(caplog, sc):
    """solve() and the numbers of its DEBUG line: tiles, leaves, centers, bound, fallback."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="dronecell"):
        result = solve(sc)
    [line] = [r.getMessage() for r in caplog.records if r.name == "dronecell"]
    *numbers, fallback = re.fullmatch(
        r"solve: (\d+) tiles bounded, (\d+) leaves kept, (\d+) candidate centers of at most (\d+), "
        r"fallback (ran|not run)",
        line,
    ).groups()
    return result, [int(n) for n in numbers], fallback == "ran"


def per_user_thresholds(sc, seed):
    rng = random.Random(seed)
    users = tuple(
        dataclasses.replace(u, max_path_loss_db=u.max_path_loss_db + rng.uniform(-5.0, 5.0))
        for u in sc.users
    )
    return dataclasses.replace(sc, users=users)


def test_tiled_solve_equals_the_whole_box_solve(monkeypatch, caplog):
    # Generated layouts tile by their own rule; the whole box is forced by
    # keeping it the only leaf.  A solve builds its knapsack once, with its
    # stage, and the floor, the tile search and the scoring all read it.
    layouts = [generate_scenario(s, 240, 2, URBAN) for s in (1, 2)]
    layouts.append(generate_scenario(3, 480, 2, URBAN))
    layouts += [per_user_thresholds(sc, s) for s, sc in enumerate(layouts[:2])]
    tiled, built = [], count_knapsacks(monkeypatch)
    for sc in layouts:
        result, (tiles, leaves, centers, bound), fallback = solve_log(caplog, sc)
        assert tiles > 0 and 1 < leaves and centers < bound and not fallback
        tiled.append(repr(result))
    assert built == layouts
    force_depth(monkeypatch, 0)
    assert [repr(solve(sc)) for sc in layouts] == tiled


@pytest.mark.parametrize("depth", [2, 4, 6])
def test_bound_instances_forced_to_tile_solve_as_the_whole_box(monkeypatch, caplog, depth):
    # In the 1000 m boxes, leaves of 250, 62.5 and 15.6 m.
    scenarios = [sc for _, sc in bound_instances()]
    want = [repr(solve(sc)) for sc in scenarios]
    force_depth(monkeypatch, depth)
    got, fallbacks = [], 0
    for sc in scenarios:
        result, (tiles, leaves, _, _), fallback = solve_log(caplog, sc)
        assert tiles > 0 and leaves <= 4**depth
        got.append(repr(result))
        fallbacks += fallback
    assert got == want
    assert fallbacks == 0


def test_grid_cells_put_each_point_in_exactly_one_leaf():
    # Cells are half-open, [e_k, e_k+1), except the last, closed at the box's
    # far edge; the points include every edge and the floats on either side,
    # the far edges and -0.0.
    for x_bounds, y_bounds, depth in [
        ((-1000.0, 1000.0), (-1000.0, 1000.0), 6),
        ((-0.0, 400.0), (-300.0, -0.0), 3),
        ((-500.0, 500.0), (0.1, 0.7), 5),
        ((3.0, 3.0), (-1.0, 1.0), 2),
    ]:
        n = 1 << depth
        grid = solver._Grid(np.linspace(*x_bounds, n + 1), np.linspace(*y_bounds, n + 1), depth)
        rng = random.Random(depth)

        def axis(edges, bounds):  # each edge, the floats beside it, -0.0 and random values
            beside = [math.nextafter(e, toward) for e in edges for toward in (-math.inf, math.inf)]
            return [*edges, *beside, -0.0, 0.0] + [rng.uniform(*bounds) for _ in range(100)]

        xs, ys = axis(grid.xe, x_bounds), axis(grid.ye, y_bounds)
        pts = np.array(
            [(x, y) for x, y in itertools.product(xs, ys)
             if x_bounds[0] <= x <= x_bounds[1] and y_bounds[0] <= y <= y_bounds[1]]
        )
        for edges, v, cell in zip((grid.xe, grid.ye), pts.T, grid.cells(pts)):
            holds = (edges[:-1] <= v[:, None]) & (v[:, None] < edges[1:])
            holds[:, -1] |= v == edges[-1]
            # Equal edges (a box of no width) make empty cells but the last.
            holds &= edges[:-1] < edges[1:] if edges[0] < edges[-1] else np.arange(n) == n - 1
            assert (holds.sum(axis=1) == 1).all()
            assert (holds.argmax(axis=1) == cell).all()


def tiled_instances():
    """``bound_instances()`` and a generated n = 240 layout with per-user thresholds."""
    yield from (sc for _, sc in bound_instances())
    yield per_user_thresholds(generate_scenario(4, 240, 2, URBAN), 4)


def disks_of(sc):
    env, cfg = sc.environment, sc.channel
    h_star, _ = optimal_altitude(cfg.max_path_loss_db, env, cfg, sc.region.h_bounds)
    radii = [coverage_radius(h_star, u.max_path_loss_db, env, cfg) for u in sc.users]
    return h_star, radii


def stage_layout(sc, radii, classes):
    """A stage's column order (user positions), its disks, and each class's first column."""
    order = [p for members in classes for p in members]
    runs = np.cumsum([0] + [len(members) for members in classes])[:-1]
    return order, solver._disks(sc.users, radii, order), runs


def search_setup(sc, radii):
    """The classes of ``sc``, its knapsack, and the stage's column order, disks and class runs."""
    classes = solver._classes(sc.users, sc.weights)
    knapsack = solver._knapsack(sc, classes)
    return classes, knapsack, *stage_layout(sc, radii, classes)


@pytest.mark.parametrize(
    "shape, low, high, dtype",
    [
        ((300, 4), 0, 3, np.uint8),
        ((0, 5), 0, 3, np.uint8),
        ((1, 3), 0, 9, np.uint8),
        ((200, 1), 0, 6, np.uint8),
        ((300, 3), 255, 258, np.uint16),
    ],
    ids=["repeated", "empty", "one-row", "one-column", "uint16"],
)
def test_first_sightings_are_the_first_index_of_each_distinct_row(shape, low, high, dtype):
    # The helper keeps each distinct row's first index, as np.unique's first
    # indices do once sorted; blocks with ``start`` offsets, as the coverage
    # stage feeds them, give what one call on their concatenation gives.
    m = np.random.default_rng(len(shape) + shape[0]).integers(low, high, shape, dtype=dtype)
    seen = solver._first_sightings(m, {})
    assert list(seen.values()) == np.sort(np.unique(m, axis=0, return_index=True)[1]).tolist()
    assert list(seen) == [m[k].tobytes() for k in seen.values()]
    cut = len(m) // 3
    assert solver._first_sightings(m[cut:], solver._first_sightings(m[:cut], {}), cut) == seen


@pytest.mark.parametrize(
    "source, dtype",
    [(bool, np.uint8), (bool, np.uint16), *((t, t) for t in (np.uint8, np.uint16, np.intp))],
)
@pytest.mark.parametrize(
    "rows, sizes",
    [(40, [1] * 9), (40, [3, 1, 4, 1, 5]), (40, [9]), (0, [1] * 4), (0, [2, 3]), (40, []), (0, [])],
    ids=["one-column", "merged", "one-run", "zero-rows", "zero-rows-merged", "zero-columns", "empty"],
)
def test_run_sums_equal_reduceat(rows, sizes, source, dtype):
    # Runs of one column skip np.add.reduceat for a cast copy; both give the same sums and type.
    starts = np.cumsum([0, *sizes])[:-1]
    matrix = np.random.default_rng(len(sizes)).integers(0, 2, (rows, sum(sizes))).astype(source)
    got = solver._run_sums(matrix, starts, dtype)
    want = np.add.reduceat(matrix, starts, axis=1, dtype=dtype)
    assert got.dtype == want.dtype and got.shape == want.shape == (rows, len(sizes))
    assert np.array_equal(got, want)


@pytest.mark.parametrize("depth", [3, 5])
def test_every_center_is_bounded_by_its_leaf_and_kept_leaves_keep_their_centers(monkeypatch, depth):
    # Each center's set is a subset of the users whose disk meets its leaf,
    # so its knapsack bound is at most the leaf's, up to the rounding the
    # scoring slack covers; and the tiled stage makes exactly the whole
    # box's centers that lie in the kept leaves, bit for bit.
    n, restricted = 1 << depth, 0
    force_depth(monkeypatch, depth)
    for sc in tiled_instances():
        h_star, radii = disks_of(sc)
        (x_lo, x_hi), (y_lo, y_hi) = sc.region.x_bounds, sc.region.y_bounds
        grid = solver._Grid(np.linspace(x_lo, x_hi, n + 1), np.linspace(y_lo, y_hi, n + 1), depth)
        classes, knapsack, order, disks, runs = search_setup(sc, radii)
        circles, pairs, _ = solver._circle_pairs(sc.users, radii)
        pts = _candidate_centers(circles, pairs, (x_lo, x_hi), (y_lo, y_hi))
        ix, iy = grid.cells(pts)
        held = np.add.reduceat(solver._inside(pts[:, :1], pts[:, 1:], disks), runs, axis=1)
        reach = solver._reach(disks)
        gx, gy = grid.gaps(depth, reach)
        leaf = np.add.reduceat(gx[ix] + gy[iy] <= reach[2], runs, axis=1)
        assert (held <= leaf).all()
        # The bound is monotone in the counts; its float sums only up to rounding.
        slack = solver.SCORE_RTOL * (1.0 + term_magnitude(sc))
        center_bound, leaf_bound = (knapsack.bound(knapsack.held(c)) for c in (held, leaf))
        assert (center_bound <= leaf_bound + slack).all()

        search = solver._search([knapsack], disks, runs, h_star, grid)
        assert search.kept.any()
        restricted += not search.meeting.all()
        # The search flags columns; the circles are the users with a radius, in position order.
        meeting = np.zeros(len(sc.users), dtype=bool)
        meeting[order] = search.meeting
        leaves = grid, search.kept, meeting[np.asarray(radii) > 0]
        tiled = _candidate_centers(circles, pairs, (x_lo, x_hi), (y_lo, y_hi), leaves)
        want = pts[search.kept[ix, iy]]
        assert np.array_equal(tiled.view(np.uint64), want.view(np.uint64))
        # The coverage stage tiles the box the same way and keeps those centers.
        stage = solver._coverage(sc.users, radii, sc.region, classes, [knapsack], h_star)
        assert np.array_equal(stage.search.kept, search.kept) and stage.search.floors == search.floors
        assert np.array_equal(stage.pts.view(np.uint64), tiled.view(np.uint64))
    assert restricted  # some instances make points from fewer users


def rich_layout(seed, n):
    """A layout like the rich benchmark's: 3 tenants, energy and content on, capacity 6, mixed demand."""
    profile = ScenarioProfile(
        energy_cost_range=(0.0, 1.0),
        content_probability=0.3,
        capacity=6.0,
        weights=ObjectiveWeights(1.0, 1.0, 0.5, 0.5),
    )
    sc = generate_scenario(seed, n, 3, URBAN, profile=profile)
    rng = random.Random(seed)
    demands = (0.5, 0.75, 1.0, 1.25, 1.5, 2.0)
    users = tuple(dataclasses.replace(u, resource_demand=rng.choice(demands)) for u in sc.users)
    return dataclasses.replace(sc, users=users)


def reference_floor(sc, knapsack, order, runs, disks, h_star):
    """``_floor`` with every user position in the box tested against every disk in one call.

    The knapsack's order of the stage's columns is its stage classes in the
    order of its ``columns``, each class's columns in turn.  The position is
    the first in that order of those whose members have the highest bound;
    its members that pass the scalar loss check are taken in that order
    while their exact summed demand fits.
    """
    (x_lo, x_hi), (y_lo, y_hi) = sc.region.x_bounds, sc.region.y_bounds
    x, y, r2 = disks
    ends = [*runs[1:], len(order)]
    ranked = [j for c in knapsack.columns.tolist() for j in range(runs[c], ends[c])]
    spots = [j for j in ranked if r2[j] > 0 and x_lo <= x[j] <= x_hi and y_lo <= y[j] <= y_hi]
    if not spots:
        return -math.inf
    inside = solver._inside(x[spots, None], y[spots, None], disks)
    best = int(np.argmax(knapsack.bound(knapsack.held(np.add.reduceat(inside, runs, axis=1)))))
    px, py = x[spots[best]], y[spots[best]]
    env, cfg = sc.environment, sc.channel
    chosen, used = [], fractions.Fraction(0)
    for j in [j for j in ranked if inside[best, j]]:
        u = sc.users[order[j]]
        loss = path_loss(h_star, math.hypot(u.x - px, u.y - py), env, cfg)
        demand = fractions.Fraction(u.resource_demand)
        if loss <= u.max_path_loss_db and used + demand <= fractions.Fraction(sc.capacity):
            chosen.append(u.id)
            used += demand
    return objective_value(sc, assignment_from_ids(sc, chosen))[0]


def test_floor_equals_the_dense_reference():
    # The floor tests the user positions in slab blocks sorted by x; the
    # reference tests them all at once in the knapsack's order, so both the
    # blocking and the tie-break among equal bounds are checked.
    finite = 0
    for sc in [*tiled_instances(), rich_layout(8, 240)]:
        h_star, radii = disks_of(sc)
        _, knapsack, order, disks, runs = search_setup(sc, radii)
        got = solver._floor(knapsack, disks, runs, h_star)
        assert got == reference_floor(sc, knapsack, order, runs, disks, h_star)
        finite += got > -math.inf
    assert finite > 1


def test_a_tiled_box_with_no_user_position_has_no_floor_and_solves_whole(monkeypatch, caplog):
    # solve() takes users outside its box, which validate() refuses: at
    # n = 600 without the users in [-150, 150]^2, that box tiles with no
    # user position to set a floor at, so no tile is dropped for it.
    sc = generate_scenario(7, 600, 2, URBAN)
    users = tuple(u for u in sc.users if not (-150.0 <= u.x <= 150.0 and -150.0 <= u.y <= 150.0))
    region = PlacementRegion((-150.0, 150.0), (-150.0, 150.0), sc.region.h_bounds)
    sc = dataclasses.replace(sc, users=users, region=region)
    floors, floor = [], solver._floor
    monkeypatch.setattr(solver, "_floor", lambda *a: floors.append(floor(*a)) or floors[-1])
    result, (tiles, leaves, centers, bound), fallback = solve_log(caplog, sc)
    assert len(users) == 586 and floors == [-math.inf]
    assert tiles > 0 and leaves > 1 and not fallback and result.total_served == 22
    force_depth(monkeypatch, 0)
    assert repr(solve(sc)) == repr(result)


@pytest.mark.parametrize("depth", [3, 5])
def test_search_is_the_same_for_any_block_size(monkeypatch, depth):
    # Blocks of 1 and 7 floats take every user position and every tile's
    # bound one row at a time; the floors, kept leaves, users meeting them
    # and tiles bounded must not move.  A layout and its variant without the
    # tenancy term share one search.
    n = 1 << depth
    for sc in [*itertools.islice(tiled_instances(), 0, None, 4), rich_layout(9, 240)]:
        h_star, radii = disks_of(sc)
        (x_lo, x_hi), (y_lo, y_hi) = sc.region.x_bounds, sc.region.y_bounds
        grid = solver._Grid(np.linspace(x_lo, x_hi, n + 1), np.linspace(y_lo, y_hi, n + 1), depth)
        classes = solver._classes(sc.users, sc.weights)
        variant = dataclasses.replace(sc, weights=dataclasses.replace(sc.weights, w2=0.0))
        knapsacks = [solver._knapsack(s, classes) for s in (sc, variant)]
        _, disks, runs = stage_layout(sc, radii, classes)
        searches = []
        for block in (solver.BLOCK_FLOATS, 1, 7):
            monkeypatch.setattr(solver, "BLOCK_FLOATS", block)
            searches.append(solver._search(knapsacks, disks, runs, h_star, grid))
        default = searches[0]
        assert len(default.floors) == 2
        for search in searches[1:]:
            assert search.floors == default.floors and search.tiles == default.tiles
            assert np.array_equal(search.kept, default.kept)
            assert np.array_equal(search.meeting, default.meeting)


def count_gaps(monkeypatch):
    """The levels of each ``_Grid.gaps`` call from here on, in call order."""
    calls = []
    gaps = solver._Grid.gaps
    monkeypatch.setattr(solver._Grid, "gaps", lambda g, level, d: calls.append(level) or gaps(g, level, d))
    return calls


@pytest.mark.parametrize("depth", [3, 5])
def test_a_repeated_knapsack_leaves_the_search_as_it_is(monkeypatch, depth):
    # One descent serves every knapsack of a stage: a second copy of one adds
    # its floor, but no tile, no kept cell, no meeting disk and no level's gaps.
    n = 1 << depth
    calls = count_gaps(monkeypatch)
    for sc in [*itertools.islice(tiled_instances(), 0, None, 3), generate_scenario(2, 240, 2, URBAN)]:
        h_star, radii = disks_of(sc)
        (x_lo, x_hi), (y_lo, y_hi) = sc.region.x_bounds, sc.region.y_bounds
        grid = solver._Grid(np.linspace(x_lo, x_hi, n + 1), np.linspace(y_lo, y_hi, n + 1), depth)
        _, knapsack, _, disks, runs = search_setup(sc, radii)
        calls.clear()
        one = solver._search([knapsack], disks, runs, h_star, grid)
        levels = list(calls)
        calls.clear()
        two = solver._search([knapsack, knapsack], disks, runs, h_star, grid)
        assert calls == levels == list(range(levels[0], levels[0] + len(levels)))
        assert two.floors == one.floors * 2 and two.tiles == one.tiles
        assert np.array_equal(two.kept, one.kept) and np.array_equal(two.meeting, one.meeting)


def test_a_shared_search_keeps_what_its_scenarios_keep_alone(monkeypatch):
    # A child's users are a subset of its parent's and the bound is monotone,
    # so the one descent of a stage keeps exactly the cells, and flags the
    # disks, that one of its scenarios' own searches would.
    layouts = list(itertools.islice(shared_instances(), 0, None, 3))
    layouts += [generate_scenario(s, n, 2, env) for s, n in ((1, 240), (3, 480)) for env in (URBAN, SUBURBAN)]
    for sc in layouts:
        w = sc.weights
        subs = [
            sc,
            dataclasses.replace(sc, weights=dataclasses.replace(w, w2=0.0)),
            dataclasses.replace(sc, weights=ObjectiveWeights(0.5, 0.0, 0.0, 1.0, w.norm), capacity=2.0),
        ]
        h_star, radii = disks_of(sc)
        (x_lo, x_hi), (y_lo, y_hi) = sc.region.x_bounds, sc.region.y_bounds
        circles, _, count = solver._circle_pairs(sc.users, radii)
        grid = solver._grid((x_lo, x_hi), (y_lo, y_hi), circles[:, 2], count)
        if grid is None:  # the small layouts: a quadtree of 4 levels
            grid = solver._Grid(np.linspace(x_lo, x_hi, 17), np.linspace(y_lo, y_hi, 17), 4)
        classes = solver._classes(sc.users, ObjectiveWeights(w2=w.w2, w3=w.w3, w4=1.0))
        knapsacks = [solver._knapsack(s, classes) for s in subs]
        _, disks, runs = stage_layout(sc, radii, classes)
        shared = solver._search(knapsacks, disks, runs, h_star, grid)
        alone = [solver._search([k], disks, runs, h_star, grid) for k in knapsacks]
        assert shared.floors == tuple(s.floors[0] for s in alone)
        assert np.array_equal(shared.kept, np.logical_or.reduce([s.kept for s in alone]))
        assert np.array_equal(shared.meeting, np.logical_or.reduce([s.meeting for s in alone]))


def test_solve_falls_back_to_the_whole_box_when_its_floor_is_not_reached(monkeypatch, caplog):
    # Item 11's exact boundary: q = path_loss(80, r) for bisection midpoints
    # r_a < r_b, so coverage_radius returns r exactly.  User 1 (radius r_a)
    # sits d from user 0 (radius r_b), with r_a <= d <= r_b: only user 1's
    # position holds both, and the floor is their pair.  The circles cross
    # at a smaller x, so a crossing is the pair's first center; where
    # rounding puts it just past a circle, the loss drops that user, no
    # first sighting reaches the floor, and the solve reruns on the whole box.
    region = PlacementRegion((-500.0, 800.0), (-500.0, 500.0), (20.0, 80.0))
    radii = (112.5, 125.0, 137.5, 150.0, 162.5, 175.0, 187.5)
    cases = []
    for (r_a, r_b), f, y in itertools.product(
        itertools.combinations(radii, 2), (0.25, 0.5, 0.75, 1.0), (0.0, 0.3, 7.0)
    ):
        q_a, q_b = (path_loss(80.0, r, URBAN, CFG) for r in (r_a, r_b))
        assert coverage_radius(80.0, q_a, URBAN, CFG) == r_a
        users = [
            User(id=0, x=0.0, y=0.0, mvno_id=0, max_path_loss_db=q_b),
            User(id=1, x=r_a + f * (r_b - r_a), y=y, mvno_id=0, max_path_loss_db=q_a),
        ]
        cases.append(make_scenario(users, num_mvnos=1, targets=(2,), capacity=10.0, region=region))
    force_depth(monkeypatch, 4)
    built = count_knapsacks(monkeypatch)
    tiled = [solve_log(caplog, sc) for sc in cases]
    assert built == cases  # the rerun scores with the knapsack the first pass had
    force_depth(monkeypatch, 0)
    assert [repr(result) for result, _, _ in tiled] == [repr(solve(sc)) for sc in cases]
    fallbacks = [result for result, _, fallback in tiled if fallback]
    assert len(fallbacks) == 18
    assert all(result.total_served == 1 for result in fallbacks)


def test_a_shared_tiled_stage_holds_the_leaves_of_every_scenario(monkeypatch):
    # Variants of one layout keep different leaves; their shared stage holds
    # the union, so each one solves as it does alone.
    force_depth(monkeypatch, 4)
    stages, built = [], count_knapsacks(monkeypatch)
    monkeypatch.setattr(solver, "_candidate_centers", lambda *a: stages.append(a) or _candidate_centers(*a))
    for sc in itertools.islice(shared_instances(), 0, None, 4):
        w = sc.weights
        subs = [
            sc,
            dataclasses.replace(sc, weights=dataclasses.replace(w, w2=0.0)),
            dataclasses.replace(sc, weights=ObjectiveWeights(0.5, 0.0, 0.0, 1.0, w.norm), capacity=2.0),
        ]
        want = [repr(solve(s)) for s in subs]
        stages.clear()
        built.clear()
        shared = solver.SharedCoverage(subs)
        assert [repr(solve(s, shared)) for s in subs] == want
        assert len(stages) == 1 and built == subs


def test_shared_coverage_refuses_a_scenario_it_was_not_built_from():
    # The stage of a layout's w3 = 0 variant does not separate energy costs,
    # so a scenario that turns w3 on would score coarser sets; a scenario of
    # another layout matches no stage at all.  Both get one short error.
    profile = ScenarioProfile(
        energy_cost_range=(0.0, 1.0), capacity=3.0, weights=ObjectiveWeights(1.0, 0.0, 5.0, 0.0)
    )
    for seed in range(4):
        sc = generate_scenario(seed, 30, 2, URBAN, profile=profile)
        variant = dataclasses.replace(sc, weights=dataclasses.replace(sc.weights, w3=0.0))
        shared = solver.SharedCoverage([variant])
        with pytest.raises(ValueError, match="^scenario not among those the coverage is shared by$"):
            solve(sc, shared)
        assert repr(solve(variant, shared)) == repr(solve(variant))
    layouts = [generate_scenario(s, 240, 2, URBAN) for s in (1, 2)]
    with pytest.raises(ValueError, match="^scenario not among those the coverage is shared by$"):
        solve(layouts[1], solver.SharedCoverage(layouts[:1]))


@pytest.mark.parametrize("ceiling", [300, 600, 700])
def test_tiled_and_whole_box_solves_refuse_the_same_selection_programs(monkeypatch, ceiling):
    # The floor runs no selection program, and a tiled solve scores the
    # whole box's sets in the same order, so a program above the states
    # ceiling stops both at the same set, or neither.  At n = 240 with 3
    # tenants under L2, mixed demands and capacity 6.5, a ceiling of 300
    # refuses all four layouts, 600 three of them and 700 none.
    monkeypatch.setattr(solver, "MAX_DP_STATES", ceiling)
    profile = ScenarioProfile(capacity=6.5, weights=ObjectiveWeights(1.0, 1.0, 0.0, 0.0, L2))
    layouts = []
    for seed in (5, 6):
        sc = generate_scenario(seed, 240, 3, URBAN, profile=profile)
        rng = random.Random(seed)
        users = tuple(
            dataclasses.replace(u, resource_demand=rng.choice((0.5, 1.0, 1.5))) for u in sc.users
        )
        layouts.append(dataclasses.replace(sc, users=users))
    layouts += [per_user_thresholds(sc, s) for s, sc in enumerate(layouts)]

    def outcome(sc):
        try:
            return repr(solve(sc))
        except ResourceGuardError as exc:
            return str(exc)

    tiled = [outcome(sc) for sc in layouts]
    assert sum("ceiling" in o for o in tiled) == {300: 4, 600: 3, 700: 0}[ceiling]
    force_depth(monkeypatch, 0)
    assert tiled == [outcome(sc) for sc in layouts]

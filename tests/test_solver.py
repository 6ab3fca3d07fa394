"""Placement engine: covered sets, exact solve, and the grid oracle."""

import collections
import itertools
import math
import random

import numpy as np
import pytest

from dronecell import solver
from dronecell.channel import ENVIRONMENTS, ChannelConfig, coverage_radius, optimal_altitude, path_loss
from dronecell.scenario import (
    L1,
    L2,
    ObjectiveWeights,
    PlacementRegion,
    Scenario,
    ScenarioProfile,
    TenancyTargets,
    User,
    generate_scenario,
    mvno_counts,
)
from dronecell.solver import (
    DISK_EPS,
    InfeasibleRegionError,
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
        targets=TenancyTargets(tuple(targets)),
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
    users = [User(id=0, x=0.0, y=0.0, mvno_id=0)]
    sc = make_scenario(users, num_mvnos=1, region=PlacementRegion((10.0, -10.0), (-10.0, 10.0), (20.0, 80.0)))
    with pytest.raises(InfeasibleRegionError):
        solve(sc)
    sc = make_scenario(users, num_mvnos=1, region=PlacementRegion((-10.0, 10.0), (-10.0, 10.0), (0.0, 80.0)))
    with pytest.raises(InfeasibleRegionError):
        solve(sc)


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
            gap = sum(abs(c - t) for c, t in zip(counts, sc.targets.counts))
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


def test_brute_force_resource_guard():
    sc = generate_scenario(1, 3, 2, URBAN)
    with pytest.raises(ResourceGuardError):
        brute_force(sc, 0.1, 0.1)


def test_brute_force_rejects_bad_steps():
    sc = generate_scenario(1, 3, 2, URBAN)
    with pytest.raises(ValueError):
        brute_force(sc, 0.0, 10.0)


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


@pytest.mark.parametrize("chunk", [3, solver.ELIGIBILITY_CHUNK])
def test_candidate_centers_equal_the_scalar_enumeration_bitwise(monkeypatch, chunk):
    # A chunk of 3 splits the circle pairs into many row blocks.
    monkeypatch.setattr(solver, "ELIGIBILITY_CHUNK", chunk)
    for users, radii, x_bounds, y_bounds in center_instances():
        got = _candidate_centers(users, radii, x_bounds, y_bounds)
        want = np.array(sorted(reference_centers(users, radii, x_bounds, y_bounds)))
        want = want.reshape(-1, 2)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


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


def reference_solve(sc):
    """solve() with every distinct coverage set scored, as one full matrix.

    ``select_users`` and ``objective_value`` run on each distinct set in
    sorted candidate-center order, and only a strictly better (objective,
    total) replaces the best.  Returns the result and the number of sets
    scored.
    """
    env, cfg, region = sc.environment, sc.channel, sc.region
    h_star, r_default = optimal_altitude(cfg.max_path_loss_db, env, cfg, region.h_bounds)
    users = sc.users
    radii = [coverage_radius(h_star, u.max_path_loss_db, env, cfg) for u in users]
    best = _zero_result(sc, (region.x_bounds[0], region.y_bounds[0], h_star), r_default)
    centers = reference_centers(users, radii, region.x_bounds, region.y_bounds)
    if not centers:
        return best, 0
    pts = np.array(sorted(centers))
    ux = np.array([u.x for u in users])
    uy = np.array([u.y for u in users])
    r2 = np.array([r * r * (1.0 + DISK_EPS) if r > 0 else -1.0 for r in radii])
    d2 = (pts[:, 0:1] - ux[None, :]) ** 2 + (pts[:, 1:2] - uy[None, :]) ** 2
    eligible = d2 <= r2[None, :]
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


@pytest.mark.parametrize("chunk", [3, solver.ELIGIBILITY_CHUNK])
def test_solve_scores_each_signature_once_and_matches_every_set_scored(monkeypatch, chunk):
    # A small chunk puts the first sighting of a signature in a later block,
    # and computes the knapsack bounds in many blocks.
    monkeypatch.setattr(solver, "ELIGIBILITY_CHUNK", chunk)
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

    room, bound = sc.capacity, -w2 * sum(sc.targets.counts)
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
            + w.w2 * sum(sc.targets.counts)
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

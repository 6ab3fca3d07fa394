"""Objective evaluation and exact subset selection."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from dronecell.channel import ENVIRONMENTS, ChannelConfig
from dronecell.scenario import (
    Assignment,
    ObjectiveWeights,
    PlacementRegion,
    Scenario,
    TenancyTargets,
    User,
    assignment_from_ids,
)
from dronecell import solver
from dronecell.solver import (
    ResourceGuardError,
    _classes,
    _tenancy_gap,
    objective_value,
    select_users,
)

URBAN = ENVIRONMENTS["urban"]


def make_scenario(users, num_mvnos, targets, weights, capacity):
    return Scenario(
        users=tuple(users),
        num_mvnos=num_mvnos,
        targets=TenancyTargets(tuple(targets)),
        weights=weights,
        capacity=float(capacity),
        region=PlacementRegion((-100.0, 100.0), (-100.0, 100.0), (20.0, 80.0)),
        environment=URBAN,
        channel=ChannelConfig(),
    )


def line_users(n, mvno_of, **overrides):
    return [
        User(id=i, x=float(i), y=0.0, mvno_id=mvno_of(i), **overrides) for i in range(n)
    ]


def exhaustive_best(scenario, eligible):
    """Independent reference: scan all subsets, same tie-break order.

    Demands are summed as exact Fractions of their float values, the
    arithmetic ``select_users`` promises.
    """
    ids = sorted(eligible)
    best = None
    for r in range(len(ids) + 1):
        for combo in itertools.combinations(ids, r):
            demand = sum((Fraction(scenario.user_by_id(i).resource_demand) for i in combo), Fraction(0))
            if demand > Fraction(scenario.capacity):
                continue
            a = assignment_from_ids(scenario, combo)
            obj, _ = objective_value(scenario, a)
            key = (obj, len(combo))
            if best is None or key > best[:2] or (key == best[:2] and combo < best[2]):
                best = (obj, len(combo), combo)
    return best


def test_objective_zero_assignment_is_minus_weighted_targets():
    users = line_users(24, lambda i: i % 2)
    sc = make_scenario(users, 2, (12, 12), ObjectiveWeights(1.0, 1.0), 24)
    obj, breakdown = objective_value(sc, Assignment((0,) * 24))
    assert obj == -24.0
    assert breakdown.served == 0.0
    assert breakdown.tenancy_gap == 24.0


def test_objective_ten_per_mvno_with_twelve_targets():
    users = line_users(24, lambda i: i % 2)
    sc = make_scenario(users, 2, (12, 12), ObjectiveWeights(1.0, 1.0), 24)
    served_ids = [i for i in range(24) if i < 20]  # ten of each tenant
    obj, breakdown = objective_value(sc, assignment_from_ids(sc, served_ids))
    assert breakdown.served == 20.0
    assert breakdown.tenancy_gap == 4.0
    assert obj == 16.0


def test_objective_reduces_to_served_count_without_other_weights():
    users = line_users(10, lambda i: i % 3)
    sc = make_scenario(users, 3, (4, 3, 3), ObjectiveWeights(1.0, 0.0, 0.0, 0.0), 10)
    rng = random.Random(5)
    for _ in range(20):
        served = tuple(rng.randint(0, 1) for _ in range(10))
        obj, _ = objective_value(sc, Assignment(served))
        assert obj == float(sum(served))


def test_objective_l2_norm():
    users = line_users(6, lambda i: i % 2)
    sc = make_scenario(
        users, 2, (4, 1), ObjectiveWeights(1.0, 1.0, norm="L2"), 6
    )
    obj, breakdown = objective_value(sc, assignment_from_ids(sc, [0, 1, 3]))  # counts (1, 2)
    assert breakdown.tenancy_gap == pytest.approx(math.hypot(3.0, 1.0))
    assert obj == pytest.approx(3.0 - math.hypot(3.0, 1.0))


def test_objective_energy_and_content_terms():
    users = [
        User(id=0, x=0.0, y=0.0, mvno_id=0, energy_cost=0.5, content_request=True),
        User(id=1, x=1.0, y=0.0, mvno_id=0, energy_cost=0.25, content_request=False),
    ]
    sc = make_scenario(users, 1, (2,), ObjectiveWeights(1.0, 0.0, 2.0, 3.0), 2)
    obj, breakdown = objective_value(sc, Assignment((1, 1)))
    assert breakdown.energy_reward == 0.75
    assert breakdown.content_reward == 1.0
    assert obj == 2.0 + 2.0 * 0.75 + 3.0 * 1.0


def test_select_empty_eligible():
    users = line_users(4, lambda i: 0)
    sc = make_scenario(users, 1, (4,), ObjectiveWeights(), 4)
    assert select_users(sc, set()) == Assignment((0, 0, 0, 0))


def test_select_serves_all_when_capacity_allows_and_no_fairness():
    users = line_users(8, lambda i: i % 2)
    sc = make_scenario(users, 2, (4, 4), ObjectiveWeights(1.0, 0.0), 8)
    assert select_users(sc, range(8)).total == 8


def test_select_serving_below_target_users_always_helps():
    # Ten eligible users split 4/6 with targets (12, 12): serving every one
    # improves both the count and the gap term.
    users = line_users(10, lambda i: 0 if i < 4 else 1)
    sc = make_scenario(users, 2, (12, 12), ObjectiveWeights(1.0, 1.0), 24)
    got = select_users(sc, range(10))
    assert got.total == 10
    want = exhaustive_best(sc, range(10))
    obj, _ = objective_value(sc, got)
    assert obj == want[0]
    assert got.served_ids(sc) == want[2]


def test_select_respects_capacity_with_fractional_budget():
    users = line_users(5, lambda i: 0)
    sc = make_scenario(users, 1, (5,), ObjectiveWeights(1.0, 0.0), 2.5)
    got = select_users(sc, range(5))
    assert got.served_ids(sc) == (0, 1)  # floor(2.5 / 1) users, smallest ids


def test_select_prefers_balanced_counts():
    users = line_users(8, lambda i: 0 if i < 5 else 1)
    sc = make_scenario(users, 2, (2, 2), ObjectiveWeights(0.0, 1.0), 8)
    got = select_users(sc, range(8))
    from dronecell.scenario import mvno_counts

    assert mvno_counts(sc, got) == (2, 2)
    # With w1 = 0 many subsets tie on the objective; the tie-break keeps the
    # largest total, then the lexicographically smallest ids.
    want = exhaustive_best(sc, range(8))
    assert got.served_ids(sc) == want[2]


@pytest.mark.parametrize("norm", ["L1", "L2"])
def test_select_fair_many_tenants_matches_exhaustive(norm):
    # Tenancy-fair selection over 4-6 MVNOs, binding capacity, the energy
    # and content terms on or off: exact objective and tie-break agreement.
    rng = random.Random(f"many-tenants/{norm}")
    for trial in range(40):
        j = rng.randint(4, 6)
        n = rng.randint(j, 11)
        users = [
            User(
                id=i,
                x=float(i),
                y=0.0,
                mvno_id=rng.randrange(j),
                energy_cost=rng.randrange(0, 9) / 8.0,
                content_request=rng.random() < 0.3,
                resource_demand=rng.choice((0.5, 1.0, 1.5)),
            )
            for i in range(n)
        ]
        weights = ObjectiveWeights(
            w1=rng.choice((0.0, 1.0, 2.5)),
            w2=rng.choice((0.5, 1.0, 1.5)),
            w3=rng.choice((0.0, 0.5)),
            w4=rng.choice((0.0, 1.0)),
            norm=norm,
        )
        targets = tuple(rng.randint(0, 3) for _ in range(j))
        sc = make_scenario(users, j, targets, weights, rng.randint(1, n))
        eligible = {i for i in range(n) if rng.random() < 0.8}
        got = select_users(sc, eligible)
        want = exhaustive_best(sc, eligible)
        assert objective_value(sc, got)[0] == want[0], f"trial {trial}"
        assert got.served_ids(sc) == want[2], f"trial {trial}"


def test_select_allows_many_tenants_without_fairness():
    users = line_users(8, lambda i: i % 4)
    sc = make_scenario(users, 4, (2, 2, 2, 2), ObjectiveWeights(1.0, 0.0), 8)
    assert select_users(sc, range(8)).total == 8


def test_select_refuses_more_dp_states_than_the_ceiling(monkeypatch):
    # Demands 1, 2, 4, ..., 32 reach every usage 0..63; the capacity 60
    # keeps 61 of them, the DP's peak state count.
    users = [
        User(id=i, x=float(i), y=0.0, mvno_id=0, resource_demand=float(2**i)) for i in range(6)
    ]
    sc = make_scenario(users, 1, (6,), ObjectiveWeights(1.0, 0.0), 60)
    monkeypatch.setattr(solver, "MAX_DP_STATES", 60)
    with pytest.raises(ResourceGuardError, match="61 states"):
        select_users(sc, range(6))
    monkeypatch.setattr(solver, "MAX_DP_STATES", 61)
    assert select_users(sc, range(6)).served_ids(sc) == (0, 1, 2, 3, 4)


def test_select_unknown_ids_rejected():
    users = line_users(3, lambda i: 0)
    sc = make_scenario(users, 1, (3,), ObjectiveWeights(), 3)
    with pytest.raises(KeyError):
        select_users(sc, {0, 99})


def test_select_matches_exhaustive_on_random_instances():
    # Seeded sweep over mixed weights, norms, tenant counts, demands, and
    # binding capacities; exact objective and tie-break agreement.
    rng = random.Random(20260825)
    for trial in range(120):
        n = rng.randint(0, 11)
        j = rng.randint(1, 3)
        users = [
            User(
                id=i,
                x=float(i),
                y=0.0,
                mvno_id=rng.randrange(j),
                energy_cost=rng.randrange(0, 9) / 8.0,
                content_request=rng.random() < 0.3,
                resource_demand=float(rng.randint(1, 3)),
            )
            for i in range(n)
        ]
        weights = ObjectiveWeights(
            w1=float(rng.randint(0, 2)),
            w2=float(rng.randint(0, 2)),
            w3=rng.randrange(0, 5) / 4.0,
            w4=float(rng.randint(0, 1)),
            norm="L2" if rng.random() < 0.3 else "L1",
        )
        targets = tuple(rng.randint(0, n) for _ in range(j))
        capacity = rng.randint(1, max(1, 3 * n))
        sc = make_scenario(users, j, targets, weights, capacity)
        eligible = {i for i in range(n) if rng.random() < 0.8}
        got = select_users(sc, eligible)
        got_obj, _ = objective_value(sc, got)
        want = exhaustive_best(sc, eligible)
        assert got_obj == want[0], f"trial {trial}"
        assert got.total == want[1], f"trial {trial}"
        assert got.served_ids(sc) == want[2], f"trial {trial}"


# Demands whose float sums are inexact: as exact Fractions of the floats,
# 0.1 + 0.2 + 0.3 exceeds 0.6 while 0.3 + 0.7 and three times 1/3 fit in 1.0.
INEXACT_DEMANDS = (0.1, 0.2, 0.3, 0.7, 1 / 3)


@pytest.mark.parametrize("num_mvnos", [1, 2, 3])
@pytest.mark.parametrize("capacity", [0.6, 1.0])
def test_select_scaled_integer_dp_matches_exact_enumeration(capacity, num_mvnos):
    # The energy and content terms are on, so classes split on them; the DP
    # runs on demands and capacity scaled to integers.
    rng = random.Random(f"inexact/{capacity}/{num_mvnos}")
    for trial in range(30):
        n = rng.randint(1, 9)
        users = [
            User(
                id=i,
                x=float(i),
                y=0.0,
                mvno_id=rng.randrange(num_mvnos),
                energy_cost=rng.random(),
                content_request=rng.random() < 0.4,
                resource_demand=rng.choice(INEXACT_DEMANDS),
            )
            for i in range(n)
        ]
        weights = ObjectiveWeights(w1=1.0, w2=rng.choice((0.0, 1.0)), w3=0.5, w4=0.25)
        targets = tuple(rng.randint(0, n) for _ in range(num_mvnos))
        sc = make_scenario(users, num_mvnos, targets, weights, capacity)
        eligible = {i for i in range(n) if rng.random() < 0.9}
        got = select_users(sc, eligible)
        assert got.served_ids(sc) == exhaustive_best(sc, eligible)[2], f"trial {trial}"


@pytest.mark.parametrize(
    "demand, capacity, fits",
    [(0.1, 0.6, 5), (0.2, 0.6, 2), (0.3, 0.6, 2), (0.1, 1.0, 9), (1 / 3, 1.0, 3), (0.7, 1.0, 1)],
)
@pytest.mark.parametrize("w2", [0.0, 1.0])
def test_select_uniform_inexact_demands_fit_by_exact_sum(demand, capacity, fits, w2):
    # One demand with the energy and content terms off makes each tenant one
    # class (everyone one class when w2 = 0); the DP serves as many users as
    # fit by exact arithmetic, not by float sums.
    users = line_users(10, lambda i: i % 2, resource_demand=demand)
    sc = make_scenario(users, 2, (5, 5), ObjectiveWeights(1.0, w2), capacity)
    got = select_users(sc, range(10))
    assert got.total == fits
    assert got.served_ids(sc) == exhaustive_best(sc, range(10))[2]


def reference_choose(scenario, users):
    """The selection DP keyed by the full per-MVNO count vector.

    State (per-MVNO counts, scaled usage), the count dimension collapsed
    when w2 = 0; each state keeps the greatest (value, served, mask), and
    w1*t1 - w2*t2 is added per count vector at the end.  Its states grow as
    a power of the tenant count, so it serves as a reference at 1-3 MVNOs.
    """
    w = scenario.weights
    ratios = [u.resource_demand.as_integer_ratio() for u in users]
    cap_num, cap_den = scenario.capacity.as_integer_ratio()
    scale = math.lcm(cap_den, *(den for _, den in ratios))
    demands = [num * (scale // den) for num, den in ratios]
    cap = cap_num * (scale // cap_den)
    unconstrained = sum(demands) <= cap
    track_counts = w.w2 > 0
    m = len(users)
    zero_counts = (0,) * scenario.num_mvnos if track_counts else ()
    states = {(zero_counts, 0): (0.0, 0, 0)}
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
    best = None
    for (counts, _used), (value, served, mask) in states.items():
        if track_counts:
            value = w.w1 * served - w.w2 * _tenancy_gap(counts, targets, w.norm) + value
        if best is None or (value, served, mask) > best:
            best = (value, served, mask)
    mask = best[2]
    return tuple(u.id for p, u in enumerate(users) if mask >> (m - 1 - p) & 1)


def test_select_matches_the_count_vector_dp():
    # Seeded instances at 1-3 MVNOs, both norms, inexact demands and binding
    # capacity: the tenant-by-tenant DP picks the ids the DP keyed by the
    # whole count vector picks.
    rng = random.Random(20261018)
    for trial in range(600):
        j = rng.randint(1, 3)
        n = rng.randint(0, 14)
        users = [
            User(
                id=i,
                x=float(i),
                y=0.0,
                mvno_id=rng.randrange(j),
                energy_cost=rng.random(),
                content_request=rng.random() < 0.3,
                resource_demand=rng.choice(((1.0,), (0.5, 1.0, 1.5), (0.1, 1 / 3, 1.0))[trial % 3]),
            )
            for i in range(n)
        ]
        weights = ObjectiveWeights(
            w1=rng.choice((0.0, 1.0, 2.5)),
            w2=rng.choice((0.0, 0.5, 1.0, 1.5)),
            w3=rng.choice((0.0, 0.5)),
            w4=rng.choice((0.0, 1.0)),
            norm=rng.choice(("L1", "L2")),
        )
        targets = tuple(rng.randint(0, n) for _ in range(j))
        capacity = rng.choice((0.6, 1.0, 2.5, float(rng.randint(1, max(1, n)))))
        sc = make_scenario(users, j, targets, weights, capacity)
        eligible = sorted(i for i in range(n) if rng.random() < 0.85)
        want = reference_choose(sc, [sc.user_by_id(i) for i in eligible])
        assert select_users(sc, eligible).served_ids(sc) == want, f"trial {trial}"

"""Scenario data model: generation, validation, per-MVNO counting."""

import dataclasses

import pytest

from dronecell.channel import ENVIRONMENTS, ChannelConfig
from dronecell.scenario import (
    Assignment,
    ObjectiveWeights,
    PlacementRegion,
    Scenario,
    ScenarioProfile,
    TenancyTargets,
    User,
    assignment_from_ids,
    even_targets,
    generate_scenario,
    mvno_counts,
    validate,
)

URBAN = ENVIRONMENTS["urban"]


def make_scenario(users, num_mvnos=2, targets=None, capacity=None, weights=None):
    users = tuple(users)
    return Scenario(
        users=users,
        num_mvnos=num_mvnos,
        targets=TenancyTargets(targets or even_targets(len(users), num_mvnos)),
        weights=weights or ObjectiveWeights(),
        capacity=capacity if capacity is not None else float(max(len(users), 1)),
        region=PlacementRegion((-1000.0, 1000.0), (-1000.0, 1000.0), (20.0, 80.0)),
        environment=URBAN,
        channel=ChannelConfig(),
    )


def test_generate_is_deterministic():
    a = generate_scenario(7, 24, 2, URBAN)
    b = generate_scenario(7, 24, 2, URBAN)
    assert a == b


def test_generate_different_seeds_differ():
    assert generate_scenario(7, 24, 2, URBAN) != generate_scenario(8, 24, 2, URBAN)


def test_generate_shape_and_defaults():
    sc = generate_scenario(3, 24, 2, URBAN)
    assert len(sc.users) == 24
    assert sc.num_mvnos == 2
    assert sc.targets.counts == (12, 12)
    assert sc.capacity == 24.0
    counts = [0, 0]
    for u in sc.users:
        counts[u.mvno_id] += 1
        assert -1000.0 <= u.x <= 1000.0 and -1000.0 <= u.y <= 1000.0
        assert u.max_path_loss_db == 100.0
        assert u.resource_demand == 1.0
        assert u.energy_cost == 0.0
        assert not u.content_request
    assert sum(counts) == 24
    assert validate(sc) == []


def test_generate_empty_scenario_validates():
    sc = generate_scenario(1, 0, 2, URBAN)
    assert sc.users == ()
    assert validate(sc) == []


def test_generate_profile_overrides():
    profile = ScenarioProfile(
        max_path_loss_db=95.0,
        resource_demand=2.0,
        energy_cost_range=(0.25, 0.75),
        content_probability=1.0,
        capacity=10.0,
        targets=(5, 3, 2),
        h_bounds=(10.0, 50.0),
    )
    sc = generate_scenario(11, 12, 3, URBAN, field_size_m=500.0, profile=profile)
    assert sc.capacity == 10.0
    assert sc.targets.counts == (5, 3, 2)
    assert sc.region.h_bounds == (10.0, 50.0)
    assert sc.region.x_bounds == (-250.0, 250.0)
    for u in sc.users:
        assert u.max_path_loss_db == 95.0
        assert u.resource_demand == 2.0
        assert 0.25 <= u.energy_cost <= 0.75
        assert u.content_request


def test_generate_rejects_bad_arguments():
    with pytest.raises(ValueError):
        generate_scenario(1, -1, 2, URBAN)
    with pytest.raises(ValueError):
        generate_scenario(1, 10, 0, URBAN)


def test_even_targets_splits_remainder_forward():
    assert even_targets(24, 2) == (12, 12)
    assert even_targets(10, 3) == (4, 3, 3)
    assert even_targets(2, 4) == (1, 1, 0, 0)


def test_weights_validation():
    with pytest.raises(ValueError):
        ObjectiveWeights(w1=-0.5)
    with pytest.raises(ValueError):
        ObjectiveWeights(norm="L3")
    assert ObjectiveWeights(norm="L2").norm == "L2"


def test_validate_flags_bad_mvno_id():
    sc = make_scenario([User(id=1, x=0.0, y=0.0, mvno_id=5)])
    violations = validate(sc)
    assert any("user 1" in v and "mvno_id" in v for v in violations)


def test_validate_flags_capacity_and_targets():
    sc = make_scenario([User(id=1, x=0.0, y=0.0, mvno_id=0)])
    bad = dataclasses.replace(sc, capacity=0.0, targets=TenancyTargets((5, 0)))
    violations = validate(bad)
    assert any("capacity" in v for v in violations)
    assert any("exceeds the user count" in v for v in violations)


def test_validate_flags_duplicates_bounds_and_fields():
    users = [
        User(id=1, x=0.0, y=0.0, mvno_id=0),
        User(id=1, x=5000.0, y=0.0, mvno_id=1, resource_demand=-1.0, energy_cost=2.0),
    ]
    violations = validate(make_scenario(users))
    assert any("duplicated" in v for v in violations)
    assert any("outside the field" in v for v in violations)
    assert any("resource_demand" in v for v in violations)
    assert any("energy_cost" in v for v in violations)


def test_validate_flags_bad_region():
    sc = make_scenario([User(id=1, x=0.0, y=0.0, mvno_id=0)])
    bad = dataclasses.replace(
        sc, region=PlacementRegion((10.0, -10.0), (-10.0, 10.0), (0.0, 50.0))
    )
    violations = validate(bad)
    assert any("x_bounds" in v for v in violations)
    assert any("above ground" in v for v in violations)


def test_validate_flags_non_finite_numbers():
    nan, inf = float("nan"), float("inf")
    sc = make_scenario(
        [User(id=1, x=0.0, y=0.0, mvno_id=0, max_path_loss_db=nan, energy_cost=nan, resource_demand=inf)],
        capacity=inf,
        weights=ObjectiveWeights(w1=nan, w4=inf),
    )
    bad = dataclasses.replace(
        sc,
        region=PlacementRegion((-inf, 10.0), (-10.0, 10.0), (20.0, nan)),
        channel=ChannelConfig(frequency_hz=inf),
        environment=dataclasses.replace(URBAN, plos_a=nan),
    )
    finite = [v for v in validate(bad) if "must be finite" in v]
    for name in (
        "capacity",
        "weight w1",
        "weight w4",
        "region x_bounds",
        "region h_bounds",
        "channel frequency_hz",
        "environment plos_a",
        "user 1: max_path_loss_db",
        "user 1: energy_cost",
        "user 1: resource_demand",
    ):
        assert sum(v.startswith(name) for v in finite) == 1, name
    assert len(finite) == 10


def test_validate_ok_on_well_formed_case():
    sc = generate_scenario(5, 24, 2, URBAN)
    assert validate(sc) == []


def test_mvno_counts_zero_assignment():
    sc = generate_scenario(2, 24, 2, URBAN)
    assert mvno_counts(sc, Assignment((0,) * 24)) == (0, 0)


def test_mvno_counts_on_fixed_split():
    users = [User(id=i, x=0.0, y=0.0, mvno_id=0 if i < 13 else 1) for i in range(24)]
    sc = make_scenario(users)
    assert mvno_counts(sc, Assignment((1,) * 24)) == (13, 11)


def test_mvno_counts_single_served_user():
    users = [User(id=0, x=0.0, y=0.0, mvno_id=0), User(id=1, x=1.0, y=0.0, mvno_id=1)]
    sc = make_scenario(users)
    assert mvno_counts(sc, Assignment((0, 1))) == (0, 1)


def test_mvno_counts_sum_matches_total():
    sc = generate_scenario(9, 30, 3, URBAN)
    import random

    rng = random.Random(9)
    for _ in range(25):
        served = tuple(rng.randint(0, 1) for _ in range(30))
        a = Assignment(served)
        assert sum(mvno_counts(sc, a)) == a.total


def test_mvno_counts_length_mismatch():
    sc = generate_scenario(2, 24, 2, URBAN)
    with pytest.raises(ValueError):
        mvno_counts(sc, Assignment((1, 0)))


def test_assignment_from_ids_round_trip():
    sc = generate_scenario(4, 10, 2, URBAN)
    a = assignment_from_ids(sc, {2, 5, 7})
    assert a.served_ids(sc) == (2, 5, 7)
    assert a.total == 3

"""Metamorphic relations between the solves of two related layouts.

The oracle stops at a handful of users, but a relation between two solves
needs none, so these seeded loops reach n = 240.  Each relation transforms a
``generate_scenario`` layout (2 tenants, the default profile) and compares
the two solves: an equal objective and served count where the transform
keeps the problem, an objective no lower where it only adds placements or
room.  A failure names its layout; it is a bug report, not a bound to widen.
"""

import math
from dataclasses import replace
from functools import cache

from dronecell.channel import ENVIRONMENTS
from dronecell.scenario import PlacementRegion, generate_scenario
from dronecell.solver import solve

DB_PER_DOUBLING = 20.0 * math.log10(2.0)  # loss(2h, 2r) = loss(h, r) + this


@cache
def solved(env, n, seed):
    scenario = generate_scenario(seed, n, 2, ENVIRONMENTS[env])
    return scenario, solve(scenario)


def layouts(seeds, sizes):
    for env in ENVIRONMENTS:
        for n in sizes:
            for seed in seeds:
                yield (env, n, seed), *solved(env, n, seed)


def moved(scenario, x, y, x_bounds, y_bounds):
    """Each user at (x(u), y(u)), in a box with the given x and y bounds."""
    users = tuple(replace(u, x=x(u), y=y(u)) for u in scenario.users)
    region = replace(scenario.region, x_bounds=x_bounds, y_bounds=y_bounds)
    return replace(scenario, users=users, region=region)


def mirrored(scenario):
    (x_lo, x_hi), y_bounds = scenario.region.x_bounds, scenario.region.y_bounds
    return moved(scenario, lambda u: -u.x, lambda u: u.y, (-x_hi, -x_lo), y_bounds)


def swapped(scenario):
    region = scenario.region
    return moved(scenario, lambda u: u.y, lambda u: u.x, region.y_bounds, region.x_bounds)


def doubled(scenario):
    """The same problem at twice the scale: coordinates, box and window x 2,
    and every threshold + 20*log10(2) dB."""
    region, channel = scenario.region, scenario.channel
    users = tuple(
        replace(u, x=2.0 * u.x, y=2.0 * u.y, max_path_loss_db=u.max_path_loss_db + DB_PER_DOUBLING)
        for u in scenario.users
    )
    bounds = (region.x_bounds, region.y_bounds, region.h_bounds)
    return replace(
        scenario,
        users=users,
        region=PlacementRegion(*((2.0 * lo, 2.0 * hi) for lo, hi in bounds)),
        channel=replace(channel, max_path_loss_db=channel.max_path_loss_db + DB_PER_DOUBLING),
    )


def unequal(transform, seeds, sizes):
    """Every layout whose transformed solve differs in objective or served count."""
    failures = []
    for where, scenario, base in layouts(seeds, sizes):
        other = solve(transform(scenario))
        before, after = (base.objective, base.total_served), (other.objective, other.total_served)
        if after != before:
            failures.append((where, before, after))
    return failures


def test_mirroring_the_layout_keeps_the_objective_and_served_count():
    assert unequal(mirrored, range(10), (30, 120)) == []


def test_swapping_the_axes_keeps_the_objective_and_served_count():
    assert unequal(swapped, range(10), (30, 120)) == []


def test_doubling_the_scale_keeps_the_objective_and_served_count():
    assert unequal(doubled, range(6), (30, 120, 240)) == []


def test_three_more_units_of_a_binding_capacity_never_lower_the_objective():
    failures = []
    for where, scenario, base in layouts(range(10), (30, 120)):
        # One unit below what the uncapped optimum serves, so that optimum no longer fits.
        capacity = float(max(base.total_served - 1, 1))
        tight = solve(replace(scenario, capacity=capacity))
        loose = solve(replace(scenario, capacity=capacity + 3.0))
        if loose.objective < tight.objective:
            failures.append((where, capacity, tight.objective, loose.objective))
    assert failures == []


def test_widening_the_window_never_lowers_the_objective_at_uniform_thresholds():
    # With thresholds that differ, a wider window can lose users today (bug A);
    # that relation lands with the fix.
    failures = []
    for where, scenario, base in layouts(range(10), (30, 120)):
        wide = replace(scenario, region=replace(scenario.region, h_bounds=(20.0, 1000.0)))
        other = solve(wide)
        if other.objective < base.objective:
            failures.append((where, base.objective, other.objective))
    assert failures == []

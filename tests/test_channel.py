"""Channel model: LOS sigmoid, mean path loss, coverage radius, altitude search."""

import itertools
import math
import random

import warnings

import pytest

from dronecell import channel
from dronecell.channel import (
    ALTITUDE_GRID_STEPS,
    ALTITUDE_TOLERANCE_M,
    ENVIRONMENTS,
    MAX_RADIUS_M,
    RADIUS_DB_TOLERANCE,
    RADIUS_TOLERANCE_M,
    ChannelConfig,
    Environment,
    coverage_radii,
    coverage_radius,
    free_space_path_loss,
    los_probability,
    optimal_altitude,
    path_loss,
)

CFG = ChannelConfig()
URBAN = ENVIRONMENTS["urban"]
CARRIERS = (0.7e9, 2.0e9, 5.8e9)


def scalar_radii(altitudes, threshold, env, cfg):
    # The uncached reference, so no earlier call can answer for it.
    return [coverage_radius.__wrapped__(h, threshold, env, cfg) for h in altitudes]


def same_bits(got, want):
    return [repr(g) for g in got.tolist()] == [repr(w) for w in want]


def random_environment(rng):
    if rng.random() < 0.5:
        return rng.choice(list(ENVIRONMENTS.values()))
    eta_los = rng.uniform(0.0, 5.0)
    return Environment(
        "custom", rng.uniform(1.0, 30.0), rng.uniform(0.05, 0.6),
        eta_los, eta_los + rng.uniform(0.0, 40.0),
    )


def test_free_space_loss_reference_value():
    # 20*log10(4*pi*f*d/c) at 2 GHz and 1 km
    assert free_space_path_loss(1000.0, 2.0e9) == pytest.approx(98.4684, abs=5e-4)


def test_free_space_loss_slope_is_six_db_per_doubling():
    l1 = free_space_path_loss(500.0, 2.0e9)
    l2 = free_space_path_loss(1000.0, 2.0e9)
    assert l2 - l1 == pytest.approx(20.0 * math.log10(2.0), abs=1e-9)


def test_free_space_loss_rejects_nonpositive_distance():
    with pytest.raises(ValueError):
        free_space_path_loss(0.0, 2.0e9)


def test_los_probability_at_nadir_is_nearly_one():
    assert los_probability(90.0, URBAN) == pytest.approx(0.99997, abs=1e-5)
    for env in ENVIRONMENTS.values():
        assert 0.8 < los_probability(90.0, env) <= 1.0


def test_los_probability_increases_with_elevation():
    rng = random.Random(1)
    for env in ENVIRONMENTS.values():
        for _ in range(50):
            a = rng.uniform(0.1, 89.0)
            b = rng.uniform(a + 0.5, 90.0)
            assert los_probability(a, env) < los_probability(b, env)


def test_los_probability_rejects_out_of_range_angles():
    for bad in (0.0, -5.0, 90.0001, 180.0):
        with pytest.raises(ValueError):
            los_probability(bad, URBAN)


def test_environment_presets_are_exposed():
    assert set(ENVIRONMENTS) == {"suburban", "urban", "dense_urban", "highrise_urban"}
    for env in ENVIRONMENTS.values():
        assert 0.0 <= env.eta_los_db <= env.eta_nlos_db


def test_environment_validation():
    with pytest.raises(ValueError):
        Environment("bad", -1.0, 0.1, 1.0, 20.0)
    with pytest.raises(ValueError):
        Environment("bad", 9.61, 0.16, 5.0, 2.0)
    with pytest.raises(ValueError):
        ChannelConfig(frequency_hz=0.0)
    with pytest.raises(ValueError):
        ChannelConfig(max_path_loss_db=-3.0)


def test_path_loss_between_pure_los_and_nlos_bounds():
    for env in ENVIRONMENTS.values():
        for h, r in ((100.0, 0.0), (100.0, 500.0), (50.0, 2000.0)):
            fspl = free_space_path_loss(math.hypot(h, r), CFG.frequency_hz)
            loss = path_loss(h, r, env, CFG)
            assert fspl + env.eta_los_db <= loss <= fspl + env.eta_nlos_db


def test_path_loss_increases_with_ground_range():
    for env in ENVIRONMENTS.values():
        for h in (30.0, 120.0, 600.0):
            probes = [10.0 * k for k in range(201)]
            losses = [path_loss(h, r, env, CFG) for r in probes]
            assert all(a < b for a, b in zip(losses, losses[1:]))


def test_path_loss_rejects_bad_geometry():
    with pytest.raises(ValueError):
        path_loss(0.0, 10.0, URBAN, CFG)
    with pytest.raises(ValueError):
        path_loss(100.0, -1.0, URBAN, CFG)


def test_coverage_radius_is_zero_when_nadir_fails():
    assert coverage_radius(100.0, 10.0, URBAN, CFG) == 0.0


def test_coverage_radius_boundary_contract():
    # The loss at the returned radius never exceeds the threshold and stays
    # within a hundredth of a dB of it.
    for env in ENVIRONMENTS.values():
        for h in (20.0, 50.0, 120.0, 400.0, 1500.0):
            r = coverage_radius(h, 100.0, env, CFG)
            if r == 0.0 or r >= MAX_RADIUS_M:
                continue
            loss = path_loss(h, r, env, CFG)
            assert loss <= 100.0
            assert 100.0 - loss <= 0.01
            assert path_loss(h, r + RADIUS_TOLERANCE_M, env, CFG) > 100.0


def test_coverage_radius_hits_cap_for_huge_thresholds():
    assert coverage_radius(100.0, 500.0, URBAN, CFG) == MAX_RADIUS_M


def test_coverage_radius_monotone_in_threshold():
    radii = [coverage_radius(100.0, t, URBAN, CFG) for t in (90.0, 95.0, 100.0, 105.0)]
    assert all(a <= b for a, b in zip(radii, radii[1:]))


def test_coverage_radius_validation():
    with pytest.raises(ValueError):
        coverage_radius(-1.0, 100.0, URBAN, CFG)
    with pytest.raises(ValueError):
        coverage_radius(100.0, 0.0, URBAN, CFG)


def test_optimal_altitude_interior_maximum_for_urban():
    h_star, r_star = optimal_altitude(100.0, URBAN, CFG, (1.0, 3000.0))
    assert 1.0 < h_star < 3000.0
    assert r_star > 0.0
    # No scanned altitude may beat the reported optimum by more than the
    # radius tolerance.
    for k in range(301):
        h = 1.0 + k * (3000.0 - 1.0) / 300.0
        assert coverage_radius(h, 100.0, URBAN, CFG) <= r_star + RADIUS_TOLERANCE_M


def test_optimal_altitude_clips_to_range():
    h_star, r_star = optimal_altitude(100.0, URBAN, CFG, (20.0, 80.0))
    assert h_star == 80.0  # radius still climbing at the top of this window
    assert r_star == coverage_radius(80.0, 100.0, URBAN, CFG)


def test_optimal_altitude_degenerate_range():
    h_star, r_star = optimal_altitude(100.0, URBAN, CFG, (60.0, 60.0))
    assert h_star == 60.0
    assert r_star == coverage_radius(60.0, 100.0, URBAN, CFG)


def test_optimal_altitude_no_coverage():
    assert optimal_altitude(5.0, URBAN, CFG, (20.0, 80.0)) == (20.0, 0.0)


def test_optimal_altitude_validation():
    with pytest.raises(ValueError):
        optimal_altitude(100.0, URBAN, CFG, (0.0, 100.0))
    with pytest.raises(ValueError):
        optimal_altitude(100.0, URBAN, CFG, (100.0, 50.0))


def test_optimal_altitude_deterministic():
    a = optimal_altitude(100.0, URBAN, CFG, (1.0, 3000.0))
    b = optimal_altitude(100.0, URBAN, CFG, (1.0, 3000.0))
    assert a == b


@pytest.mark.parametrize("frequency_hz", CARRIERS)
@pytest.mark.parametrize("name", sorted(ENVIRONMENTS))
def test_coverage_radii_equal_the_scalar_radii_bit_for_bit(name, frequency_hz):
    env, cfg = ENVIRONMENTS[name], ChannelConfig(frequency_hz=frequency_hz)
    grid = [1.0 + k * (3000.0 - 1.0) / 150 for k in range(151)]
    for threshold in (20.0, 45.0, 60.0, 95.0, 100.0, 117.3, 130.0, 300.0):
        want = scalar_radii(grid, threshold, env, cfg)
        assert same_bits(coverage_radii(grid, threshold, env, cfg), want), threshold
    # 20 dB leaves every altitude without coverage, 300 dB caps every radius.
    assert scalar_radii(grid, 20.0, env, cfg) == [0.0] * len(grid)
    assert scalar_radii(grid, 300.0, env, cfg) == [MAX_RADIUS_M] * len(grid)


def test_coverage_radii_follow_the_db_test_below_the_width_tolerance():
    # Near the ground in highrise the loss climbs faster than 0.005 dB per
    # 0.05 m, so the bisection keeps halving after the bracket is 0.1 m wide.
    env = ENVIRONMENTS["highrise_urban"]
    grid = [1.0 + 0.25 * k for k in range(120)]
    for cfg in (ChannelConfig(frequency_hz=f) for f in CARRIERS):
        want = scalar_radii(grid, 100.0, env, cfg)
        assert same_bits(coverage_radii(grid, 100.0, env, cfg), want)
        steep = [
            h for h, r in zip(grid, want)
            if 0.0 < r < MAX_RADIUS_M
            and path_loss(h, r + RADIUS_TOLERANCE_M / 2, env, cfg) - path_loss(h, r, env, cfg)
            > RADIUS_DB_TOLERANCE
        ]
        assert len(steep) == len(grid)


def test_coverage_radii_recheck_a_decision_at_the_threshold_with_the_scalar_loss(monkeypatch):
    # With q equal to the loss at 100 m, the first doubling decision sits
    # inside the numpy slack and must be made by the scalar path_loss; with q
    # RADIUS_DB_TOLERANCE above it, the first dB test of the bisection does.
    calls = []

    def counted(*args):
        calls.append(args)
        return path_loss(*args)

    for env in ENVIRONMENTS.values():
        for h, offset in itertools.product((25.0, 80.0, 300.0), (0.0, RADIUS_DB_TOLERANCE)):
            q = path_loss(h, 100.0, env, CFG) + offset
            want = scalar_radii([h], q, env, CFG)
            calls.clear()
            with monkeypatch.context() as m:
                m.setattr(channel, "path_loss", counted)
                got = coverage_radii([h], q, env, CFG)
            assert (h, 100.0, env, CFG) in calls
            assert same_bits(got, want)


def test_coverage_radii_take_the_scalar_limits_without_warnings():
    # A carrier of 1e300 Hz overflows the free-space product (infinite loss,
    # no coverage); 5e-324 Hz underflows it to 0, where math.log10 raises.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for frequency_hz in (1e-300, 1e300, 1e308):
            cfg = ChannelConfig(frequency_hz=frequency_hz)
            grid = [1.0, 50.0, 2000.0]
            want = scalar_radii(grid, 100.0, URBAN, cfg)
            assert same_bits(coverage_radii(grid, 100.0, URBAN, cfg), want)
        grid = [20.0 + 10.0 * k for k in range(50)]
        for plos_b in (1000.0, 1e15):
            steep = Environment("steep", 9.61, plos_b, 1.0, 20.0)
            for threshold in (100.0, 105.0):
                want = scalar_radii(grid, threshold, steep, CFG)
                assert same_bits(coverage_radii(grid, threshold, steep, CFG), want)
        # At plos_b = 1e15 the LOS probability steps from 0 to 1 within a few
        # ulps of the range where the elevation is 9.61 degrees.  At 105 dB
        # the threshold falls inside that 19 dB step, so the dB test never
        # holds and the bisection ends with its bracket exhausted.
        exhausted = [
            h for h, r in zip(grid, want)
            if 105.0 - path_loss(h, r, steep, CFG) > RADIUS_DB_TOLERANCE
        ]
        assert len(exhausted) > 10
        tiny = ChannelConfig(frequency_hz=5e-324)
        with pytest.raises(ValueError):
            coverage_radius.__wrapped__(50.0, 100.0, URBAN, tiny)
        with pytest.raises(ValueError):
            coverage_radii([50.0], 100.0, URBAN, tiny)


def test_coverage_radii_validation():
    assert coverage_radii([], 100.0, URBAN, CFG).shape == (0,)
    for bad in ([10.0, 0.0], [-1.0], [math.nan]):
        with pytest.raises(ValueError, match="altitude"):
            coverage_radii(bad, 100.0, URBAN, CFG)
    with pytest.raises(ValueError, match="threshold"):
        coverage_radii([10.0], 0.0, URBAN, CFG)
    # At 5e-324 m every elevation off the nadir rounds to 0 degrees, which
    # los_probability rejects.
    with pytest.raises(ValueError, match="elevation"):
        coverage_radius.__wrapped__(5e-324, 100.0, URBAN, CFG)
    with pytest.raises(ValueError, match="elevation"):
        coverage_radii([50.0, 5e-324], 100.0, URBAN, CFG)


def scalar_optimal_altitude(threshold, env, cfg, h_min, h_max):
    """The altitude search with every grid radius from the scalar coverage_radius."""

    def radius(h):
        return coverage_radius(h, threshold, env, cfg)

    if h_min == h_max:
        return h_min, radius(h_min)
    step = (h_max - h_min) / ALTITUDE_GRID_STEPS
    grid = [h_min + k * step for k in range(ALTITUDE_GRID_STEPS + 1)]
    radii = [radius(h) for h in grid]
    best_idx = max(range(len(grid)), key=lambda i: (radii[i], -grid[i]))
    best_h, best_r = grid[best_idx], radii[best_idx]
    if best_r <= 0.0:
        return h_min, 0.0
    lo = grid[max(best_idx - 1, 0)]
    hi = grid[min(best_idx + 1, len(grid) - 1)]

    def consider(h, r):
        nonlocal best_h, best_r
        if r > best_r or (r == best_r and h < best_h):
            best_h, best_r = h, r

    golden = (math.sqrt(5.0) - 1.0) / 2.0
    c = hi - golden * (hi - lo)
    d = lo + golden * (hi - lo)
    fc, fd = radius(c), radius(d)
    consider(c, fc)
    consider(d, fd)
    while hi - lo > ALTITUDE_TOLERANCE_M:
        if fc > fd:
            hi, d, fd = d, c, fc
            c = hi - golden * (hi - lo)
            fc = radius(c)
            consider(c, fc)
        else:
            lo, c, fc = c, d, fd
            d = lo + golden * (hi - lo)
            fd = radius(d)
            consider(d, fd)
    return best_h, best_r


def test_optimal_altitude_equals_the_all_scalar_search():
    rng = random.Random(20261018)
    for _ in range(240):
        env = random_environment(rng)
        cfg = ChannelConfig(frequency_hz=rng.uniform(0.7e9, 5.8e9))
        threshold = rng.uniform(60.0, 130.0)
        h_min = rng.choice([1.0, 20.0, rng.uniform(1.0, 1500.0)])
        h_max = h_min + rng.choice([0.0, 60.0, rng.uniform(0.0, 1500.0)])
        want = scalar_optimal_altitude(threshold, env, cfg, h_min, h_max)
        got = optimal_altitude(threshold, env, cfg, (h_min, h_max))
        assert repr(got) == repr(want), (threshold, env, cfg, h_min, h_max)

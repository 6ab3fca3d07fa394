"""Channel model: LOS sigmoid, mean path loss, coverage radius, altitude search."""

import math
import os
import random
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import dronecell
from dronecell import channel
from dronecell.channel import (
    ALTITUDE_GRID_STEPS,
    ALTITUDE_TOLERANCE_M,
    ENVIRONMENTS,
    MAX_RADIUS_M,
    RADIUS_DB_TOLERANCE,
    RADIUS_TOLERANCE_M,
    SPEED_OF_LIGHT,
    ChannelConfig,
    Environment,
    coverage_radius,
    optimal_altitude,
    path_loss,
)

CFG = ChannelConfig()
URBAN = ENVIRONMENTS["urban"]
CARRIERS = (0.7e9, 2.0e9, 5.8e9)
# No excess loss: path_loss is the free-space loss.
FREE_SPACE = replace(URBAN, name="free_space", eta_los_db=0.0, eta_nlos_db=0.0)


def random_environment(rng):
    if rng.random() < 0.5:
        return rng.choice(list(ENVIRONMENTS.values()))
    eta_los = rng.uniform(0.0, 5.0)
    return Environment(
        "custom", rng.uniform(1.0, 30.0), rng.uniform(0.05, 0.6),
        eta_los, eta_los + rng.uniform(0.0, 40.0),
    )


def free_space_loss(distance_m, frequency_hz):
    """20*log10(4*pi*f*d/c), the free-space loss in dB."""
    return 20.0 * math.log10(4.0 * math.pi * frequency_hz * distance_m / SPEED_OF_LIGHT)


def los_probability(altitude_m, ground_range_m, env):
    """The LOS probability P read back from ``path_loss``.

    The loss less the free-space loss is eta_nlos - P * (eta_nlos - eta_los).
    """
    free_space = replace(env, eta_los_db=0.0, eta_nlos_db=0.0)
    excess = path_loss(altitude_m, ground_range_m, env, CFG) - path_loss(
        altitude_m, ground_range_m, free_space, CFG
    )
    return (env.eta_nlos_db - excess) / (env.eta_nlos_db - env.eta_los_db)


def test_free_space_loss_reference_value():
    # 20*log10(4*pi*f*d/c) at 2 GHz and 1 km
    assert path_loss(1000.0, 0.0, FREE_SPACE, CFG) == pytest.approx(98.4684, abs=5e-4)
    assert path_loss(600.0, 800.0, FREE_SPACE, CFG) == pytest.approx(98.4684, abs=5e-4)


def test_free_space_loss_slope_is_six_db_per_doubling():
    l1 = path_loss(300.0, 400.0, FREE_SPACE, CFG)
    l2 = path_loss(600.0, 800.0, FREE_SPACE, CFG)
    assert l2 - l1 == pytest.approx(20.0 * math.log10(2.0), abs=1e-9)


def test_free_space_loss_rejects_nonpositive_distance():
    with pytest.raises(ValueError, match="altitude must be positive"):
        path_loss(0.0, 0.0, FREE_SPACE, CFG)
    # A free-space product that underflows to 0 has no logarithm.
    message = r"^the free-space product of carrier 5e-324 Hz and slant 1\.0 m rounds to 0"
    with pytest.raises(ValueError, match=message):
        path_loss(1.0, 0.0, FREE_SPACE, ChannelConfig(frequency_hz=5e-324))


def test_los_probability_at_nadir_is_nearly_one():
    assert los_probability(100.0, 0.0, URBAN) == pytest.approx(0.99997, abs=1e-5)
    for env in ENVIRONMENTS.values():
        assert 0.8 < los_probability(100.0, 0.0, env) <= 1.0


def test_los_probability_increases_with_elevation():
    # With eta_los = 0 and eta_nlos = 2^996 the loss is (1 - P) * 2^996
    # exactly, which dwarfs the free-space term, so the loss falls strictly
    # wherever P rises by an ulp.
    rng = random.Random(1)
    for env in ENVIRONMENTS.values():
        probe = replace(env, eta_los_db=0.0, eta_nlos_db=2.0**996)

        def loss(elevation_deg):
            return path_loss(100.0, 100.0 / math.tan(math.radians(elevation_deg)), probe, CFG)

        for _ in range(50):
            a = rng.uniform(0.1, 89.0)
            b = rng.uniform(a + 0.5, 90.0)
            assert loss(a) > loss(b)


def test_los_probability_rejects_out_of_range_angles():
    # Off the nadir of a 5e-324 m altitude every elevation rounds to 0 degrees.
    with pytest.raises(ValueError, match=r"elevation angle must be in \(0, 90\], got 0.0"):
        path_loss(5e-324, 1e6, URBAN, CFG)


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


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize(
    "make",
    [
        lambda v: ChannelConfig(frequency_hz=v),
        lambda v: ChannelConfig(max_path_loss_db=v),
        lambda v: Environment("bad", v, 0.16, 1.0, 20.0),
        lambda v: Environment("bad", 9.61, v, 1.0, 20.0),
    ],
    ids=["frequency_hz", "max_path_loss_db", "plos_a", "plos_b"],
)
def test_channel_parameters_must_be_finite(make, value):
    # NaN passes a `<= 0` test; it would give a NaN path loss or a zero radius.
    with pytest.raises(ValueError, match="finite and positive"):
        make(value)


@pytest.mark.parametrize("eta_los, eta_nlos", [(1.0, math.inf), (math.inf, math.inf), (math.nan, 20.0)])
def test_excess_losses_must_be_finite(eta_los, eta_nlos):
    # An infinite loss made every path loss infinite and every radius zero.
    with pytest.raises(ValueError, match="excess losses must be finite"):
        Environment("bad", 9.61, 0.16, eta_los, eta_nlos)


def test_path_loss_between_pure_los_and_nlos_bounds():
    for env in ENVIRONMENTS.values():
        for h, r in ((100.0, 0.0), (100.0, 500.0), (50.0, 2000.0)):
            fspl = free_space_loss(math.hypot(h, r), CFG.frequency_hz)
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
    # within RADIUS_DB_TOLERANCE of it, also where the loss is so steep in
    # range (dense urban and highrise, 20-120 m) that the dB test, not the
    # 0.1 m width, ends the bisection.
    for env in ENVIRONMENTS.values():
        for h in (20.0, 50.0, 120.0, 400.0, 1500.0):
            r = coverage_radius(h, 100.0, env, CFG)
            if r == 0.0 or r >= MAX_RADIUS_M:
                continue
            loss = path_loss(h, r, env, CFG)
            assert loss <= 100.0
            assert 100.0 - loss <= RADIUS_DB_TOLERANCE
            assert path_loss(h, r + RADIUS_TOLERANCE_M, env, CFG) > 100.0


def test_coverage_radius_hits_cap_for_huge_thresholds():
    assert coverage_radius(100.0, 500.0, URBAN, CFG) == MAX_RADIUS_M


def test_coverage_radius_monotone_in_threshold():
    radii = [coverage_radius(100.0, t, URBAN, CFG) for t in (90.0, 95.0, 100.0, 105.0)]
    assert all(a <= b for a, b in zip(radii, radii[1:]))


def test_coverage_radius_evaluates_the_loss_once_per_range(monkeypatch):
    # The bracket's inside end keeps the loss its doubling computed there.
    ranges = []

    def counted(h, r, env, cfg):
        ranges.append(r)
        return path_loss(h, r, env, cfg)

    monkeypatch.setattr(channel, "path_loss", counted)
    for env in ENVIRONMENTS.values():
        for threshold in (95.0, 100.0, 110.0):
            ranges.clear()
            coverage_radius(50.0, threshold, env, CFG)
            assert len(ranges) > 2 and len(ranges) == len(set(ranges)), (env.name, threshold)


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
    # An infinite window used to reach path_loss with a NaN grid altitude.
    for h_range in ((1.0, math.inf), (math.inf, math.inf)):
        with pytest.raises(ValueError, match=r"0 < h_min <= h_max < inf, got \("):
            optimal_altitude(100.0, URBAN, CFG, h_range)


EXTREME_WINDOWS = [
    (400.0, "suburban", (1.0, 1e30)),
    (1000.0, "highrise_urban", (1.0, 1e300)),
    (400.0, "urban", (1e-300, 1e300)),
]


def test_the_golden_section_ends_on_a_bracket_its_floats_cannot_shrink():
    # Near 1e30 m, neighbouring floats lie further apart than
    # ALTITUDE_TOLERANCE_M, so the bracket stops shrinking before it is that
    # narrow.  The searches run in a subprocess, so one that never ends fails
    # on the timeout instead of hanging the suite.
    src = str(Path(dronecell.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "from dronecell.channel import ENVIRONMENTS, ChannelConfig, optimal_altitude\n"
        f"for threshold, name, window in {EXTREME_WINDOWS!r}:\n"
        "    print(repr(optimal_altitude(threshold, ENVIRONMENTS[name], ChannelConfig(), window)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=30
    )
    assert proc.returncode == 0, proc.stderr
    results = [optimal_altitude(t, ENVIRONMENTS[name], CFG, w) for t, name, w in EXTREME_WINDOWS]
    assert proc.stdout.splitlines() == [repr(result) for result in results]
    for (threshold, name, _), (h, r) in zip(EXTREME_WINDOWS, results):
        assert r > 0 and r == coverage_radius(h, threshold, ENVIRONMENTS[name], CFG)


@pytest.mark.parametrize(
    "name, threshold, h_min, h_max",
    [("urban", 100.0, 20.0, 1e6), ("dense_urban", 60.0, 1.0, 5000.0), ("urban", 74.0, 20.0, 20000.0)],
)
def test_optimal_altitude_finds_the_peak_when_both_probes_have_no_coverage(name, threshold, h_min, h_max):
    # Each window reaches far above the altitude where even the nadir loss
    # exceeds the threshold, so the golden section's first probes both see a
    # radius of 0; the search used to climb away from the peak and return the
    # bottom of the window, (20.0, 139.45) for the first case.
    env = ENVIRONMENTS[name]
    h, r = optimal_altitude(threshold, env, CFG, (h_min, h_max))
    scan = np.geomspace(h_min, h_max, 2001).tolist()
    best = max(coverage_radius(a, threshold, env, CFG) for a in scan)
    assert h_min <= h <= h_max
    assert r == coverage_radius(h, threshold, env, CFG)
    assert r >= best - RADIUS_TOLERANCE_M


def test_highrise_radius_has_two_peaks_in_altitude():
    # ln cos(theta) - (ln 10 / 20) * eta(theta) sets the radius at each
    # elevation; it has two interior maxima on highrise_urban and one on the
    # other presets, so a closed-form altitude must choose between the two.
    theta = np.arange(1, 9000) / 100.0
    peaks = {}
    for name, env in ENVIRONMENTS.items():
        p_los = 1.0 / (1.0 + env.plos_a * np.exp(-env.plos_b * (theta - env.plos_a)))
        eta = p_los * env.eta_los_db + (1.0 - p_los) * env.eta_nlos_db
        g = np.log(np.cos(np.radians(theta))) - math.log(10.0) / 20.0 * eta
        peaks[name] = theta[1:-1][(g[1:-1] > g[:-2]) & (g[1:-1] >= g[2:])].tolist()
    assert peaks == {
        "suburban": [20.34],
        "urban": [42.44],
        "dense_urban": [54.62],
        "highrise_urban": [6.67, 75.52],
    }
    # Each peak wins on its own window; the low one is not the clipped high one.
    highrise = ENVIRONMENTS["highrise_urban"]
    h, r = optimal_altitude(100.0, highrise, CFG, (1.0, 12.0))
    assert (round(h, 2), r) == (1.81, 24.2431640625)
    assert coverage_radius(12.0, 100.0, highrise, CFG) < r - 0.1
    h, r = optimal_altitude(100.0, highrise, CFG, (1.0, 5000.0))
    assert (round(h, 2), r) == (231.86, 60.64453125)


def test_a_nan_threshold_is_rejected():
    # NaN <= 0 is False, so a NaN threshold used to pass the check and give
    # a radius of 0.0 and an optimum of (20.0, 0.0) without an error.
    with pytest.raises(ValueError, match="threshold must be positive, got nan"):
        coverage_radius(100.0, math.nan, URBAN, CFG)
    for h_range in ((20.0, 80.0), (60.0, 60.0)):
        with pytest.raises(ValueError, match="threshold must be positive, got nan"):
            optimal_altitude(math.nan, URBAN, CFG, h_range)


def test_a_nan_altitude_range_or_distance_is_rejected():
    # Each guard fails on NaN, so the message names the bad argument rather
    # than the elevation angle or the loss computed from it.
    with pytest.raises(ValueError, match="altitude must be positive, got nan"):
        coverage_radius(math.nan, 100.0, URBAN, CFG)
    with pytest.raises(ValueError, match="altitude must be positive, got nan"):
        path_loss(math.nan, 10.0, URBAN, CFG)
    with pytest.raises(ValueError, match="ground range must be non-negative, got nan"):
        path_loss(50.0, math.nan, URBAN, CFG)


# Below about 8.9 degrees of elevation the sigmoid's exp overflows, on both paths.
STEEP = Environment("steep", 9.61, 1000.0, 1.0, 20.0)


@pytest.mark.parametrize("frequency_hz", (0.1e9, 2.0e9, 60.0e9))
@pytest.mark.parametrize("name", sorted(ENVIRONMENTS) + ["steep"])
def test_scalar_and_numpy_losses_agree(name, frequency_hz):
    env = STEEP if name == "steep" else ENVIRONMENTS[name]
    cfg = ChannelConfig(frequency_hz=frequency_hz)
    rng = random.Random(f"{name}-{frequency_hz}")
    altitudes = [1e-2, 1e4] + [10.0 ** rng.uniform(-2.0, 4.0) for _ in range(40)]
    ranges = [0.0, 1e-2, 1e6] + [10.0 ** rng.uniform(-2.0, 6.0) for _ in range(60)]
    h, r = (grid.ravel() for grid in np.meshgrid(altitudes, ranges))
    got, _ = channel.path_loss_array(h, r, env, cfg)
    want = [path_loss(a, b, env, cfg) for a, b in zip(h.tolist(), r.tolist())]
    assert np.max(np.abs(got - want)) <= 1e-12


def test_optimal_altitude_deterministic():
    a = optimal_altitude(100.0, URBAN, CFG, (1.0, 3000.0))
    b = optimal_altitude(100.0, URBAN, CFG, (1.0, 3000.0))
    assert a == b


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
        if fc > fd or fd == 0.0:
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


def edge_searches():
    """Inputs at the limits of the loss formula and of the radius bisection."""
    for frequency_hz in (1e-300, 1e300, 1e308, 5e-324):
        # 1e300 Hz and up overflow the free-space product (an infinite loss,
        # no coverage); 5e-324 Hz underflows it to 0, where math.log10 raises.
        yield 100.0, URBAN, ChannelConfig(frequency_hz=frequency_hz), 1.0, 2000.0
    for plos_b in (1000.0, 1e15):
        # At 1e15 the LOS probability steps from 0 to 1 within a few ulps of
        # range, and 105 dB falls inside that 19 dB step.
        steep = Environment("steep", 9.61, plos_b, 1.0, 20.0)
        for threshold in (100.0, 105.0):
            yield threshold, steep, CFG, 20.0, 510.0
    for env in ENVIRONMENTS.values():
        # 20 dB covers no altitude.  From 176 dB the radii of the milder
        # presets lie above MAX_RADIUS_M / 2 or at the cap; 300 dB caps all.
        for threshold in (20.0, 176.0, 177.0, 178.0, 300.0):
            yield threshold, env, CFG, 1.0, 3000.0
        for h_min, h_max in ((20.0, 80.0), (50.0, 1000.0)):
            yield 100.0, env, CFG, h_min, h_max
        # A crossing at exactly 100 m, the first step of the radius doubling,
        # and a threshold RADIUS_DB_TOLERANCE above it.
        for h in (25.0, 80.0, 300.0):
            for offset in (0.0, RADIUS_DB_TOLERANCE):
                yield path_loss(h, 100.0, env, CFG) + offset, env, CFG, h, 4.0 * h
    # At 5e-324 m every elevation off the nadir rounds to 0 degrees, which
    # path_loss rejects.  At 1.5e-318 m that happens only beyond about
    # 600 km: at 171.5 dB the radius doubling reaches 819.2 km, but a
    # crossing search that finds the crossing near 470 km need not look
    # that far.
    yield 100.0, URBAN, CFG, 5e-324, 1000.0
    yield 171.5, URBAN, CFG, 1.5e-318, 1000.0


def search_outcome(search, *args):
    try:
        return repr(search(*args))
    except ValueError as exc:
        return f"ValueError: {exc}"


def test_a_cold_search_sizes_each_altitude_once(monkeypatch):
    asked = []

    def counted(h, threshold, env, cfg):
        asked.append(h)
        return coverage_radius(h, threshold, env, cfg)

    monkeypatch.setattr(channel, "coverage_radius", counted)
    for threshold, env, cfg, h_min, h_max in [*edge_searches(), (100.0, URBAN, CFG, 60.0, 60.0)]:
        channel._optimal_altitude_cached.cache_clear()
        asked.clear()
        search_outcome(optimal_altitude, threshold, env, cfg, (h_min, h_max))
        assert asked and len(asked) == len(set(asked)), (threshold, env, cfg, h_min, h_max)


def test_optimal_altitude_equals_the_all_scalar_search():
    rng = random.Random(20261018)
    searches = []
    for _ in range(240):
        env = random_environment(rng)
        cfg = ChannelConfig(frequency_hz=rng.uniform(0.7e9, 5.8e9))
        threshold = rng.uniform(60.0, 130.0)
        h_min = rng.choice([1.0, 20.0, rng.uniform(1.0, 1500.0)])
        h_max = h_min + rng.choice([0.0, 60.0, rng.uniform(0.0, 1500.0)])
        searches.append((threshold, env, cfg, h_min, h_max))
    for _ in range(200):  # searches like the qos_sweep benchmark's
        searches.append((rng.uniform(90.0, 115.0), rng.choice(list(ENVIRONMENTS.values())), CFG, 20.0, 500.0))
    # highrise_urban's two peaks, each the optimum of one window.
    searches += [(100.0, ENVIRONMENTS["highrise_urban"], CFG, 1.0, h_max) for h_max in (12.0, 5000.0)]
    raised = 0
    for threshold, env, cfg, h_min, h_max in searches + list(edge_searches()):
        want = search_outcome(scalar_optimal_altitude, threshold, env, cfg, h_min, h_max)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy overflow may slip by
            got = search_outcome(optimal_altitude, threshold, env, cfg, (h_min, h_max))
        assert got == want, (threshold, env, cfg, h_min, h_max)
        raised += want.startswith("ValueError")
        if not want.startswith("ValueError"):
            # solve() takes this radius as the default threshold's disk at h.
            h, r = optimal_altitude(threshold, env, cfg, (h_min, h_max))
            assert r == coverage_radius(h, threshold, env, cfg)
    assert raised == 3  # the 5e-324 Hz carrier and the two tiny floors


def test_boundaries_bracket_the_numpy_loss_crossing():
    # Each reach is an outside end of the numpy loss crossing, less than
    # _CROSSING_TOLERANCE_M past it, so the candidate floor of the altitude
    # search is sound; the curve leaves almost no altitude to coverage_radius.
    rng = random.Random(29)
    tolerance = channel._CROSSING_TOLERANCE_M
    steep = Environment("steep", 9.61, 1e15, 1.0, 20.0)
    extra = total = 0
    for k in range(300):
        env = steep if k % 50 == 0 else random_environment(rng)
        frequency_hz = 5e-324 if k % 50 == 1 else 10.0 ** rng.uniform(8.0, 10.5)
        cfg = ChannelConfig(frequency_hz=frequency_hz)
        threshold = rng.uniform(60.0, 160.0)
        if rng.random() < 0.5:
            h = np.linspace(rng.uniform(1.0, 200.0), rng.uniform(200.0, 3000.0), 201)
        else:
            h = np.sort([10.0 ** rng.uniform(-2.0, 4.0) for _ in range(60)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reach, flagged = channel._boundaries(h.tolist(), threshold, env, cfg)
        nadir, _ = channel.path_loss_array(h, 0.0, env, cfg)
        far, theta = channel.path_loss_array(h, MAX_RADIUS_M, env, cfg)
        at, _ = channel.path_loss_array(h, reach, env, cfg)
        inside, _ = channel.path_loss_array(h, np.maximum(reach - tolerance, 0.0), env, cfg)
        broken = ~np.isfinite(nadir) | ~np.isfinite(far) | (theta <= 0.0)
        assert flagged[broken].all(), (env, cfg, threshold)
        kept = ~flagged & (nadir <= threshold)
        assert (reach[kept & (far <= threshold)] == MAX_RADIUS_M).all()
        solved = kept & (far > threshold)
        assert (at[solved] > threshold).all(), (env, cfg, threshold)
        assert (inside[solved] <= threshold).all(), (env, cfg, threshold)
        assert (reach[~flagged & (nadir > threshold)] == 0.0).all()
        extra += np.count_nonzero(flagged & ~broken)
        total += h.size
    assert extra <= total // 100, (extra, total)


def test_a_cold_qos_search_sizes_few_grid_altitudes(monkeypatch):
    # The candidate floor leaves coverage_radius about 3.5 of the 201 grid
    # altitudes of a qos_sweep search; a looser filter would hide a slower
    # scalar scan behind a fast curve.
    asked = []

    def counted(h, threshold, env, cfg):
        asked.append(h)
        return coverage_radius(h, threshold, env, cfg)

    monkeypatch.setattr(channel, "coverage_radius", counted)
    rng = random.Random(1018)
    step = (500.0 - 20.0) / ALTITUDE_GRID_STEPS
    grid = {20.0 + k * step for k in range(ALTITUDE_GRID_STEPS + 1)}
    scanned = 0
    for _ in range(1000):
        channel._optimal_altitude_cached.cache_clear()
        asked.clear()
        optimal_altitude(rng.uniform(90.0, 115.0), rng.choice(list(ENVIRONMENTS.values())), CFG, (20.0, 500.0))
        scanned += sum(h in grid for h in asked)
    assert scanned / 1000 <= 4.0

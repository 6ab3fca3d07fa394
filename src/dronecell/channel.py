"""Air-to-ground channel model for low-altitude aerial base stations.

The mean loss between an aerial platform and a ground user mixes free-space
path loss with environment-dependent excess losses, weighted by the
probability of a line-of-sight (LOS) connection.  Raising the platform
improves the LOS odds but lengthens the slant path, so the usable cell
radius first grows and then shrinks with altitude; ``optimal_altitude``
finds the interior maximum.

``coverage_radius`` is the scalar reference for the cell radius.
``coverage_radii`` runs the same bisection on many altitudes at once in
numpy; numpy's transcendental functions may differ from ``math``'s in the
last bits, so every decision it makes close to its bound is made again with
the scalar ``path_loss``, and its results equal ``coverage_radius``'s bit
for bit.

All functions here are pure and safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0  # m/s

# Bisection tolerances for the cell radius: the bracket must shrink to
# RADIUS_TOLERANCE_M meters and the loss at the returned radius must sit
# within RADIUS_DB_TOLERANCE dB of the threshold (the dB condition matters
# where the loss is steep in range, e.g. highrise presets at low altitude).
RADIUS_TOLERANCE_M = 0.1
RADIUS_DB_TOLERANCE = 0.005
# Golden-section tolerance for the altitude search, in meters.
ALTITUDE_TOLERANCE_M = 1.0
# Number of grid intervals used to seed the altitude search.
ALTITUDE_GRID_STEPS = 200
# Upper limit for the radius bracket expansion, in meters.
MAX_RADIUS_M = 1.0e6

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# A numpy loss within this many dB of a bound that a decision compares it
# with is recomputed with the scalar ``path_loss`` before the decision; the
# two differ by under 1e-13 dB wherever both are finite.
_DECISION_SLACK_DB = 1.0e-9


@dataclass(frozen=True)
class Environment:
    """Propagation class of the area under the cell.

    ``plos_a`` and ``plos_b`` shape the LOS-probability sigmoid
    (``plos_b`` is per degree of elevation); ``eta_los_db`` and
    ``eta_nlos_db`` are the mean excess losses on top of free space for
    LOS and NLOS conditions.
    """

    name: str
    plos_a: float
    plos_b: float
    eta_los_db: float
    eta_nlos_db: float

    def __post_init__(self) -> None:
        if self.plos_a <= 0 or self.plos_b <= 0:
            raise ValueError("sigmoid parameters must be positive")
        if not (0 <= self.eta_los_db <= self.eta_nlos_db):
            raise ValueError("excess losses must satisfy 0 <= eta_los <= eta_nlos")


@dataclass(frozen=True)
class ChannelConfig:
    """Carrier frequency and the default QoS threshold used for sizing cells."""

    frequency_hz: float = 2.0e9
    max_path_loss_db: float = 100.0

    def __post_init__(self) -> None:
        if self.frequency_hz <= 0:
            raise ValueError("carrier frequency must be positive")
        if self.max_path_loss_db <= 0:
            raise ValueError("max path loss must be positive")


# Editable presets for the four usual propagation classes.  Results are
# preset-dependent: scenario files may override any of these values.
ENVIRONMENTS: dict[str, Environment] = {
    "suburban": Environment("suburban", 4.88, 0.43, 0.1, 21.0),
    "urban": Environment("urban", 9.61, 0.16, 1.0, 20.0),
    "dense_urban": Environment("dense_urban", 12.08, 0.11, 1.6, 23.0),
    "highrise_urban": Environment("highrise_urban", 27.23, 0.08, 2.3, 34.0),
}


def los_probability(elevation_deg: float, env: Environment) -> float:
    """Probability of a line-of-sight link at the given elevation angle.

    Sigmoid in the elevation angle: P = 1 / (1 + a*exp(-b*(theta - a))).
    Strictly increasing in ``elevation_deg``, bounded in (0, 1).
    """
    if not 0.0 < elevation_deg <= 90.0:
        raise ValueError(f"elevation angle must be in (0, 90], got {elevation_deg}")
    a, b = env.plos_a, env.plos_b
    try:
        return 1.0 / (1.0 + a * math.exp(-b * (elevation_deg - a)))
    except OverflowError:
        return 0.0  # the sigmoid's limit as the exponent grows without bound


def free_space_path_loss(distance_m: float, frequency_hz: float) -> float:
    """Free-space loss in dB at the given slant distance."""
    if distance_m <= 0:
        raise ValueError("distance must be positive")
    return 20.0 * math.log10(4.0 * math.pi * frequency_hz * distance_m / SPEED_OF_LIGHT)


def path_loss(
    altitude_m: float,
    ground_range_m: float,
    env: Environment,
    cfg: ChannelConfig,
) -> float:
    """Mean path loss in dB from altitude ``altitude_m`` to a user at
    horizontal distance ``ground_range_m``.

    Free-space loss at the slant distance plus the LOS-probability-weighted
    mix of the excess losses.  Strictly increasing in the ground range for a
    fixed altitude (the preset invariant eta_nlos >= eta_los guarantees it).
    """
    if altitude_m <= 0:
        raise ValueError(f"altitude must be positive, got {altitude_m}")
    if ground_range_m < 0:
        raise ValueError(f"ground range must be non-negative, got {ground_range_m}")
    slant = math.hypot(altitude_m, ground_range_m)
    # atan2 yields 90 degrees exactly at the nadir (r = 0).
    theta = math.degrees(math.atan2(altitude_m, ground_range_m))
    p_los = los_probability(theta, env)
    fspl = free_space_path_loss(slant, cfg.frequency_hz)
    return fspl + p_los * env.eta_los_db + (1.0 - p_los) * env.eta_nlos_db


@lru_cache(maxsize=4096)
def coverage_radius(
    altitude_m: float,
    threshold_db: float,
    env: Environment,
    cfg: ChannelConfig,
) -> float:
    """Largest ground range at which the path loss stays within ``threshold_db``.

    Returns 0 when even the nadir exceeds the threshold.  The boundary is
    located by bisection until the bracket is narrower than
    ``RADIUS_TOLERANCE_M`` and the loss at the inside end is within
    ``RADIUS_DB_TOLERANCE`` of the threshold; the inside end is returned,
    so the loss at the returned radius never exceeds the threshold.
    """
    if altitude_m <= 0:
        raise ValueError(f"altitude must be positive, got {altitude_m}")
    if threshold_db <= 0:
        raise ValueError(f"threshold must be positive, got {threshold_db}")
    loss_lo = path_loss(altitude_m, 0.0, env, cfg)
    if loss_lo > threshold_db:
        return 0.0
    lo, hi = 0.0, 100.0
    while path_loss(altitude_m, hi, env, cfg) <= threshold_db:
        lo = hi
        loss_lo = None  # stale; only needed once the bracket is final
        hi *= 2.0
        if hi >= MAX_RADIUS_M:
            return MAX_RADIUS_M
    if loss_lo is None:
        loss_lo = path_loss(altitude_m, lo, env, cfg)
    while hi - lo > RADIUS_TOLERANCE_M or threshold_db - loss_lo > RADIUS_DB_TOLERANCE:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break  # bracket exhausted at float resolution
        loss_mid = path_loss(altitude_m, mid, env, cfg)
        if loss_mid <= threshold_db:
            lo, loss_lo = mid, loss_mid
        else:
            hi = mid
    return lo


def _path_loss_array(
    altitude_m: np.ndarray, ground_range_m: np.ndarray, env: Environment, cfg: ChannelConfig
) -> tuple[np.ndarray, np.ndarray]:
    """``path_loss`` elementwise in numpy, with the elevation angles it used.

    The operations follow ``path_loss`` in order, and overflow takes the same
    limits (a LOS probability of 0, an infinite loss) without a warning.
    Where ``path_loss`` raises, this returns a loss of -inf (a free-space
    product that underflows to 0) or an angle of 0 instead.
    """
    with np.errstate(over="ignore", divide="ignore"):
        slant = np.hypot(altitude_m, ground_range_m)
        theta = np.degrees(np.arctan2(altitude_m, ground_range_m))
        a, b = env.plos_a, env.plos_b
        p_los = 1.0 / (1.0 + a * np.exp(-b * (theta - a)))
        fspl = 20.0 * np.log10(4.0 * math.pi * cfg.frequency_hz * slant / SPEED_OF_LIGHT)
        return fspl + p_los * env.eta_los_db + (1.0 - p_los) * env.eta_nlos_db, theta


def coverage_radii(
    altitudes: Sequence[float] | np.ndarray,
    threshold_db: float,
    env: Environment,
    cfg: ChannelConfig,
) -> np.ndarray:
    """``coverage_radius`` at every altitude, in one vectorized bisection.

    Element ``i`` equals ``coverage_radius(altitudes[i], threshold_db, env,
    cfg)`` bit for bit.  All altitudes step through the nadir test, the
    bracket doubling and the bisection together, each leaving the loop where
    the scalar one would.  A numpy loss that is not finite, or that lies
    within ``_DECISION_SLACK_DB`` of the threshold or of the threshold less
    ``RADIUS_DB_TOLERANCE``, is replaced by the scalar ``path_loss`` before
    any decision reads it, so no decision can differ from the scalar one.
    """
    h = np.array(altitudes, dtype=float).reshape(-1)
    bad = ~(h > 0.0)
    if bad.any():
        raise ValueError(f"altitude must be positive, got {h[bad][0]}")
    if threshold_db <= 0:
        raise ValueError(f"threshold must be positive, got {threshold_db}")
    q = threshold_db

    def losses(r: np.ndarray, live: np.ndarray) -> np.ndarray:
        loss, theta = _path_loss_array(h, r, env, cfg)
        margin = q - loss
        redo = live & ~(
            np.isfinite(loss)
            & (theta > 0.0)
            & (np.abs(margin) > _DECISION_SLACK_DB)
            & (np.abs(margin - RADIUS_DB_TOLERANCE) > _DECISION_SLACK_DB)
        )
        if redo.any():
            for i in np.flatnonzero(redo):
                loss[i] = path_loss(float(h[i]), float(r[i]), env, cfg)
        return loss

    lo = np.zeros_like(h)
    loss_lo = losses(lo, np.ones(h.shape, dtype=bool))
    covered = loss_lo <= q
    hi = np.full_like(h, 100.0)
    capped = np.zeros(h.shape, dtype=bool)
    growing = covered.copy()
    while growing.any():
        loss_hi = losses(hi, growing)
        inside = growing & (loss_hi <= q)
        lo = np.where(inside, hi, lo)
        loss_lo = np.where(inside, loss_hi, loss_lo)
        hi = np.where(inside, hi * 2.0, hi)
        capped |= inside & (hi >= MAX_RADIUS_M)
        growing = inside & ~capped

    live = covered & ~capped
    while True:
        mid = 0.5 * (lo + hi)
        live &= ((hi - lo > RADIUS_TOLERANCE_M) | (q - loss_lo > RADIUS_DB_TOLERANCE)) & (
            (mid > lo) & (mid < hi)
        )
        if not live.any():
            break
        loss_mid = losses(mid, live)
        inside = live & (loss_mid <= q)
        lo = np.where(inside, mid, lo)
        loss_lo = np.where(inside, loss_mid, loss_lo)
        hi = np.where(live & ~inside, mid, hi)
    return np.where(capped, MAX_RADIUS_M, np.where(covered, lo, 0.0))


def optimal_altitude(
    threshold_db: float,
    env: Environment,
    cfg: ChannelConfig,
    h_range: Sequence[float],
) -> tuple[float, float]:
    """Altitude in ``h_range`` maximizing the coverage radius, with that radius.

    A coarse grid scan (``ALTITUDE_GRID_STEPS`` intervals, all radii in one
    ``coverage_radii`` pass, which rechecks with the scalar loss near the
    threshold) seeds a golden-section refinement around the best grid point
    on the cached scalar ``coverage_radius``; the best altitude ever
    evaluated is returned, so the result always dominates the grid.
    Returns ``(h_min, 0.0)`` when no altitude in range yields coverage.
    A degenerate range with ``h_min == h_max`` evaluates that single altitude.
    """
    h_min, h_max = float(h_range[0]), float(h_range[1])
    if not 0.0 < h_min <= h_max:
        raise ValueError(f"altitude range must satisfy 0 < h_min <= h_max, got {h_range}")
    return _optimal_altitude_cached(threshold_db, env, cfg, h_min, h_max)


@lru_cache(maxsize=512)
def _optimal_altitude_cached(
    threshold_db: float,
    env: Environment,
    cfg: ChannelConfig,
    h_min: float,
    h_max: float,
) -> tuple[float, float]:
    def radius(h: float) -> float:
        return coverage_radius(h, threshold_db, env, cfg)

    if h_min == h_max:
        return h_min, radius(h_min)
    step = (h_max - h_min) / ALTITUDE_GRID_STEPS
    grid = [h_min + k * step for k in range(ALTITUDE_GRID_STEPS + 1)]
    radii = coverage_radii(grid, threshold_db, env, cfg).tolist()
    best_idx = max(range(len(grid)), key=lambda i: (radii[i], -grid[i]))
    best_h, best_r = grid[best_idx], radii[best_idx]
    if best_r <= 0.0:
        return h_min, 0.0

    # Refine inside the bracket around the best grid point; the best point
    # ever evaluated wins, ties going to the lower altitude.
    lo = grid[max(best_idx - 1, 0)]
    hi = grid[min(best_idx + 1, len(grid) - 1)]

    def consider(h: float, r: float) -> None:
        nonlocal best_h, best_r
        if r > best_r or (r == best_r and h < best_h):
            best_h, best_r = h, r

    c = hi - _GOLDEN * (hi - lo)
    d = lo + _GOLDEN * (hi - lo)
    fc, fd = radius(c), radius(d)
    consider(c, fc)
    consider(d, fd)
    while hi - lo > ALTITUDE_TOLERANCE_M:
        if fc > fd:
            hi, d, fd = d, c, fc
            c = hi - _GOLDEN * (hi - lo)
            fc = radius(c)
            consider(c, fc)
        else:
            lo, c, fc = c, d, fd
            d = lo + _GOLDEN * (hi - lo)
            fd = radius(d)
            consider(d, fd)
    return best_h, best_r

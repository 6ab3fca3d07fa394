"""Air-to-ground channel model for low-altitude aerial base stations.

The mean loss between an aerial platform and a ground user mixes free-space
path loss with environment-dependent excess losses, weighted by the
probability of a line-of-sight (LOS) connection.  Raising the platform
improves the LOS odds but lengthens the slant path, so the usable cell
radius first grows and then shrinks with altitude; ``optimal_altitude``
finds the interior maximum.

``path_loss`` and ``path_loss_array`` run the one loss formula with the
routines of ``math`` and of numpy.  ``coverage_radius`` is the only code
that computes a cell radius, and it keeps no cache: each caller keeps the
radii it reuses.  The altitude search uses ``path_loss_array`` only to find
the few grid altitudes that could hold the largest radius, and
``coverage_radius`` decides among them.  The search's results are the
module's only cache.

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
# Width to which the altitude search brackets each numpy loss crossing.
_CROSSING_TOLERANCE_M = 1.0e-3

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


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
        if not (0 < self.plos_a < math.inf and 0 < self.plos_b < math.inf):
            raise ValueError(f"sigmoid parameters must be finite and positive, got {self}")
        if not (0 <= self.eta_los_db <= self.eta_nlos_db < math.inf):
            raise ValueError("excess losses must be finite and satisfy 0 <= eta_los <= eta_nlos")


@dataclass(frozen=True)
class ChannelConfig:
    """Carrier frequency and the default QoS threshold used for sizing cells."""

    frequency_hz: float = 2.0e9
    max_path_loss_db: float = 100.0

    def __post_init__(self) -> None:
        if not 0 < self.frequency_hz < math.inf:
            raise ValueError(f"carrier frequency must be finite and positive, got {self}")
        if not 0 < self.max_path_loss_db < math.inf:
            raise ValueError(f"max path loss must be finite and positive, got {self}")


# Editable presets for the four usual propagation classes.  Results are
# preset-dependent: scenario files may override any of these values.
ENVIRONMENTS: dict[str, Environment] = {
    "suburban": Environment("suburban", 4.88, 0.43, 0.1, 21.0),
    "urban": Environment("urban", 9.61, 0.16, 1.0, 20.0),
    "dense_urban": Environment("dense_urban", 12.08, 0.11, 1.6, 23.0),
    "highrise_urban": Environment("highrise_urban", 27.23, 0.08, 2.3, 34.0),
}


def _air_to_ground(h, r, env, cfg, hypot, arctan2, degrees, exp, log10):
    """The loss in dB and the elevation in degrees, with ``math``'s or numpy's routines.

    Free-space loss at the slant distance plus the excess losses weighted by
    the LOS probability P = 1 / (1 + a*exp(-b*(theta - a))), which is 0 where
    ``exp`` overflows to inf.
    """
    slant = hypot(h, r)
    # atan2 yields 90 degrees exactly at the nadir (r = 0).
    theta = degrees(arctan2(h, r))
    a, b = env.plos_a, env.plos_b
    p_los = 1.0 / (1.0 + a * exp(-b * (theta - a)))
    fspl = 20.0 * log10(4.0 * math.pi * cfg.frequency_hz * slant / SPEED_OF_LIGHT)
    return fspl + p_los * env.eta_los_db + (1.0 - p_los) * env.eta_nlos_db, theta


def _exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:  # to inf, as numpy's exp does
        return math.inf


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
    if not altitude_m > 0:  # NaN too
        raise ValueError(f"altitude must be positive, got {altitude_m}")
    if not ground_range_m >= 0:
        raise ValueError(f"ground range must be non-negative, got {ground_range_m}")
    loss, theta = _air_to_ground(
        altitude_m, ground_range_m, env, cfg, math.hypot, math.atan2, math.degrees, _exp, math.log10
    )
    if not 0.0 < theta <= 90.0:
        raise ValueError(f"elevation angle must be in (0, 90], got {theta}")
    return loss


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
    if not threshold_db > 0:  # NaN too, for which "<= 0" is False
        raise ValueError(f"threshold must be positive, got {threshold_db}")
    loss_lo = path_loss(altitude_m, 0.0, env, cfg)
    if loss_lo > threshold_db:
        return 0.0
    lo, hi = 0.0, 100.0
    while (loss_hi := path_loss(altitude_m, hi, env, cfg)) <= threshold_db:
        lo, loss_lo = hi, loss_hi
        hi *= 2.0
        if hi >= MAX_RADIUS_M:
            return MAX_RADIUS_M
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


def path_loss_array(
    altitude_m: np.ndarray, ground_range_m: np.ndarray, env: Environment, cfg: ChannelConfig
) -> tuple[np.ndarray, np.ndarray]:
    """``path_loss`` elementwise in numpy, with the elevation angles it used.

    Called by ``_boundaries`` and the ``brute_force`` oracle.  Numpy's
    routines may differ from ``math``'s in the last bits.  Overflow takes the
    same limits (a LOS probability of 0, an infinite loss) without a warning.
    Where ``path_loss`` raises, this returns a loss of -inf (a free-space
    product that underflows to 0) or an angle of 0 instead.
    """
    with np.errstate(over="ignore", divide="ignore"):
        return _air_to_ground(
            altitude_m, ground_range_m, env, cfg, np.hypot, np.arctan2, np.degrees, np.exp, np.log10
        )


def _boundaries(
    grid: list[float], threshold_db: float, env: Environment, cfg: ChannelConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Outside ends of the numpy loss crossings, and where ``path_loss`` may raise.

    Bisects ``path_loss_array`` on [0, ``MAX_RADIUS_M``] at every altitude at
    once to ``_CROSSING_TOLERANCE_M``; the loss rises with ground range, so
    each bracket closes on the crossing.  The mask flags a loss that is not
    finite or an elevation that is not positive at either end of the range,
    where the free-space product and the elevation are least.
    """
    h = np.array(grid)
    flagged = np.zeros(h.shape, dtype=bool)
    for r in (0.0, MAX_RADIUS_M):
        loss, theta = path_loss_array(h, r, env, cfg)
        flagged |= ~np.isfinite(loss) | (theta <= 0.0)
    lo, width = np.zeros_like(h), MAX_RADIUS_M  # every bracket is [lo, lo + width]
    while width >= _CROSSING_TOLERANCE_M:
        width *= 0.5
        loss, _ = path_loss_array(h, lo + width, env, cfg)
        lo += width * (loss <= threshold_db)
    return lo + width, flagged


def optimal_altitude(
    threshold_db: float,
    env: Environment,
    cfg: ChannelConfig,
    h_range: Sequence[float],
) -> tuple[float, float]:
    """Altitude in ``h_range`` maximizing the coverage radius, with that radius.

    A coarse grid scan (``ALTITUDE_GRID_STEPS`` intervals) seeds a
    golden-section refinement around the best grid point, both on the scalar
    ``coverage_radius``, called once per altitude.  The scan calls it only
    where ``_boundaries`` puts the loss crossing within ``RADIUS_TOLERANCE_M``
    of the farthest one or flags the altitude; no other grid altitude can
    hold the largest radius.  The best altitude ever evaluated is returned,
    ties going to the lower one, and the radius returned is
    ``coverage_radius`` at that altitude.
    Returns ``(h_min, 0.0)`` when no altitude in range yields coverage.
    A degenerate range with ``h_min == h_max`` evaluates that single altitude.
    """
    h_min, h_max = float(h_range[0]), float(h_range[1])
    if not 0.0 < h_min <= h_max:
        raise ValueError(f"altitude range must satisfy 0 < h_min <= h_max, got {h_range}")
    return _optimal_altitude_cached(threshold_db, env, cfg, h_min, h_max)


@lru_cache(maxsize=512)
def _optimal_altitude_cached(
    threshold_db: float, env: Environment, cfg: ChannelConfig, h_min: float, h_max: float
) -> tuple[float, float]:
    radii: dict[float, float] = {}  # every altitude evaluated, with its radius

    def radius(h: float) -> float:
        if h not in radii:
            radii[h] = coverage_radius(h, threshold_db, env, cfg)
        return radii[h]

    step = (h_max - h_min) / ALTITUDE_GRID_STEPS
    grid = [h_min + k * step for k in range(ALTITUDE_GRID_STEPS + 1)]
    reach, flagged = _boundaries(grid, threshold_db, env, cfg)
    # coverage_radius returns a radius less than RADIUS_TOLERANCE_M inside
    # the crossing, or MAX_RADIUS_M once its doubling passes MAX_RADIUS_M / 2.
    # The 2 mm cover the bracket width and the numpy loss's last bits.
    floor = min(reach.max(), MAX_RADIUS_M / 2) - RADIUS_TOLERANCE_M - 2 * _CROSSING_TOLERANCE_M
    candidates = np.flatnonzero(flagged | (reach >= floor)).tolist()
    best_idx = max(candidates, key=lambda i: (radius(grid[i]), -grid[i]))
    if radius(grid[best_idx]) > 0.0:
        # Refine inside the bracket around the best grid point.
        lo = grid[max(best_idx - 1, 0)]
        hi = grid[min(best_idx + 1, len(grid) - 1)]
        c = hi - _GOLDEN * (hi - lo)
        d = lo + _GOLDEN * (hi - lo)
        while hi - lo > ALTITUDE_TOLERANCE_M:
            if radius(c) > radius(d):
                hi, d = d, c
                c = hi - _GOLDEN * (hi - lo)
            else:
                lo, c = c, d
                d = lo + _GOLDEN * (hi - lo)
        radius(c), radius(d)  # the last point placed is evaluated too
    # The best altitude evaluated wins, ties going to the lower altitude.
    h, r = max(radii.items(), key=lambda item: (item[1], -item[0]))
    return (h, r) if r > 0.0 else (h_min, 0.0)

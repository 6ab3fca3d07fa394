"""CSV tables and SVG placement diagrams.

All CSV output uses '.' decimals, 6 significant digits for floats, a header
row, and a stable column order.  The SVG is drawn in meters (one SVG unit
per meter, y flipped so north points up) and contains exactly one circle
element: the drone-cell coverage outline.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..experiment import ExperimentSummary
from ..scenario import Scenario
from ..solver import SolveResult

MVNO_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b")


def _fmt(value: float | int) -> str:
    if isinstance(value, int):
        return str(value)
    return format(value, ".6g")


def _csv(rows: Iterable[Sequence[object]]) -> str:
    lines = []
    for row in rows:
        lines.append(",".join(cell if isinstance(cell, str) else _fmt(cell) for cell in row))
    return "\n".join(lines) + "\n"


def solve_csv(scenario: Scenario, result: SolveResult) -> str:
    """One-row table for a single placement run."""
    header = [
        "x_m",
        "y_m",
        "h_m",
        "radius_m",
        "objective",
        "served",
        "tenancy_gap",
        "energy_reward",
        "content_reward",
    ]
    header += [f"count_{j}" for j in range(scenario.num_mvnos)]
    header += ["served_ids"]
    x, y, h = result.placement
    row: list[object] = [
        x,
        y,
        h,
        result.coverage_radius_used,
        result.objective,
        result.term_breakdown.served,
        result.term_breakdown.tenancy_gap,
        result.term_breakdown.energy_reward,
        result.term_breakdown.content_reward,
    ]
    row += list(result.mvno_counts)
    row += [";".join(str(i) for i in result.assignment.served_ids(scenario))]
    return _csv([header, row])


def mc_csv(summary: ExperimentSummary) -> str:
    """Per-(environment, policy) means table for a Monte Carlo run."""
    num_mvnos = summary.config.num_mvnos
    header = ["environment", "policy", "mean_total", "std_total"]
    header += [f"mean_per_mvno_{j}" for j in range(num_mvnos)]
    header += ["runs"]
    rows: list[Sequence[object]] = [header]
    for r in summary.rows:
        row: list[object] = [r.environment, r.policy, r.mean_total, r.std_total]
        row += list(r.mean_per_mvno)
        row += [r.runs]
        rows.append(row)
    return _csv(rows)


def altitude_profile_csv(
    samples: Sequence[tuple[float, float]], h_star: float, r_max: float
) -> str:
    """Altitude scan table; the final row marks the search optimum."""
    rows: list[Sequence[object]] = [["kind", "h_m", "radius_m"]]
    for h, r in samples:
        rows.append(["sample", h, r])
    rows.append(["optimum", h_star, r_max])
    return _csv(rows)


def placement_svg(scenario: Scenario, result: SolveResult) -> str:
    """Placement diagram: coverage circle, drone marker, per-MVNO users.

    Users are squares colored by MVNO, filled iff served; the drone is a
    cross; the coverage outline is the only circle element.
    """
    (x_lo, x_hi) = scenario.region.x_bounds
    (y_lo, y_hi) = scenario.region.y_bounds
    margin = 0.05 * max(x_hi - x_lo, y_hi - y_lo, 1.0)
    vb_x = x_lo - margin
    vb_y = -y_hi - margin  # svg y grows downward; world y is flipped
    vb_w = (x_hi - x_lo) + 2 * margin
    vb_h = (y_hi - y_lo) + 2 * margin
    marker = max(vb_w, vb_h) / 120.0
    x, y, h = result.placement

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        "<!-- scale: 1 SVG unit = 1 meter; world y axis points up -->",
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{_fmt(vb_x)} {_fmt(vb_y)} '
        f'{_fmt(vb_w)} {_fmt(vb_h)}" width="640" height="640">',
        f'  <rect class="region" x="{_fmt(x_lo)}" y="{_fmt(-y_hi)}" '
        f'width="{_fmt(x_hi - x_lo)}" height="{_fmt(y_hi - y_lo)}" '
        'fill="#fcfcfc" stroke="#888888" stroke-width="2"/>',
        f'  <circle class="coverage" cx="{_fmt(x)}" cy="{_fmt(-y)}" '
        f'r="{_fmt(result.coverage_radius_used)}" fill="#e8f2e8" fill-opacity="0.5" '
        'stroke="#2ca02c" stroke-width="3"/>',
    ]
    served = set(result.assignment.served_ids(scenario))
    for u in scenario.users:
        color = MVNO_PALETTE[u.mvno_id % len(MVNO_PALETTE)]
        fill = color if u.id in served else "none"
        parts.append(
            f'  <rect class="user mvno-{u.mvno_id}{" served" if u.id in served else ""}" '
            f'x="{_fmt(u.x - marker)}" y="{_fmt(-u.y - marker)}" '
            f'width="{_fmt(2 * marker)}" height="{_fmt(2 * marker)}" '
            f'fill="{fill}" stroke="{color}" stroke-width="2">'
            f"<title>user {u.id} (MVNO {u.mvno_id})</title></rect>"
        )
    s = 1.6 * marker
    parts.append(
        f'  <path class="drone" d="M {_fmt(x - s)} {_fmt(-y)} H {_fmt(x + s)} '
        f'M {_fmt(x)} {_fmt(-y - s)} V {_fmt(-y + s)}" '
        f'stroke="#111111" stroke-width="3" fill="none">'
        f"<title>drone at ({_fmt(x)}, {_fmt(y)}, {_fmt(h)}) m</title></path>"
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"

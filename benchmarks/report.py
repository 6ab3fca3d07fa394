"""Print every metric of every workload, the traced layer shares and the counter cross-check.

Run from the repository root:

    python3 benchmarks/report.py [--out FILE]

Every run is ``run_seconds`` of ``BENCHMARK.json`` long.

1. Each workload runs once with tracing off, on seed 1; every end-to-end metric is
   printed by name with its unit, including the ones that are not gated
   (``latency_p90_ms`` where a run has 100+ operations, ``failed_frac``).
2. Each workload runs traced on seed 1 and on the held-out seed 2.  The dominant-layer shares of solve time and the tracing overhead
   are printed for both, with the workload design's expectations checked.
3. The work counters are cross-checked on ``generate_scenario(seed=7,
   n=240, 2 MVNOs, urban)`` against the baseline counts of 4,685 distinct
   coverage sets, 559 maximal sets and 141 per-tenant count vectors.

Exits non-zero when an operation fails or an expectation does not hold.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any

from spread import bench_config, invoke

# The workload design, as shares of solve time: (metric, "min" or "max", limit).
EXPECTED = {
    "solve_large": [("channel.share_of_solve", "max", 0.05), ("solver.select_users.share_of_solve", "min", 0.5)],
    "solve_rich": [("solver.select_users.share_of_solve", "min", 0.5)],
    "qos_sweep": [("channel.share_of_solve", "min", 0.5)],
    "mc_default": [("channel.share_of_solve", "max", 0.05), ("solver.select_users.share_of_solve", "min", 0.5)],
}
SHOWN = ("channel.share_of_solve", "solver.select_users.share_of_solve", "trace.overhead_ratio")
BASELINE_COUNTS = {"sets": 4685, "maximal": 559, "vectors": 141}
SEED, HELDOUT = 1, 2


def crosscheck() -> dict[str, Any]:
    """Work counters of one traced solve of the baseline scenario."""
    import run

    run.import_dronecell()
    import spans
    from dronecell import ENVIRONMENTS, covered_set, generate_scenario, optimal_altitude
    from dronecell.solver import solve

    scenario = generate_scenario(7, 240, 2, ENVIRONMENTS["urban"])
    tracer = spans.Tracer()
    restore = tracer.install()
    try:
        tracer.wrap(spans.SOLVE, solve)(scenario)
    finally:
        restore()
    counts = spans.work_counters(tracer.selections)
    # solve() skips a center that covers nobody; a box corner is one.
    h, _ = optimal_altitude(scenario.channel.max_path_loss_db, scenario.environment, scenario.channel, scenario.region.h_bounds)
    (x_lo, _), (y_lo, _) = scenario.region.x_bounds, scenario.region.y_bounds
    counts["corner_covers_nobody"] = not covered_set(scenario, (x_lo, y_lo, h))
    counts["baseline"] = BASELINE_COUNTS
    return counts


def main() -> int:
    config = bench_config()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, help="write the report here as JSON")
    args = parser.parse_args()

    ok = True
    seconds = config["run_seconds"]
    report: dict[str, Any] = {"seconds": seconds, "end_to_end": {}, "traced": {}}
    print(f"== end to end (seed {SEED}, {seconds} s per run)")
    for w in config["workloads"]:
        name = w["name"]
        result, detail = invoke(name, SEED, seconds, 0)
        report["tags"] = detail["tags"]
        metrics = dict(result["metrics"], **detail["ungated"])
        report["end_to_end"][name] = dict(metrics, ops=detail["ops"], inputs=detail["inputs"])
        ok = ok and result["correct"]
        for metric, m in metrics.items():
            print(f"{name:12s} {metric:22s} {m['value']:14.6g} {m['unit']}")
        for err in detail["errors"]:
            print(f"{name:12s} check failed: {err}")
    print(f"== traced layer shares of solve time (seeds {SEED} and held-out {HELDOUT})")
    for w in config["workloads"]:
        name = w["name"]
        report["traced"][name] = {}
        for seed in (SEED, HELDOUT):
            result, detail = invoke(name, seed, seconds, 1)
            values = {k: result["metrics"][k]["value"] for k in result["metrics"]}
            report["traced"][name][str(seed)] = values
            ok = ok and result["correct"] and not detail["missing_hooks"]
            shown = "  ".join(f"{k} {values[k]:.3f}" for k in SHOWN)
            verdicts = []
            for metric, kind, limit in EXPECTED[name]:
                holds = values[metric] >= limit if kind == "min" else values[metric] <= limit
                ok = ok and holds
                verdicts.append(f"{metric} {'>=' if kind == 'min' else '<='} {limit}: {'holds' if holds else 'FAILS'}")
            print(f"{name:12s} seed {seed}: {shown}")
            print(f"{'':12s}   {'; '.join(verdicts)}")
    counts = crosscheck()
    report["crosscheck"] = counts
    print("== work counters on generate_scenario(seed=7, n=240, 2 MVNOs, urban)")
    print(f"sets scored {counts['sets']} (baseline distinct sets {BASELINE_COUNTS['sets']}), "
          f"maximal {counts['maximal']} ({BASELINE_COUNTS['maximal']}), "
          f"count vectors {counts['vectors']} ({BASELINE_COUNTS['vectors']})")
    if counts["corner_covers_nobody"]:
        print("a box corner covers nobody, so the empty set is also a distinct coverage set; "
              "solve() skips it, and the baseline counts leave it out too")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

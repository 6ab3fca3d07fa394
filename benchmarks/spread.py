"""Run-to-run spread of the end-to-end metrics over several seeds.

Run from the repository root:

    python3 benchmarks/spread.py [--out FILE]
    python3 benchmarks/spread.py --first FILE   # compare medians too

For each workload it runs ``run.py --trace 0`` once on each of seeds 1 to 10,
each run ``run_seconds`` of ``BENCHMARK.json`` long, and reports, per
metric, the distance between the first and third quartiles of the values as a
share of their median (``statistics.quantiles(values, n=4)``).  A metric is
steady when that spread stays below a third of its bound in
``BENCHMARK.json``.  With ``--first``, the medians
are also compared with those of an earlier ``--out`` file: none may be worse
by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def bench_config() -> dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def invoke(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict[str, Any], dict[str, Any]]:
    """One ``run.py`` process: its result object and its DETAIL object."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=ROOT)
    if proc.returncode:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    detail = json.loads(next(line for line in lines if line.startswith("DETAIL "))[7:])
    return json.loads(lines[-1]), detail


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main() -> int:
    config = bench_config()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, help="write the values here as JSON")
    parser.add_argument("--first", type=Path, help="an earlier --out file to compare medians with")
    args = parser.parse_args()

    metrics = {m["name"]: m for m in config["end_to_end"]}
    first = json.loads(args.first.read_text(encoding="utf-8")) if args.first else {}
    values: dict[str, dict[str, list[float]]] = {}
    steady = True
    for workload in (w["name"] for w in config["workloads"]):
        values[workload] = {name: [] for name in metrics}
        for seed in SEEDS:
            result, _ = invoke(workload, seed, config["run_seconds"], 0)
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} failed operations")
                steady = False
            for name, m in result["metrics"].items():
                values[workload][name].append(m["value"])
        for name, m in metrics.items():
            vals = values[workload][name]
            s = spread(vals)
            ok = s < m["bound"] / 3
            line = f"{workload:12s} {name:22s} median {statistics.median(vals):12.6g} {m['unit']:9s} spread {s:6.3f} (bound {m['bound']})"
            if workload in first:
                w = worse_by(statistics.median(first[workload][name]), statistics.median(vals), m["better"])
                ok = ok and w <= m["bound"]
                line += f" vs first {w:+.3f}"
            steady = steady and ok
            print(line + ("" if ok else "  <-- NOT STEADY"), flush=True)
    if args.out:
        args.out.write_text(json.dumps(values, indent=1) + "\n", encoding="utf-8")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())

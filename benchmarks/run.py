"""dronecell benchmark: run one workload and print one JSON result line.

Run from the root of a dronecell checkout:

    python3 benchmarks/run.py --workload solve_large --seed 1 --seconds 20 --trace 0

Every operation is one in-process ``dronecell.cli.main.main`` call (``solve``
or ``mc``) by a single client in a closed loop: the next operation starts when
the previous one returns.  Inputs are written from ``--seed`` before the
operations that use them are timed (see ``workloads.py``); outputs are
checked after timing ends (see ``checks.py``).  Times are reported at
reference machine speed (see ``calib.py``).

``--trace 0`` measures the end-to-end metrics with tracing off.  A run of a
pooled workload goes on past ``--seconds`` until it has visited every input
of the pool, and its metrics weigh each input once: an input's time is the
median of its visits.  ``--trace 1`` alternates untraced and traced
operations until the untraced ones have run for half of ``--seconds`` and
reports the per-layer metrics of ``spans.py``; the ratio of traced to
untraced operation time is the tracing overhead.

The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
The line before it, ``DETAIL {...}``, adds the tags (Python, numpy, core
count, seed), the metrics that are not gated and the first check errors.
The run exits non-zero, printing no result, when the checkout has no
``src/dronecell`` to import.
"""

from __future__ import annotations

import argparse
import ctypes
import ctypes.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Callable, Iterator

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
REFS = HERE / "refs.json"

# Cold set-ups per run: at least SETUP_REPEATS, then more while they have
# taken less than SETUP_SECONDS of wall time, up to SETUP_MAX; setup_s is
# their median.  Cheap set-ups repeat more, which steadies the median.
SETUP_REPEATS = 5
SETUP_SECONDS = 6.0
SETUP_MAX = 20
SETUP_TIMEOUT_S = 150.0
P90_MIN_OPS = 100  # p90 needs at least ten samples beyond it

# Gated end-to-end metrics, exactly as listed in BENCHMARK.json.
END_TO_END = (
    ("throughput_ops_per_s", "ops/s"),
    ("latency_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("served_mean", "users"),
    ("objective_mean", "objective"),
)
# Reported in DETAIL only: p90 exists only on runs of 100+ operations, and
# failed_frac is 0 on a correct program (the result's failed/attempted).
UNGATED = (("latency_p90_ms", "ms"), ("failed_frac", "ratio"))

# Runs in a fresh interpreter: import dronecell, then one cold operation.
# Prints the seconds that took, at reference speed: the calibration units
# run after the timed part, so their numpy import is not timed.
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from dronecell.cli.main import main
rc = main(sys.argv[3:])
t1 = time.perf_counter()
sys.path.insert(0, sys.argv[2])
import calib
print(repr(calib.at_reference(t1 - t0, calib.unit_seconds(t1 - t0))))
sys.exit(rc)
"""


def fix_mmap_threshold() -> None:
    """Hold glibc's mmap threshold at its default 128 KiB, if glibc is there.

    By default glibc raises the threshold each time a large block is freed,
    after which large arrays come from the heap, and the peak resident set
    depends on the order of earlier allocations (on ``solve_large`` it was
    70 or 82 MiB depending on the order of the same inputs).  A fixed
    threshold returns every large array to the system when it is freed, so
    ``peak_rss_mb`` follows the program's live memory.
    """
    name = ctypes.util.find_library("c")
    if not name:
        return
    libc = ctypes.CDLL(name)
    if hasattr(libc, "mallopt"):
        libc.mallopt(-3, 128 * 1024)  # M_MMAP_THRESHOLD


def import_dronecell() -> Any:
    """Import dronecell from this checkout's ``src``, never from elsewhere.

    Native thread pools are held to one thread first (the set-up processes
    inherit this), so a run is one process with one thread.
    """
    init = SRC / "dronecell" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"benchmark: no {init.relative_to(ROOT)} here; run from a dronecell checkout")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    import dronecell

    if Path(dronecell.__file__).resolve() != init.resolve():
        raise SystemExit(f"benchmark: imported dronecell from {dronecell.__file__}, not {init}")
    return dronecell


Record = tuple[Any, float, int]  # (op, seconds, exit code)


def call(main: Callable[[list[str]], int], op: Any) -> Record:
    t0 = time.perf_counter()
    try:
        rc = main(op.argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    except Exception:  # the run goes on; the operation counts as failed
        traceback.print_exc()
        rc = -1
    return op, time.perf_counter() - t0, rc


def measure(
    main: Callable[[list[str]], int], ops: Iterator[Any], seconds: float, min_ops: int
) -> tuple[list[Record], list[float]]:
    """Closed loop of one client for ``seconds``, and at least ``min_ops`` ops.

    Calibration units run before the first operation and after each one;
    an operation's unit time is the mean of the units just before and just
    after it.  Returns the records and each operation's time at reference
    speed.
    """
    import calib

    records: list[Record] = []
    scaled: list[float] = []
    before = calib.unit_seconds(0.0)
    spent = 0.0
    while spent < seconds or len(records) < min_ops:
        op = next(ops)  # writes the next input batch, untimed, when one is due
        records.append(call(main, op))
        t0 = time.perf_counter()
        after = calib.unit_seconds(records[-1][1])
        scaled.append(calib.at_reference(records[-1][1], (before + after) / 2.0))
        before = after
        spent += records[-1][1] + time.perf_counter() - t0
    return records, scaled


def cold_setups(ctx: Any, workload: Any, repeats: int, seconds: float) -> list[Record]:
    """Import plus first operation, each in a fresh interpreter, at reference speed."""
    records: list[Record] = []
    t0 = time.perf_counter()
    while len(records) < repeats or (time.perf_counter() - t0 < seconds and len(records) < SETUP_MAX):
        op = workload.setup_op(ctx)
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(HERE), *op.argv],
            capture_output=True,
            text=True,
            timeout=SETUP_TIMEOUT_S,
            cwd=ROOT,
        )
        rc = proc.returncode
        try:
            took = float(proc.stdout.split()[-1])
        except (ValueError, IndexError):  # nothing printed: the set-up failed
            took, rc = SETUP_TIMEOUT_S, rc or 1
        if rc:
            sys.stderr.write(proc.stderr)
        records.append((op, took, rc))
    return records


def tags(seed: int) -> dict[str, Any]:
    import numpy

    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"python": platform.python_version(), "numpy": numpy.__version__, "nproc": cores, "seed": seed}


def op_weight(op: Any) -> int:
    """Throughput units in one operation: a solve, or a layout of an mc block."""
    if op.kind == "mc":
        return len(op.config["environments"]) * int(op.config["n_runs"])
    return 1


def traced_phase(
    main: Callable[[list[str]], int], workload: Any, ctx: Any, seed: int, seconds: float
) -> tuple[list[Record], list[Record], Any, tuple[int, int]]:
    """Untraced and traced operations in alternation, for ``seconds`` untraced.

    Alternating puts both kinds under the same machine load, so their raw
    time ratio is the tracing overhead.  Pooled workloads trace a replay of
    the same inputs; the stream workload hands every other fresh input to the
    traced side, so no traced operation finds its input in a cache.
    Returns both record lists, the tracer and the coverage-radius cache
    (hits, misses) counted during traced operations only.
    """
    import spans
    from dronecell import channel

    plain_ops = workload.ops(ctx, seed)
    traced_ops = workload.ops(ctx, seed) if workload.pool_size(ctx) else plain_ops
    tracer = spans.Tracer()
    traced_main = tracer.wrap(spans.OP, main)
    plain: list[Record] = []
    traced: list[Record] = []
    hits = misses = 0
    busy = 0.0
    while busy < seconds:
        plain.append(call(main, next(plain_ops)))
        busy += plain[-1][1]
        op = next(traced_ops)
        hits0, misses0 = spans.cache_counts(channel.coverage_radius)
        restore = tracer.install()
        try:
            traced.append(call(traced_main, op))
        finally:
            restore()
        hits1, misses1 = spans.cache_counts(channel.coverage_radius)
        hits, misses = hits + hits1 - hits0, misses + misses1 - misses0
    return plain, traced, tracer, (hits, misses)


def per_input(records: list[Record], scaled: list[float], quality: list[list[Any]]) -> list[tuple[Any, float, list[Any]]]:
    """(first op, median time, quality) of each distinct input, in visiting order.

    A pooled run visits some inputs more often than others; counting each
    input once makes runs on different seeds measure the same work.
    """
    times: dict[Path, list[float]] = {}
    first: dict[Path, tuple[Any, list[Any]]] = {}
    for (op, _, _), t, q in zip(records, scaled, quality):
        times.setdefault(op.input_path, []).append(t)
        first.setdefault(op.input_path, (op, q))
    return [(first[k][0], statistics.median(ts), first[k][1]) for k, ts in times.items()]


def run_workload(
    workload: Any,
    seed: int,
    seconds: float,
    trace: int,
    ctx: Any,
    setup_repeats: int = SETUP_REPEATS,
    setup_seconds: float = SETUP_SECONDS,
) -> tuple[dict[str, Any], dict[str, Any]]:
    """One run: the contract's result object and the DETAIL object."""
    from dronecell.cli.main import main

    import checks
    import spans

    warm = call(main, ctx.case24_op())  # untimed warm-up, checked against its digest
    extra: list[Record] = [warm]
    detail: dict[str, Any] = {"workload": workload.name, "trace": trace, "tags": tags(seed)}
    if not trace:
        setups = cold_setups(ctx, workload, setup_repeats, setup_seconds)
        extra += setups
        records, scaled = measure(main, workload.ops(ctx, seed), seconds, workload.pool_size(ctx))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        records, traced, tracer, cache_delta = traced_phase(main, workload, ctx, seed, seconds / 2.0)
        overhead = sum(r[1] for r in traced) / sum(r[1] for r in records)
        layer = spans.layer_metrics(tracer, cache_delta, overhead)
        detail["missing_hooks"] = tracer.missing
        extra += traced

    failed, errors, quality = 0, [], []
    for i, (op, _, rc) in enumerate(extra + records):
        errs, q = checks.check(op) if rc == 0 else ([f"{op.input_path.name}: exit code {rc}"], [])
        if errs:
            failed += 1
            errors.extend(errs)
        if i >= len(extra):
            quality.append(q)
    attempted = len(extra) + len(records)
    detail["errors"] = errors[:20]

    if trace:
        metrics = {name: (layer[name], unit) for name, unit, _ in spans.LAYER_METRICS}
    else:
        inputs = per_input(records, scaled, quality)
        times = [t for _, t, _ in inputs]
        solves = [q for _, _, qs in inputs for q in qs]
        metrics = {
            "throughput_ops_per_s": (sum(op_weight(op) for op, _, _ in inputs) / sum(times), "ops/s"),
            "latency_p50_ms": (statistics.median(times) * 1e3, "ms"),
            "setup_s": (statistics.median(r[1] for r in setups), "s"),
            "peak_rss_mb": (peak_rss_mb, "MiB"),
            "served_mean": (statistics.fmean(q[0] for q in solves) if solves else 0.0, "users"),
            "objective_mean": (statistics.fmean(q[1] for q in solves) if solves else 0.0, "objective"),
        }
        ungated = {"failed_frac": (failed / attempted, "ratio")}
        if len(records) >= P90_MIN_OPS:
            ungated["latency_p90_ms"] = (statistics.quantiles(times, n=10)[-1] * 1e3, "ms")
        detail["ungated"] = {k: {"value": v, "unit": u} for k, (v, u) in ungated.items()}
        detail["ops"] = len(records)
        detail["inputs"] = len(inputs)
        detail["setups"] = len(setups)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    fix_mmap_threshold()
    import_dronecell()
    from workloads import WORKLOADS, Context

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    refs = json.loads(REFS.read_text(encoding="utf-8"))
    workdir = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        ctx = Context(src=SRC, workdir=workdir, refs=refs)
        result, detail = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, args.trace, ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it
    for err in detail["errors"]:
        print(f"check failed: {err}", file=sys.stderr)
    print(" ".join(f"{k}={v}" for k, v in detail["tags"].items()) + f" workload={args.workload}")
    shown = dict(result["metrics"], **detail.get("ungated", {}))
    for name, m in shown.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print("DETAIL " + json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""In-memory span tracer for the benchmark's traced run, and the layer metrics.

The tracer wraps each public dronecell function at the name its caller looks
up: ``solve`` calls ``optimal_altitude`` through ``dronecell.solver``'s
namespace, so that is where the wrapper goes.  Wrapping the defining module
would miss those calls, because callers bind the name at import time.

Each call records a span ``[name, start, end, parent]`` in a list; nothing is
written until the run ends.  A span's self time is its duration minus the
time its direct child spans cover (one thread, so children never overlap).

Calls to ``select_users`` also keep their arguments, so that work counters
(sets scored, maximal sets, distinct per-tenant count vectors) can be
computed after timing ends.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from typing import Any, Callable

# (module, attribute, span name): every place a caller looks a function up.
HOOKS = (
    ("dronecell.cli.main", "load_scenario", "cli.load_scenario"),
    ("dronecell.cli.main", "validate", "scenario.validate"),
    ("dronecell.cli.main", "solve", "solver.solve"),
    ("dronecell.cli.main", "solve_csv", "cli.solve_csv"),
    ("dronecell.cli.main", "load_experiment_config", "cli.load_experiment_config"),
    ("dronecell.cli.main", "run_experiment", "experiment.run_experiment"),
    ("dronecell.cli.main", "mc_csv", "cli.mc_csv"),
    ("dronecell.experiment", "generate_scenario", "scenario.generate_scenario"),
    ("dronecell.experiment", "run_policy", "experiment.run_policy"),
    ("dronecell.experiment", "solve", "solver.solve"),
    ("dronecell.experiment", "assignment_from_ids", "scenario.assignment_from_ids"),
    ("dronecell.solver", "optimal_altitude", "channel.optimal_altitude"),
    ("dronecell.solver", "coverage_radius", "channel.coverage_radius"),
    ("dronecell.solver", "select_users", "solver.select_users"),
    ("dronecell.solver", "objective_value", "solver.objective_value"),
    ("dronecell.solver", "mvno_counts", "scenario.mvno_counts"),
    ("dronecell.solver", "assignment_from_ids", "scenario.assignment_from_ids"),
)

OP = "trace.op"  # root span of one benchmark operation
SELECT = "solver.select_users"
SOLVE = "solver.solve"
CHANNEL = ("channel.optimal_altitude", "channel.coverage_radius")

# Every per-layer metric: (name, unit, better).  Calls and times are per
# operation of the traced phase, so runs of different length compare.
LAYER_METRICS = (
    ("channel.optimal_altitude.calls", "calls/op", "lower"),
    ("channel.optimal_altitude.time_s", "s/op", "lower"),
    ("channel.coverage_radius.calls", "calls/op", "lower"),
    ("channel.coverage_radius.time_s", "s/op", "lower"),
    ("channel.coverage_radius.cache_hit_ratio", "ratio", "higher"),
    ("channel.coverage_radius.cache_lookups", "lookups/op", "lower"),
    ("channel.share_of_solve", "ratio", "lower"),
    ("solver.solve.calls", "calls/op", "lower"),
    ("solver.solve.time_s", "s/op", "lower"),
    ("solver.solve.self_s", "s/op", "lower"),
    ("solver.select_users.calls", "calls/op", "lower"),
    ("solver.select_users.time_s", "s/op", "lower"),
    ("solver.select_users.self_s", "s/op", "lower"),
    ("solver.select_users.share_of_solve", "ratio", "lower"),
    ("solver.sets_per_solve", "sets/solve", "lower"),
    ("solver.sets_scored", "sets/op", "lower"),
    ("solver.maximal_sets", "sets/op", "lower"),
    ("solver.maximal_set_ratio", "ratio", "higher"),
    ("solver.distinct_count_vectors", "vectors/solve", "lower"),
    ("solver.objective_value.calls", "calls/op", "lower"),
    ("solver.objective_value.time_s", "s/op", "lower"),
    ("scenario.validate.time_s", "s/op", "lower"),
    ("scenario.mvno_counts.time_s", "s/op", "lower"),
    ("scenario.assignment_from_ids.time_s", "s/op", "lower"),
    ("scenario.generate_scenario.calls", "calls/op", "lower"),
    ("scenario.generate_scenario.time_s", "s/op", "lower"),
    ("experiment.run_experiment.self_s", "s/op", "lower"),
    ("experiment.run_policy.calls", "calls/op", "lower"),
    ("experiment.run_policy.time_s", "s/op", "lower"),
    ("cli.load_scenario.time_s", "s/op", "lower"),
    ("cli.solve_csv.time_s", "s/op", "lower"),
    ("cli.load_experiment_config.time_s", "s/op", "lower"),
    ("cli.mc_csv.time_s", "s/op", "lower"),
    ("trace.op.time_s", "s/op", "lower"),
    ("trace.op.self_s", "s/op", "lower"),
    ("trace.ops", "count", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


class Tracer:
    """Records spans while installed; ``install`` returns the undo function."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []  # [name, start, end, parent index]
        self.selections: list[tuple[int, Any, frozenset[int]]] = []  # (solve span, scenario, ids)
        self.missing: list[str] = []  # hooks whose target no longer exists
        self._stack = [-1]

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        capture = self.selections.append if name == SELECT else None

        def traced(*args: Any, **kwargs: Any) -> Any:
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1]]
            spans.append(span)
            if capture is not None:
                capture((stack[-1], args[0], frozenset(args[1])))
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def install(self) -> Callable[[], None]:
        saved = []
        for module_name, attr, span_name in HOOKS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            saved.append((module, attr, fn))
            setattr(module, attr, self.wrap(span_name, fn))

        def restore() -> None:
            for module, attr, fn in saved:
                setattr(module, attr, fn)

        return restore


def layer_times(spans: list[list[Any]]) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive time and self time, in seconds."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "time_s": 0.0, "self_s": 0.0})
    for (name, start, end, _), kids in zip(spans, child):
        agg = out[name]
        agg["calls"] += 1
        agg["time_s"] += end - start
        agg["self_s"] += end - start - kids
    return out


def work_counters(selections: list[tuple[int, Any, frozenset[int]]]) -> dict[str, float]:
    """Sets scored, maximal sets and distinct count vectors over all solves.

    A scored set is maximal when no other set scored in the same solve
    strictly contains it; only maximal sets can hold the optimum.
    """
    per_solve: dict[int, tuple[Any, list[frozenset[int]]]] = {}
    for solve_span, scenario, ids in selections:
        per_solve.setdefault(solve_span, (scenario, []))[1].append(ids)
    scored = maximal = vectors = 0
    for scenario, sets in per_solve.values():
        bit = {u.id: 1 << k for k, u in enumerate(scenario.users)}
        tenant = {u.id: u.mvno_id for u in scenario.users}
        masks = sorted((sum(bit[i] for i in s) for s in sets), key=int.bit_count, reverse=True)
        kept: list[int] = []
        for m in masks:
            if not any(m & big == m for big in kept):
                kept.append(m)
        counted = set()
        for s in sets:
            counts = [0] * scenario.num_mvnos
            for i in s:
                counts[tenant[i]] += 1
            counted.add(tuple(counts))
        scored += len(sets)
        maximal += len(kept)
        vectors += len(counted)
    return {"solves": len(per_solve), "sets": scored, "maximal": maximal, "vectors": vectors}


def cache_counts(fn: Any) -> tuple[int, int]:
    """(hits, misses) of an ``lru_cache``-wrapped function, or zeros without one."""
    info = getattr(fn, "cache_info", None)
    if info is None:
        return 0, 0
    ci = info()
    return ci.hits, ci.misses


def layer_metrics(
    tracer: Tracer, cache_delta: tuple[int, int], overhead_ratio: float
) -> dict[str, float]:
    """Every ``LAYER_METRICS`` value from one traced phase."""
    times = layer_times(tracer.spans)  # absent names read as zero
    ops = max(times[OP]["calls"], 1)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    values: dict[str, float] = {}
    for name, _unit, _better in LAYER_METRICS:
        layer, _, key = name.rpartition(".")
        if key in ("calls", "time_s", "self_s"):
            values[name] = times[layer][key] / ops
    solve_time = times[SOLVE]["time_s"]
    work = work_counters(tracer.selections)
    hits, misses = cache_delta
    values.update(
        {
            "channel.coverage_radius.cache_hit_ratio": ratio(hits, hits + misses),
            "channel.coverage_radius.cache_lookups": (hits + misses) / ops,
            "channel.share_of_solve": ratio(sum(times[n]["time_s"] for n in CHANNEL), solve_time),
            "solver.select_users.share_of_solve": ratio(times[SELECT]["time_s"], solve_time),
            "solver.sets_per_solve": ratio(times[SELECT]["calls"], times[SOLVE]["calls"]),
            "solver.sets_scored": work["sets"] / ops,
            "solver.maximal_sets": work["maximal"] / ops,
            "solver.maximal_set_ratio": ratio(work["maximal"], work["sets"]),
            "solver.distinct_count_vectors": ratio(work["vectors"], work["solves"]),
            "trace.ops": float(times[OP]["calls"]),
            "trace.overhead_ratio": overhead_ratio,
        }
    )
    return values

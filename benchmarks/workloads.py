"""Benchmark workloads: seeded input files for ``dronecell solve`` and ``dronecell mc``.

The benchmark writes its own scenario files in the documented JSON schema
(version 1), drawing from Python's ``random`` module, so its inputs do not
change when the program's own generator does.  Every operation is one
``dronecell`` command line; ``Op.argv`` is what the benchmark hands to
``dronecell.cli.main.main``.

Two kinds of input stream exist:

- *Pooled* workloads (``solve_large``, ``solve_rich``, ``mc_default``) cycle
  a fixed pool of inputs whose output digests were recorded in
  ``refs.json``, so every operation's CSV is compared byte for byte.  The
  seed only rotates the order in which a run visits the pool; every run
  visits each input at least once, and the run's metrics weigh each input
  once, so runs on different seeds measure the same work.
- The *stream* workload (``qos_sweep``) never repeats an input: each
  operation gets a fresh scenario with fresh thresholds, so no channel cache
  can hit across operations.  Its results carry no digest.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

ENV_NAMES = ("suburban", "urban", "dense_urban", "highrise_urban")
FIELD_HALF_M = 1000.0  # the default 2000 m field, centered on the origin
DEFAULT_WEIGHTS = {"w1": 1.0, "w2": 1.0, "w3": 0.0, "w4": 0.0, "norm": "L1"}
RICH_WEIGHTS = {"w1": 1.0, "w2": 1.0, "w3": 0.5, "w4": 0.5, "norm": "L1"}
RICH_DEMANDS = (0.5, 0.75, 1.0, 1.25, 1.5, 2.0)

POOL_SIZE = 8  # inputs per pooled solve workload; a run visits each once or more
STREAM_CHUNK = 256  # stream inputs written per batch, before they are timed


@dataclass(frozen=True)
class Op:
    """One ``dronecell`` invocation and what its output is checked against."""

    kind: str  # "solve" or "mc"
    input_path: Path
    out_path: Path
    digest: str | None = None  # recorded SHA-256 of the output CSV
    config: dict[str, Any] | None = field(default=None, compare=False)  # mc only

    @property
    def argv(self) -> list[str]:
        return [self.kind, str(self.input_path), "--out", str(self.out_path)]


def even_targets(n: int, num_mvnos: int) -> list[int]:
    base, rest = divmod(n, num_mvnos)
    return [base + (1 if j < rest else 0) for j in range(num_mvnos)]


def _scenario_doc(
    env: str,
    h_bounds: tuple[float, float],
    q_default: float,
    num_mvnos: int,
    weights: dict[str, Any],
    capacity: float,
    users: list[dict[str, Any]],
) -> dict[str, Any]:
    return {
        "meta": {"version": "1"},
        "environment": {"name": env},
        "channel": {"frequency_hz": 2.0e9, "default_max_path_loss_db": q_default},
        "region": {
            "x": [-FIELD_HALF_M, FIELD_HALF_M],
            "y": [-FIELD_HALF_M, FIELD_HALF_M],
            "h": list(h_bounds),
        },
        "tenancy": {"num_mvnos": num_mvnos, "targets": even_targets(len(users), num_mvnos)},
        "weights": weights,
        "capacity": capacity,
        "users": users,
    }


def _user(rng: random.Random, i: int, num_mvnos: int, **attrs: Any) -> dict[str, Any]:
    return {
        "id": i,
        "x": rng.uniform(-FIELD_HALF_M, FIELD_HALF_M),
        "y": rng.uniform(-FIELD_HALF_M, FIELD_HALF_M),
        "mvno": rng.randrange(num_mvnos),
        "q_db": 100.0,
        "lambda": 0.0,
        "kappa": False,
        "r": 1.0,
        **attrs,
    }


def large_doc(rng: random.Random, n: int = 240) -> dict[str, Any]:
    """Urban, 2 MVNOs, the default profile, window h in [20, 80] m."""
    users = [_user(rng, i, 2) for i in range(n)]
    return _scenario_doc("urban", (20.0, 80.0), 100.0, 2, DEFAULT_WEIGHTS, float(n), users)


def rich_doc(rng: random.Random, n: int = 100) -> dict[str, Any]:
    """Urban, 3 MVNOs, energy and content terms on, capacity 6, mixed demands."""
    users = []
    for i in range(n):
        u = _user(rng, i, 3)
        u["lambda"] = rng.random()
        u["kappa"] = rng.random() < 0.3
        u["r"] = rng.choice(RICH_DEMANDS)
        users.append(u)
    return _scenario_doc("urban", (20.0, 80.0), 100.0, 3, RICH_WEIGHTS, 6.0, users)


def qos_doc(rng: random.Random, env: str, n: int = 10) -> dict[str, Any]:
    """Default threshold U[95, 110] dB, each user's U[-5, +5] dB off it, h in [20, 500] m."""
    q = rng.uniform(95.0, 110.0)
    users = [_user(rng, i, 2, q_db=q + rng.uniform(-5.0, 5.0)) for i in range(n)]
    return _scenario_doc(env, (20.0, 500.0), q, 2, DEFAULT_WEIGHTS, float(n), users)


def write_json(doc: dict[str, Any], path: Path) -> Path:
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return path


@dataclass(frozen=True)
class Workload:
    name: str
    why: str  # why it was chosen and which layer it loads
    pool_size: Callable[["Context"], int]  # inputs in the pool; 0 for a stream
    ops: Callable[["Context", int], Iterator[Op]]  # (context, seed) -> endless ops
    setup_op: Callable[["Context"], Op]  # fixed input for the cold set-up runs


@dataclass
class Context:
    """Where a run reads its fixed data and writes its inputs and outputs."""

    src: Path  # the checkout's ``src`` directory
    workdir: Path
    refs: dict[str, Any]
    sizes: dict[str, int] = field(default_factory=dict)  # tiny sizes for tests: users, or mc blocks
    _outputs: Iterator[int] = field(default_factory=lambda: itertools.count(1), init=False)

    def out_path(self) -> Path:
        """A fresh output path, so every operation's CSV survives for checking."""
        return self.workdir / f"out{next(self._outputs):06d}.csv"

    def data_path(self, name: str) -> Path:
        return self.src / "dronecell" / "data" / name

    def case24_op(self) -> Op:
        return Op("solve", self.data_path("case24.json"), self.out_path(), self.refs.get("case24"))


# --- pooled solve workloads ------------------------------------------------

POOL_DOCS: dict[str, Callable[..., dict[str, Any]]] = {
    "solve_large": large_doc,
    "solve_rich": rich_doc,
}


def pool_doc(ctx: Context, name: str, member: int) -> dict[str, Any]:
    rng = random.Random(f"{name}/population/{member}")
    make = POOL_DOCS[name]
    return make(rng, ctx.sizes[name]) if name in ctx.sizes else make(rng)


def member_op(ctx: Context, name: str, member: int) -> Op:
    path = ctx.workdir / f"{name}-{member:02d}.json"
    if not path.exists():
        write_json(pool_doc(ctx, name, member), path)
    digests = ctx.refs.get(name)
    return Op("solve", path, ctx.out_path(), digests[member] if digests else None)


def rotated(size: int, seed: int) -> list[int]:
    """The pool's visiting order for a seed: 0..size-1 rotated by the seed."""
    return [(seed + k) % size for k in range(size)]


def _pooled_solve_ops(name: str) -> Callable[[Context, int], Iterator[Op]]:
    def ops(ctx: Context, seed: int) -> Iterator[Op]:
        order = rotated(POOL_SIZE, seed)
        for m in order:  # written before the first op is timed
            member_op(ctx, name, m)
        while True:
            for m in order:
                yield member_op(ctx, name, m)

    return ops


def _pooled_setup(name: str) -> Callable[[Context], Op]:
    return lambda ctx: member_op(ctx, name, 0)


# --- qos_sweep: a stream of fresh inputs ------------------------------------


def _qos_ops(ctx: Context, seed: int) -> Iterator[Op]:
    rng = random.Random(f"qos_sweep/seed/{seed}")
    n = ctx.sizes.get("qos_sweep", 10)
    k = 0
    while True:
        batch = []
        for _ in range(STREAM_CHUNK):
            # Pairs of operations share a preset, so the traced run, which
            # alternates untraced and traced operations, gives both the same mix.
            doc = qos_doc(rng, ENV_NAMES[k // 2 % len(ENV_NAMES)], n)
            batch.append(write_json(doc, ctx.workdir / f"qos-{k:06d}.json"))
            k += 1
        for path in batch:
            yield Op("solve", path, ctx.out_path())


def _qos_setup(ctx: Context) -> Op:
    doc = qos_doc(random.Random("qos_sweep/setup"), "urban", ctx.sizes.get("qos_sweep", 10))
    return Op("solve", write_json(doc, ctx.workdir / "qos-setup.json"), ctx.out_path())


# --- mc_default: the bundled Monte Carlo config in one-run blocks ----------


def mc_blocks(ctx: Context) -> list[dict[str, Any]]:
    """The bundled config cut into one-run blocks on consecutive seeds.

    Together the blocks are exactly the bundled config's runs.
    """
    base = json.loads(ctx.data_path("mc_default.json").read_text(encoding="utf-8"))
    runs = ctx.sizes.get("mc_default", int(base["n_runs"]))
    return [dict(base, seed=int(base["seed"]) + b, n_runs=1) for b in range(runs)]


def block_op(ctx: Context, blocks: list[dict[str, Any]], b: int) -> Op:
    path = ctx.workdir / f"mc-{b:03d}.json"
    if not path.exists():
        write_json(blocks[b], path)
    digests = ctx.refs.get("mc_default")
    return Op("mc", path, ctx.out_path(), digests[b] if digests else None, blocks[b])


def _mc_ops(ctx: Context, seed: int) -> Iterator[Op]:
    blocks = mc_blocks(ctx)
    order = rotated(len(blocks), seed)
    for b in order:
        block_op(ctx, blocks, b)
    while True:
        for b in order:
            yield block_op(ctx, blocks, b)


def _mc_setup(ctx: Context) -> Op:
    return block_op(ctx, mc_blocks(ctx), 0)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "solve_large",
            "n=240 urban default profile: O(n^2) candidates and O(n^3) eligibility; "
            "loads select_users (count path) and objective_value",
            lambda ctx: POOL_SIZE,
            _pooled_solve_ops("solve_large"),
            _pooled_setup("solve_large"),
        ),
        Workload(
            "solve_rich",
            "n=100, 3 MVNOs, energy/content terms, capacity 6, mixed demands: "
            "loads the general select_users DP with Fraction arithmetic",
            lambda ctx: POOL_SIZE,
            _pooled_solve_ops("solve_rich"),
            _pooled_setup("solve_rich"),
        ),
        Workload(
            "qos_sweep",
            "n=10, 4 presets, per-user thresholds, h in [20, 500]: every solve misses "
            "the channel caches; loads optimal_altitude and coverage_radius",
            lambda ctx: 0,
            _qos_ops,
            _qos_setup,
        ),
        Workload(
            "mc_default",
            "the bundled 100-run mc config in one-run blocks: thousands of n=30 solves "
            "plus generate_scenario; loads experiment and select_users",
            lambda ctx: len(mc_blocks(ctx)),
            _mc_ops,
            _mc_setup,
        ),
    )
}

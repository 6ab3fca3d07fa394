"""Record the reference output digests kept in ``refs.json``.

Run from the repository root, on the commit whose outputs are the reference:

    python3 benchmarks/record_refs.py

Each pooled input is solved once in this process; its CSV must pass the
semantic checks of ``checks.py`` before its digest is recorded.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys

import run


def main() -> int:
    run.import_dronecell()
    from dronecell.cli.main import main as cli_main

    import checks
    from workloads import POOL_DOCS, POOL_SIZE, Context, block_op, mc_blocks, member_op

    workdir = run.WORK_ROOT / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    ctx = Context(src=run.SRC, workdir=workdir, refs={})

    def record(op):
        op, _, rc = run.call(cli_main, op)
        errors, _ = checks.check(op) if rc == 0 else ([f"exit code {rc}"], [])
        if errors:
            raise SystemExit(f"{op.input_path.name}: {errors}")
        return hashlib.sha256(op.out_path.read_bytes()).hexdigest()

    try:
        refs = {"case24": record(ctx.case24_op())}
        for name in POOL_DOCS:
            refs[name] = [record(member_op(ctx, name, m)) for m in range(POOL_SIZE)]
        blocks = mc_blocks(ctx)
        refs["mc_default"] = [record(block_op(ctx, blocks, b)) for b in range(len(blocks))]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    run.REFS.write_text(json.dumps(refs, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

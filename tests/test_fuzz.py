"""Mutation fuzzing of the CLI's input files.

One node of a valid document (a field, a list item or a whole section) is
replaced or deleted at a time, and every such mutation is tried.  Whatever
the mutation, the CLI must exit 0, 1 or 2 (never 3, an internal error), and
a CSV it writes must hold no NaN or infinite cell.
"""

import csv
import json
import math
import tempfile
from pathlib import Path

from dronecell.cli.main import main
from dronecell.fixtures import case24_path, mc_default_path

HUGE = 10**400  # an integer that float() cannot convert
REPLACEMENTS = (
    None, "text", [], {}, True, math.nan, math.inf, -math.inf, 1e300, -1e300, 0, -1, 1e-300,
    5e-324, HUGE, [[]], [{}],
)
DELETE = "<delete>"


def case24_six_users():
    doc = json.loads(case24_path().read_text(encoding="utf-8"))
    doc["users"] = doc["users"][:6]
    doc["tenancy"]["targets"] = [3, 3]
    return doc


def mc_one_run():
    doc = json.loads(mc_default_path().read_text(encoding="utf-8"))
    doc["n_runs"] = 1
    return doc


def mutations(node, path=()):
    """(path, value) for every node replacement, containers included, and every key deletion."""
    if path:
        for value in REPLACEMENTS:
            yield path, value
    if isinstance(node, dict):
        children = list(node.items())
    else:
        children = list(enumerate(node)) if isinstance(node, list) else []
    for key, child in children:
        if isinstance(node, dict):
            yield path + (key,), DELETE
        yield from mutations(child, path + (key,))


def mutated(doc, path, value):
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def run_cli(command, doc):
    with tempfile.TemporaryDirectory() as tmp:
        src, out = Path(tmp, "in.json"), Path(tmp, "out.csv")
        src.write_text(json.dumps(doc), encoding="utf-8")
        code = main([command, str(src), "--out", str(out)])
        if not out.exists():
            return code, []
        with open(out, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        return code, [part for row in rows for cell in row for part in cell.split(";")]


def unsound(command, doc):
    """Every mutation of ``doc`` on which ``command`` exits 3 or writes a non-finite cell."""
    failures = []
    for mutation in mutations(doc):
        code, cells = run_cli(command, mutated(doc, *mutation))
        if code not in (0, 1, 2):
            failures.append((mutation, f"exit {code}"))
        for cell in cells:
            if cell.lstrip("-").isdigit():
                continue  # an integer, such as a 401-digit user id, which float() reads as inf
            try:
                number = float(cell)
            except ValueError:
                continue
            if not math.isfinite(number):
                failures.append((mutation, cell))
    return failures


def test_a_mutated_scenario_never_exits_3_or_writes_a_non_finite_cell():
    assert unsound("solve", case24_six_users()) == []


def test_a_mutated_mc_config_never_exits_3_or_writes_a_non_finite_cell():
    assert unsound("mc", mc_one_run()) == []

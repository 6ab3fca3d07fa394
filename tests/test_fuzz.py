"""Mutation fuzzing of the CLI's input files.

One field of a valid document is replaced or deleted at a time.  Whatever
the mutation, the CLI must exit 0, 1 or 2 (never 3, an internal error), and
a CSV it writes must hold no NaN or infinite cell.
"""

import csv
import json
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from dronecell.cli.main import main
from dronecell.fixtures import case24_path, mc_default_path

REPLACEMENTS = (
    None, "text", [], {}, True, math.nan, math.inf, -math.inf, 1e300, -1e300, 0, -1, 1e-300,
)
DELETE = "<delete>"
FUZZ = settings(derandomize=True, max_examples=200, deadline=None, database=None)


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
    """(path, value) for every leaf replacement and every key deletion."""
    if isinstance(node, dict):
        children = list(node.items())
    else:
        children = list(enumerate(node)) if isinstance(node, list) else []
    if not children and path:
        yield from ((path, value) for value in REPLACEMENTS)
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


def assert_sound(command, doc, mutation):
    code, cells = run_cli(command, mutated(doc, *mutation))
    assert code in (0, 1, 2), mutation
    for cell in cells:
        try:
            number = float(cell)
        except ValueError:
            continue
        assert math.isfinite(number), (mutation, cell)


CASE24 = case24_six_users()
MC = mc_one_run()


@FUZZ
@given(st.sampled_from(list(mutations(CASE24))))
def test_a_mutated_scenario_never_exits_3_or_writes_a_non_finite_cell(mutation):
    assert_sound("solve", CASE24, mutation)


@FUZZ
@given(st.sampled_from(list(mutations(MC))))
def test_a_mutated_mc_config_never_exits_3_or_writes_a_non_finite_cell(mutation):
    assert_sound("mc", MC, mutation)

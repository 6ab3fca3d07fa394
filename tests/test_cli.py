"""End-to-end checks of the dronecell command line."""

import csv
import hashlib
import json
import logging
import math
import os
import re
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import dronecell
from dronecell import experiment, solver
from dronecell.channel import ENVIRONMENTS, ChannelConfig, coverage_radius, optimal_altitude
from dronecell.cli.main import build_parser, main
from dronecell.cli.report import altitude_profile_csv
from dronecell.fixtures import case24_path, mc_default_path
from dronecell.scenario import MAX_COUNT

SRC = str(Path(dronecell.__file__).resolve().parents[1])
REFS = Path(__file__).resolve().parents[1] / "benchmarks" / "refs.json"


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def test_solve_case24(tmp_path):
    out = tmp_path / "result.csv"
    assert main(["solve", str(case24_path()), "--out", str(out)]) == 0
    rows = read_csv(out)
    assert rows[0][:6] == ["x_m", "y_m", "h_m", "radius_m", "objective", "served"]
    assert rows[0][-3:] == ["count_0", "count_1", "served_ids"]
    record = dict(zip(rows[0], rows[1]))
    assert record["served"] == "10"
    assert record["count_0"] == "5" and record["count_1"] == "5"
    assert float(record["objective"]) == -4.0
    assert record["served_ids"].split(";") == [
        "1", "3", "6", "7", "11", "12", "13", "14", "15", "17",
    ]


CASE24_CSV = (
    "x_m,y_m,h_m,radius_m,objective,served,tenancy_gap,energy_reward,content_reward,"
    "count_0,count_1,served_ids\n"
    "277.129,1010.98,639,706.445,-4,10,14,0,0,5,5,1;3;6;7;11;12;13;14;15;17\n"
)


def test_solve_logs_its_tile_search_at_debug_without_changing_the_csv(tmp_path, caplog):
    # One DEBUG line per solve on the "dronecell" logger; n = 240 tiles.
    scenario = tmp_path / "n240.json"
    assert main(["gen", "--seed", "5", "--n-users", "240", "--env", "urban", "--out", str(scenario)]) == 0
    quiet, loud = tmp_path / "quiet.csv", tmp_path / "loud.csv"
    with caplog.at_level(logging.INFO, logger="dronecell"):
        assert main(["solve", str(scenario), "--out", str(quiet)]) == 0
    assert not caplog.records
    with caplog.at_level(logging.DEBUG, logger="dronecell"):
        assert main(["solve", str(scenario), "--out", str(loud)]) == 0
    [record] = caplog.records
    assert record.levelno == logging.DEBUG and record.name == "dronecell"
    tiles, leaves, centers, bound = map(int, re.findall(r"\d+", record.getMessage()))
    assert tiles > leaves > 1 and centers < bound == 240 * 240 + 8 * 240 + 4
    assert record.getMessage().endswith("fallback not run")
    assert loud.read_bytes() == quiet.read_bytes()


def test_solve_case24_writes_the_recorded_csv(tmp_path):
    # The benchmark checks the same bytes against its recorded digest, so a
    # change that moves the case24 optimum updates both in one diff.
    out = tmp_path / "result.csv"
    assert main(["solve", str(case24_path()), "--out", str(out)]) == 0
    data = out.read_bytes()
    assert data.decode("utf-8") == CASE24_CSV
    refs = json.loads(REFS.read_text(encoding="utf-8"))
    assert hashlib.sha256(data).hexdigest() == refs["case24"]


@pytest.mark.parametrize("block", range(4))
def test_mc_default_block_writes_the_recorded_csv(tmp_path, block):
    # The benchmark cuts the bundled config into one-run blocks on
    # consecutive seeds and checks each block's CSV against its digest.
    doc = json.loads(mc_default_path().read_text(encoding="utf-8"))
    cfg = tmp_path / "mc.json"
    cfg.write_text(json.dumps(dict(doc, seed=doc["seed"] + block, n_runs=1)), encoding="utf-8")
    out = tmp_path / "mc.csv"
    assert main(["mc", str(cfg), "--out", str(out)]) == 0
    refs = json.loads(REFS.read_text(encoding="utf-8"))
    assert hashlib.sha256(out.read_bytes()).hexdigest() == refs["mc_default"][block]


def test_solve_writes_svg(tmp_path):
    out = tmp_path / "result.csv"
    svg = tmp_path / "placement.svg"
    assert main(["solve", str(case24_path()), "--out", str(out), "--svg", str(svg)]) == 0
    text = svg.read_text(encoding="utf-8")
    assert text.count("<circle") == 1
    assert 'class="coverage"' in text
    assert "1 SVG unit = 1 meter" in text
    root = ET.fromstring(text)
    assert root.tag.endswith("svg")
    rects = [e for e in root.iter() if e.tag.endswith("rect")]
    users = [r for r in rects if "user" in r.get("class", "")]
    assert len(users) == 24
    assert sum(1 for r in rects if r.get("class") == "region") == 1
    assert sum(1 for r in users if "served" in r.get("class")) == 10


def test_solve_malformed_file_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops", encoding="utf-8")
    out = tmp_path / "never.csv"
    assert main(["solve", str(bad), "--out", str(out)]) == 1
    assert not out.exists()
    assert "error" in capsys.readouterr().err


def test_solve_invalid_scenario_exits_1(tmp_path, capsys):
    doc = json.loads(case24_path().read_text(encoding="utf-8"))
    doc["users"][0]["x"] = 99999.0  # outside the region box
    bad = tmp_path / "invalid.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "never.csv"
    assert main(["solve", str(bad), "--out", str(out)]) == 1
    assert not out.exists()
    assert "invalid scenario" in capsys.readouterr().err


@pytest.mark.parametrize(
    "where, value",
    [
        (("capacity",), float("inf")),
        (("weights", "w1"), float("nan")),
        (("users", 0, "q_db"), float("nan")),
        (("users", 0, "r"), float("nan")),
        (("region", "x", 1), float("inf")),
        (("channel", "frequency_hz"), float("inf")),
    ],
)
def test_solve_non_finite_number_exits_1(tmp_path, capsys, where, value):
    # JSON's NaN and Infinity literals parse to floats that must be rejected
    # before they reach the solver (an infinite capacity used to exit 3, and
    # a NaN weight or threshold used to exit 0).
    doc = json.loads(case24_path().read_text(encoding="utf-8"))
    node = doc
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = value
    bad = tmp_path / "non_finite.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "never.csv"
    assert main(["solve", str(bad), "--out", str(out)]) == 1
    assert not out.exists()
    assert "must be finite" in capsys.readouterr().err


def write_edited(path, doc, where, value):
    """Write ``doc`` to ``path`` with the field at key path ``where`` set to ``value``."""
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = value
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


CUSTOM_URBAN = {
    "name": "custom", "plos_a": 9.61, "plos_b": 0.16, "eta_los_db": 1.0, "eta_nlos_db": 20.0,
}


@pytest.mark.parametrize(
    "command, where, section",
    [
        ("solve", ("weights", "w1"), "weights"),
        ("solve", ("channel", "frequency_hz"), "channel"),
        ("mc", ("profile", "weights", "w2"), "profile.weights"),
        ("mc", ("profile", "channel", "default_max_path_loss_db"), "profile.channel"),
    ],
)
def test_a_constructor_error_names_its_section(tmp_path, capsys, command, where, section):
    # A constructor's own check used to reach the user without the section
    # it came from: "error: objective weights must be finite, got ...".
    path = case24_path() if command == "solve" else mc_default_path()
    cfg = write_edited(tmp_path / "doc.json", json.loads(path.read_text(encoding="utf-8")), where, math.nan)
    out = tmp_path / "never.csv"
    assert main([command, str(cfg), "--out", str(out)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith(f"error: {section}: ") and "must be finite" in err


@pytest.mark.parametrize(
    "where, message",
    [
        (("tenancy",), "tenancy must be an object, got a list"),
        (("users", 0), "users[0] must be an object, got a list"),
        (("region", "x"), "region.x must be a [min, max] pair"),
        (("meta", "version"), "unsupported schema version a list, expected '1'"),
    ],
)
def test_a_wrong_typed_value_is_named_not_echoed(tmp_path, capsys, where, message):
    # A 2,000-element list in place of an object or the version used to be
    # printed whole, about 11,000 characters.
    doc = json.loads(case24_path().read_text(encoding="utf-8"))
    cfg = write_edited(tmp_path / "doc.json", doc, where, list(range(2000)))
    assert main(["solve", str(cfg), "--out", str(tmp_path / "never.csv")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


LONG_NAME = "x" * 3000


@pytest.mark.parametrize(
    "command, where, value, message",
    [
        ("solve", ("environment",), {"name": LONG_NAME}, "unknown environment preset <3,000 characters>"),
        ("solve", ("region", LONG_NAME), 1, "unknown key <3,007 characters>"),
        ("mc", ("environments",), ["urban", LONG_NAME], "unknown environments: [<3,000 characters>]"),
        ("mc", ("policies",), [LONG_NAME, "single"], "unknown policies: [<3,000 characters>, 'single']"),
    ],
    ids=["preset", "key", "environments", "policies"],
)
def test_a_long_name_is_measured_not_echoed(tmp_path, capsys, command, where, value, message):
    # A 3,000-character preset, key, environment or policy name used to be
    # printed whole, in an error of about 3,030 characters.
    path = case24_path() if command == "solve" else mc_default_path()
    cfg = write_edited(tmp_path / "doc.json", json.loads(path.read_text(encoding="utf-8")), where, value)
    assert main([command, str(cfg), "--out", str(tmp_path / "never.csv")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "command, where, value",
    [
        ("solve", ("meta",), []),
        ("solve", ("environment",), "urban"),
        ("solve", ("environment", "name"), []),
        ("solve", ("environment",), dict(CUSTOM_URBAN, name=[])),
        ("solve", ("capacity",), None),
        ("solve", ("users",), [5]),
        ("solve", ("region", "x"), [None, 1]),
        ("solve", ("tenancy", "num_mvnos"), float("inf")),
        ("solve", ("tenancy", "num_mvnos"), 2.5),
        ("solve", ("users", 0, "kappa"), "false"),
        ("mc", ("n_runs",), None),
        ("mc", ("n_runs",), 1e300),
        ("mc", ("profile",), []),
        ("mc", ("profile", "h_bounds"), "28"),
        ("mc", ("environments",), "urban"),
        ("mc", ("policies",), "single_tenancy"),
        ("solve", ("meta",), 1),
        ("solve", ("users",), {}),
        ("solve", ("users",), "ab"),
        ("solve", ("wieghts",), {"w2": 0.0}),
        ("solve", ("users", 0, "qdb"), 50),
        ("mc", ("n_run",), 1),
        ("mc", ("profile", "capacty"), 3),
        ("mc", ("n_runs",), 10**12),
        ("mc", ("n_users",), 10**12),
        ("mc", ("num_mvnos",), 10**12),
    ],
)
def test_a_malformed_document_exits_1(tmp_path, capsys, command, where, value):
    # Wrong JSON types used to escape the parser as TypeError, AttributeError
    # or OverflowError and exit 3; a float run count of 1e300 ran for ever,
    # the string "false" read as a true content flag, and the string "28"
    # as the altitude window (2, 8).  A misspelt key was dropped, and the
    # run exited 0 on its default.  A count of 10**12 exited 3, filled
    # memory or never ended; it is above the count ceiling.
    if command == "solve":
        doc = json.loads(case24_path().read_text(encoding="utf-8"))
    else:
        doc = dict(json.loads(mc_default_path().read_text(encoding="utf-8")), n_runs=1)
    bad = write_edited(tmp_path / "bad.json", doc, where, value)
    out = tmp_path / "never.csv"
    assert main([command, str(bad), "--out", str(out)]) == 1
    assert not out.exists()
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "mc"])
@pytest.mark.parametrize(
    "data",
    [
        b"[" * 100_000 + b"]" * 100_000,  # too deep for the decoder
        b'{"meta": ' + b"1" * 5000 + b"}",  # over Python's integer digit limit
        b'{"meta": "\xff"}',  # not UTF-8
    ],
    ids=["nested", "digits", "bytes"],
)
def test_a_file_the_decoder_rejects_exits_1_and_is_named(tmp_path, capsys, command, data):
    # Deep nesting used to raise RecursionError and exit 3; the other two
    # exited 1 with a message that did not name the file.
    bad = tmp_path / "undecodable.json"
    bad.write_bytes(data)
    out = tmp_path / "never.csv"
    assert main([command, str(bad), "--out", str(out)]) == 1
    assert not out.exists()
    assert f"error: {bad}: " in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, where, location",
    [("solve", ("users", 0, "x"), "users[0].x"), ("mc", ("profile", "capacity"), "profile.capacity")],
)
def test_an_integer_beyond_the_float_range_exits_1_and_names_its_field(
    tmp_path, capsys, command, where, location
):
    # It used to be reported as a malformed document that named no field.
    if command == "solve":
        doc = json.loads(case24_path().read_text(encoding="utf-8"))
    else:
        doc = dict(json.loads(mc_default_path().read_text(encoding="utf-8")), n_runs=1)
    bad = write_edited(tmp_path / "huge.json", doc, where, 10**400)
    out = tmp_path / "never.csv"
    assert main([command, str(bad), "--out", str(out)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert f"error: {location} is too large for a float" in err
    assert "0" * 100 not in err  # the 401 digits are not echoed


@pytest.mark.parametrize(
    "weight, csv_text", [(1e300, CASE24_CSV.replace(",-4,", ",-4e+300,")), (1e308, None)]
)
def test_weights_exit_1_only_when_the_objective_could_overflow(tmp_path, capsys, weight, csv_text):
    # Weights of 1e308 used to exit 0 with an objective of -inf and 1 user
    # served; 1e300 still solves, to case24's optimum scaled by the weight.
    doc = json.loads(case24_path().read_text(encoding="utf-8"))
    doc["weights"].update(w1=weight, w2=weight)
    scen = tmp_path / "heavy.json"
    scen.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "result.csv"
    assert main(["solve", str(scen), "--out", str(out)]) == (1 if csv_text is None else 0)
    if csv_text is None:
        assert not out.exists()
        assert "the largest possible objective overflows" in capsys.readouterr().err
    else:
        assert out.read_text(encoding="utf-8") == csv_text


@pytest.mark.parametrize("value", [True, "6"])
@pytest.mark.parametrize(
    "command, where",
    [
        ("solve", ("capacity",)),
        ("solve", ("users", 0, "x")),
        ("solve", ("users", 0, "q_db")),
        ("solve", ("users", 0, "r")),
        ("solve", ("weights", "w1")),
        ("solve", ("channel", "frequency_hz")),
        ("solve", ("region", "x", 1)),
        ("mc", ("field_size_m",)),
        ("mc", ("profile", "max_path_loss_db")),
    ],
)
def test_a_boolean_or_string_number_exits_1(tmp_path, capsys, command, where, value):
    # float() reads JSON true as 1.0 and "6" as 6.0: a capacity of true used
    # to solve with capacity 1 and exit 0.
    if command == "solve":
        doc = json.loads(case24_path().read_text(encoding="utf-8"))
    else:
        doc = dict(json.loads(mc_default_path().read_text(encoding="utf-8")), n_runs=1)
    bad = write_edited(tmp_path / "bad.json", doc, where, value)
    out = tmp_path / "never.csv"
    assert main([command, str(bad), "--out", str(out)]) == 1
    assert not out.exists()
    assert "must be a number" in capsys.readouterr().err


@pytest.mark.parametrize("where, value", [(("plos_b",), 1000.0), (("plos_a",), 1e6)])
def test_solve_with_a_steep_los_sigmoid_exits_0(tmp_path, where, value):
    # exp(-b * (theta - a)) overflows at low elevations; the LOS probability
    # takes the sigmoid's limit, 0, instead of exiting 3, and the vectorized
    # loss takes it without a numpy RuntimeWarning.
    doc = json.loads(case24_path().read_text(encoding="utf-8"))
    doc["environment"] = dict(CUSTOM_URBAN)
    scen = write_edited(tmp_path / "steep.json", doc, ("environment",) + where, value)
    out = tmp_path / "result.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["solve", str(scen), "--out", str(out)]) == 0
    for cell in read_csv(out)[1][:6]:
        assert math.isfinite(float(cell))


def test_solve_rejects_region_bounds_beyond_the_ceiling(tmp_path, capsys):
    # Bounds of +-1e300 m used to overflow the candidate-center arithmetic.
    doc = json.loads(case24_path().read_text(encoding="utf-8"))
    bad = write_edited(tmp_path / "wide.json", doc, ("region", "x"), [-1e300, 1e300])
    out = tmp_path / "never.csv"
    assert main(["solve", str(bad), "--out", str(out)]) == 1
    assert not out.exists()
    assert "x_bounds must lie within" in capsys.readouterr().err


def test_solve_missing_file_exits_1(tmp_path):
    assert main(["solve", str(tmp_path / "no.json"), "--out", str(tmp_path / "o.csv")]) == 1


def test_gen_is_deterministic(tmp_path):
    a, b, c = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
    args = ["gen", "--seed", "9", "--n-users", "12", "--env", "urban"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert main(["gen", "--seed", "10", "--n-users", "12", "--env", "urban", "--out", str(c)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_gen_then_solve_round_trip(tmp_path):
    scen = tmp_path / "scen.json"
    out = tmp_path / "out.csv"
    assert main(["gen", "--seed", "3", "--n-users", "8", "--env", "suburban", "--out", str(scen)]) == 0
    assert main(["solve", str(scen), "--out", str(out)]) == 0
    rows = read_csv(out)
    assert len(rows) == 2


def test_gen_unknown_environment_exits_1(tmp_path, capsys):
    code = main(["gen", "--seed", "1", "--n-users", "4", "--env", "rural", "--out", str(tmp_path / "x.json")])
    assert code == 1
    assert "rural" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--n-users", "--mvnos"])
def test_gen_refuses_a_count_above_the_ceiling(tmp_path, capsys, flag):
    # 10**13 users used to exit 3 when numpy could not allocate them, and
    # 10**12 tenants grew an even split until memory ran out.
    out = tmp_path / "never.json"
    args = ["gen", "--seed", "1", "--n-users", "4", "--env", "urban", flag, str(10**13)]
    assert main(args + ["--out", str(out)]) == 1
    assert not out.exists()
    assert f"must be at most {MAX_COUNT}" in capsys.readouterr().err


def test_gen_rejects_a_negative_seed(tmp_path, capsys):
    # numpy's own refusal, "expected non-negative integer", named no flag.
    out = tmp_path / "never.json"
    assert main(["gen", "--seed", "-3", "--n-users", "4", "--env", "urban", "--out", str(out)]) == 1
    assert not out.exists()
    assert capsys.readouterr().err == "error: seed must be non-negative, got -3\n"


@pytest.mark.parametrize("size", ["nan", "inf", "0", "-5"])
def test_gen_rejects_a_bad_field_size(tmp_path, capsys, size):
    out = tmp_path / "never.json"
    args = ["gen", "--seed", "1", "--n-users", "4", "--env", "urban", "--field-size", size]
    assert main(args + ["--out", str(out)]) == 1
    assert not out.exists()
    assert "field_size_m must be finite and positive" in capsys.readouterr().err


def test_mc_small_config(tmp_path):
    config = {
        "meta": {"version": "1"},
        "n_runs": 2,
        "n_users": 6,
        "seed": 5,
        "environments": ["urban", "suburban"],
    }
    cfg = tmp_path / "mc.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["mc", str(cfg), "--out", str(out_a)]) == 0
    assert main(["mc", str(cfg), "--out", str(out_b)]) == 0
    rows = read_csv(out_a)
    assert rows[0] == [
        "environment", "policy", "mean_total", "std_total",
        "mean_per_mvno_0", "mean_per_mvno_1", "runs",
    ]
    assert len(rows) == 1 + 2 * 3  # two environments, three policies
    assert {r[0] for r in rows[1:]} == {"urban", "suburban"}
    assert all(r[-1] == "2" for r in rows[1:])
    assert out_a.read_bytes() == out_b.read_bytes()


def test_mc_runs_fair_selection_over_4_tenants(tmp_path):
    # The bundled config with 4 tenants: its multi_tenancy_dmf policy runs
    # tenancy-fair selection, which has no tenant ceiling.
    doc = json.loads(mc_default_path().read_text(encoding="utf-8"))
    doc["num_mvnos"] = 4
    doc["n_runs"] = 2
    cfg = tmp_path / "mc4.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "mc4.csv"
    assert main(["mc", str(cfg), "--out", str(out)]) == 0
    rows = read_csv(out)
    assert rows[0][4:-1] == [f"mean_per_mvno_{j}" for j in range(4)]
    assert {r[1] for r in rows[1:]} == {"single_tenancy", "multi_tenancy_no_fairness", "multi_tenancy_dmf"}


# (path, value, message) of each config refused when it is read, before a layout is drawn.
REFUSED_ON_READ = [
    (("seed",), -1, "seed must be non-negative, got -1"),
    (("n_users",), -1, "n_users must be non-negative"),
    (("num_mvnos",), 0, "num_mvnos must be at least 1"),
    (("field_size_m",), 1e9, "field_size_m: x_bounds must lie within +-1e+07 m"),
    (("profile", "h_bounds"), [0.0, 80.0], "profile: h_bounds must start above ground, got 0.0"),
    (("profile", "h_bounds"), [80.0, 20.0], "profile: h_bounds must satisfy min <= max"),
    (
        ("profile", "resource_demand"),
        0.0,
        "profile: resource_demand must be finite and positive, got 0.0",
    ),
    (("profile", "capacity"), math.nan, "profile: capacity must be finite and positive, got nan"),
    (
        ("profile", "max_path_loss_db"),
        math.nan,
        "profile: max_path_loss_db must be finite and positive, got nan",
    ),
]


def undrawn(*args, **kwargs):
    raise AssertionError("drew a layout for a config it should refuse when read")


@pytest.mark.parametrize(
    "path, value",
    [
        (("field_size_m",), float("nan")),
        (("profile", "h_bounds"), [0.0, 80.0]),
        (("profile", "h_bounds"), [80.0, 20.0]),
        (("profile", "capacity"), math.nan),
        (("profile", "resource_demand"), 0.0),
        (("profile", "energy_cost_range"), [0.0, 5.0]),
        (("profile", "targets"), [1]),
        (("profile", "channel", "frequency_hz"), float("nan")),
        (("profile", "max_path_loss_db"), math.nan),
        (("profile", "weights", "w1"), float("nan")),
        (("environments",), []),
        (("profile", "energy_cost_range"), [0.0, float("inf")]),
        (("environments",), ["urban", "urban"]),
        (("policies",), ["multi_tenancy_dmf", "multi_tenancy_dmf"]),
        (("profile", "content_probability"), 2.0),
        (("profile", "content_probability"), -0.5),
        (("profile", "content_probability"), float("nan")),
        (("profile", "energy_cost_range"), [0.8, 0.2]),
        (("seed",), -1),
        (("n_users",), -1),
        (("num_mvnos",), 0),
        (("field_size_m",), 1e9),
    ],
)
def test_mc_rejects_an_invalid_config(tmp_path, capsys, monkeypatch, path, value):
    # The bundled config (2 tenants) with one field made invalid is an input
    # error: not exit 3, and not a CSV of meaningless numbers.  A config that
    # cannot make a layout is refused when it is read, by its field's name.
    # A NaN is found by identity, so both lists use the one math.nan.
    message = next((m for where, bad, m in REFUSED_ON_READ if (where, bad) == (path, value)), None)
    if message:
        monkeypatch.setattr(experiment, "generate_scenario", undrawn)
    doc = json.loads(mc_default_path().read_text(encoding="utf-8"))
    doc["n_runs"] = 1
    field = doc
    for key in path[:-1]:
        field = field[key]
    field[path[-1]] = value
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "never.csv"
    assert main(["mc", str(cfg), "--out", str(out)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert "error:" in err
    if message:
        assert err.startswith(f"error: {message}")


def test_solve_above_the_size_ceiling_exits_1(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(solver, "MAX_SEARCH_POINTS", 100)
    out = tmp_path / "never.csv"
    assert main(["solve", str(case24_path()), "--out", str(out)]) == 1
    assert not out.exists()
    assert "ceiling" in capsys.readouterr().err


def test_mc_above_the_size_ceiling_exits_1(tmp_path, monkeypatch, capsys):
    # The solver's size guard inside a run is an input error, not exit 3.
    monkeypatch.setattr(solver, "MAX_SEARCH_POINTS", 100)
    doc = json.loads(mc_default_path().read_text(encoding="utf-8"))
    cfg = write_edited(tmp_path / "mc.json", doc, ("n_runs",), 1)
    out = tmp_path / "never.csv"
    assert main(["mc", str(cfg), "--out", str(out)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert "run 0" in err and "ceiling" in err


@pytest.mark.parametrize(
    "where", [("profile", "h_bounds", 0), ("profile", "channel", "frequency_hz")]
)
def test_mc_with_a_value_the_loss_formula_rejects_exits_1(tmp_path, capsys, where):
    # At 5e-324 the elevation off the nadir, or the free-space product,
    # rounds to 0 and the run's solve raises ValueError: an input error that
    # names its run, not exit 3.
    doc = json.loads(mc_default_path().read_text(encoding="utf-8"))
    doc["n_runs"] = 1
    cfg = write_edited(tmp_path / "mc.json", doc, where, 5e-324)
    out = tmp_path / "never.csv"
    assert main(["mc", str(cfg), "--out", str(out)]) == 1
    assert not out.exists()
    assert "error: run 0 (suburban, single_tenancy): " in capsys.readouterr().err


def test_solve_above_the_selection_state_ceiling_exits_1(tmp_path, monkeypatch, capsys):
    # Demands 1, 2, 4, ..., 2048 under a binding capacity give the selection
    # DP a state per reachable usage, up to 4001; the centers stay far below
    # their own ceiling.
    doc = json.loads(case24_path().read_text(encoding="utf-8"))
    doc["users"] = [
        {"id": k, "x": float(k), "y": 0.0, "mvno": 0, "r": float(2**k)} for k in range(12)
    ]
    doc["capacity"] = 4000.0
    doc["weights"]["w2"] = 0.0
    scenario = tmp_path / "states.json"
    scenario.write_text(json.dumps(doc), encoding="utf-8")
    monkeypatch.setattr(solver, "MAX_DP_STATES", 4000)
    out = tmp_path / "never.csv"
    assert main(["solve", str(scenario), "--out", str(out)]) == 1
    assert not out.exists()
    assert "selection DP" in capsys.readouterr().err


def test_cli_module_runs_as_a_script(tmp_path):
    # python -m dronecell.cli.main writes the same case24 CSV as main().
    out, want = tmp_path / "module.csv", tmp_path / "main.csv"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "dronecell.cli.main", "solve", str(case24_path()), "--out", str(out)],
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert main(["solve", str(case24_path()), "--out", str(want)]) == 0
    assert out.read_bytes() == want.read_bytes()


def test_altitude_profile(tmp_path):
    out = tmp_path / "profile.csv"
    code = main([
        "altitude-profile", "--env", "urban",
        "--h-min", "100", "--h-max", "2000", "--steps", "19",
        "--out", str(out),
    ])
    assert code == 0
    rows = read_csv(out)
    assert rows[0] == ["kind", "h_m", "radius_m"]
    assert len(rows) == 1 + 20 + 1
    assert rows[-1][0] == "optimum"
    radii = [float(r[2]) for r in rows[1:-1]]
    assert float(rows[-1][2]) >= max(radii) - 1e-9

    # The CSV holds coverage_radius at each evenly spaced altitude and then
    # optimal_altitude's optimum, byte for byte.
    for env, threshold, h_min, h_max, steps in (
        ("urban", 100.0, 100.0, 2000.0, 19),
        ("highrise_urban", 100.0, 1.0, 60.0, 200),
        ("suburban", 85.5, 20.0, 500.0, 37),
        ("dense_urban", 130.0, 5.0, 3000.0, 100),
    ):
        code = main([
            "altitude-profile", "--env", env, "--threshold-db", str(threshold),
            "--h-min", str(h_min), "--h-max", str(h_max), "--steps", str(steps),
            "--out", str(out),
        ])
        assert code == 0
        environment, cfg = ENVIRONMENTS[env], ChannelConfig(max_path_loss_db=threshold)
        samples = []
        for k in range(steps + 1):
            h = h_min + k * (h_max - h_min) / steps
            samples.append((h, coverage_radius(h, threshold, environment, cfg)))
        optimum = optimal_altitude(threshold, environment, cfg, (h_min, h_max))
        assert out.read_text(encoding="utf-8") == altitude_profile_csv(samples, *optimum)


def test_altitude_profile_rejects_more_steps_than_the_count_ceiling(tmp_path, monkeypatch, capsys):
    # Without the count ceiling, 9,999,999 steps ran one radius search per
    # step, about 78 s, with every row held in memory.  It alone refuses
    # 10**7 as well.
    import dronecell.cli.main as cli_main

    def unsampled(*args):
        raise AssertionError("sampled before the --steps check")

    monkeypatch.setattr(cli_main, "optimal_altitude", unsampled)
    monkeypatch.setattr(cli_main, "coverage_radius", unsampled)
    out = tmp_path / "profile.csv"
    args = ["altitude-profile", "--env", "urban", "--h-min", "20", "--h-max", "500"]
    for steps in (MAX_COUNT + 1, 9_999_999, 10**7):
        assert main(args + ["--steps", str(steps), "--out", str(out)]) == 1
        assert f"error: --steps must be at most {MAX_COUNT}, got {steps}" in capsys.readouterr().err
        assert not out.exists()
    monkeypatch.setattr(cli_main, "optimal_altitude", lambda *a: (100.0, 50.0))
    monkeypatch.setattr(cli_main, "coverage_radius", lambda *a: 50.0)
    assert main(args + ["--steps", str(MAX_COUNT), "--out", str(out)]) == 0
    assert len(read_csv(out)) == 1 + (MAX_COUNT + 1) + 1


def test_altitude_profile_rejects_bad_range(tmp_path, capsys):
    cases = [
        (["--h-min", "500", "--h-max", "100"], "altitude range"),
        (["--h-min", "20", "--h-max", "500", "--threshold-db=nan"], "--threshold-db must be finite"),
        (["--h-min", "20", "--h-max", "500", "--threshold-db=inf"], "--threshold-db must be finite"),
        (["--h-min", "20", "--h-max", "500", "--frequency-hz=nan"], "--frequency-hz must be finite"),
        (["--h-min", "20", "--h-max", "500", "--frequency-hz=inf"], "--frequency-hz must be finite"),
        (["--h-min=nan", "--h-max", "500"], "--h-min must be finite"),
        (["--h-min", "20", "--h-max=inf"], "--h-max must be finite"),
    ]
    for args, message in cases:
        out = tmp_path / "x.csv"
        code = main(["altitude-profile", "--env", "urban", *args, "--out", str(out)])
        assert code == 1, args
        assert message in capsys.readouterr().err, args
        assert not out.exists()


@pytest.mark.parametrize(
    "args, message",
    [
        (["--env", "rural"], "error: unknown environment preset 'rural'"),
        (["--env", "urban", "--steps", "0"], "error: --steps must be at least 1, got 0"),
        (["--env", "x" * 3000], "error: unknown environment preset <3,000 characters>"),
    ],
)
def test_altitude_profile_rejects_an_unknown_preset_or_no_steps(tmp_path, capsys, args, message):
    out = tmp_path / "x.csv"
    assert main(["altitude-profile", *args, "--h-min", "20", "--h-max", "500", "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name", ["rural", "x" * 3000])
def test_a_file_and_a_flag_refuse_an_unknown_preset_with_the_same_text(tmp_path, capsys, name):
    # One preset rule serves the scenario reader and the --env flags.
    doc = json.loads(case24_path().read_text(encoding="utf-8"))
    scenario = write_edited(tmp_path / "doc.json", doc, ("environment",), {"name": name})
    assert main(["solve", str(scenario), "--out", str(tmp_path / "never.csv")]) == 1
    from_file = capsys.readouterr().err
    out = tmp_path / "x.csv"
    assert main(["altitude-profile", "--env", name, "--h-min", "20", "--h-max", "500", "--out", str(out)]) == 1
    assert capsys.readouterr().err == from_file
    assert main(["gen", "--seed", "1", "--n-users", "3", "--env", name, "--out", str(out)]) == 1
    assert capsys.readouterr().err == from_file
    assert from_file.startswith("error: unknown environment preset ") and len(from_file) < 100
    assert not out.exists()


def test_missing_required_argument_exits_1(capsys):
    with pytest.raises(SystemExit) as info:
        main(["solve", str(case24_path())])
    assert info.value.code == 1
    assert "--out" in capsys.readouterr().err


def test_unknown_command_exits_1(capsys):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 1
    capsys.readouterr()


def test_in_process_calls_share_the_parser_but_not_their_arguments(tmp_path, capsys):
    # main() builds its parser once per process; every call must still read
    # only its own arguments and leave nothing behind for the next one.
    assert build_parser() is build_parser()
    case24 = str(case24_path())
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    svg = tmp_path / "placement.svg"
    assert main(["solve", case24, "--out", str(first), "--svg", str(svg)]) == 0
    assert svg.exists()
    svg.unlink()
    assert main(["solve", case24, "--out", str(second)]) == 0
    assert second.read_bytes() == first.read_bytes()

    # A call that fails on its arguments, then one that succeeds.
    with pytest.raises(SystemExit) as info:
        main(["solve", case24])
    assert info.value.code == 1
    after_error = tmp_path / "after_error.csv"
    assert main(["solve", case24, "--out", str(after_error)]) == 0
    assert after_error.read_bytes() == first.read_bytes()

    # An mc call, then a solve.
    config = tmp_path / "mc.json"
    config.write_text(
        json.dumps({"meta": {"version": "1"}, "n_runs": 1, "n_users": 6, "seed": 5}),
        encoding="utf-8",
    )
    assert main(["mc", str(config), "--out", str(tmp_path / "mc.csv")]) == 0
    after_mc = tmp_path / "after_mc.csv"
    assert main(["solve", case24, "--out", str(after_mc)]) == 0
    assert after_mc.read_bytes() == first.read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "after_error.csv", "after_mc.csv", "first.csv", "mc.csv", "mc.json", "second.csv",
    ]
    capsys.readouterr()

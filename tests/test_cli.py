"""End-to-end checks of the dronecell command line."""

import csv
import json
import math
import os
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import dronecell
from dronecell import solver
from dronecell.channel import ENVIRONMENTS, ChannelConfig, coverage_radius, optimal_altitude
from dronecell.cli.main import main
from dronecell.cli.report import altitude_profile_csv
from dronecell.fixtures import case24_path, mc_default_path
from dronecell.solver import InfeasibleRegionError

SRC = str(Path(dronecell.__file__).resolve().parents[1])


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
    ],
)
def test_a_malformed_document_exits_1(tmp_path, capsys, command, where, value):
    # Wrong JSON types used to escape the parser as TypeError, AttributeError
    # or OverflowError and exit 3; a float run count of 1e300 ran for ever,
    # the string "false" read as a true content flag, and the string "28"
    # as the altitude window (2, 8).
    if command == "solve":
        doc = json.loads(case24_path().read_text(encoding="utf-8"))
    else:
        doc = dict(json.loads(mc_default_path().read_text(encoding="utf-8")), n_runs=1)
    bad = write_edited(tmp_path / "bad.json", doc, where, value)
    out = tmp_path / "never.csv"
    assert main([command, str(bad), "--out", str(out)]) == 1
    assert not out.exists()
    assert "error:" in capsys.readouterr().err


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


def test_infeasible_region_exits_2(tmp_path, monkeypatch, capsys):
    import dronecell.cli.main as cli_main

    def boom(scenario):
        raise InfeasibleRegionError("empty placement box")

    monkeypatch.setattr(cli_main, "solve", boom)
    out = tmp_path / "never.csv"
    assert main(["solve", str(case24_path()), "--out", str(out)]) == 2
    assert "infeasible" in capsys.readouterr().err


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


def test_mc_rejects_fair_selection_over_3_tenants(tmp_path, capsys):
    # The bundled config with 4 tenants: its multi_tenancy_dmf policy needs
    # tenancy-fair selection, exact only up to 3 MVNOs (this exited 3).
    doc = json.loads(mc_default_path().read_text(encoding="utf-8"))
    doc["num_mvnos"] = 4
    cfg = tmp_path / "mc4.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "never.csv"
    assert main(["mc", str(cfg), "--out", str(out)]) == 1
    assert not out.exists()
    assert "up to 3 MVNOs" in capsys.readouterr().err


@pytest.mark.parametrize(
    "path, value",
    [
        (("field_size_m",), float("nan")),
        (("profile", "h_bounds"), [0.0, 80.0]),
        (("profile", "h_bounds"), [80.0, 20.0]),
        (("profile", "capacity"), float("nan")),
        (("profile", "resource_demand"), 0.0),
        (("profile", "energy_cost_range"), [0.0, 5.0]),
        (("profile", "targets"), [1]),
        (("profile", "channel", "frequency_hz"), float("nan")),
        (("profile", "max_path_loss_db"), float("nan")),
        (("profile", "weights", "w1"), float("nan")),
        (("environments",), []),
        (("profile", "energy_cost_range"), [0.0, float("inf")]),
    ],
)
def test_mc_rejects_an_invalid_config(tmp_path, capsys, path, value):
    # The bundled config (2 tenants) with one field made invalid is an input
    # error: not exit 3, and not a CSV of meaningless numbers.
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
    assert "error:" in capsys.readouterr().err


def test_solve_above_the_size_ceiling_exits_1(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(solver, "MAX_SEARCH_POINTS", 100)
    out = tmp_path / "never.csv"
    assert main(["solve", str(case24_path()), "--out", str(out)]) == 1
    assert not out.exists()
    assert "ceiling" in capsys.readouterr().err


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

    # The samples come from one coverage_radii call; the CSV is the one the
    # scalar coverage_radius gives at the same altitudes, byte for byte.
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

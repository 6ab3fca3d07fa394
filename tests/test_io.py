"""JSON scenario and experiment-config files: round trips and rejects."""

import json
from dataclasses import fields

import pytest

from dronecell.channel import ChannelConfig, Environment, ENVIRONMENTS
from dronecell.cli import files
from dronecell.cli.files import (
    FileFormatError,
    experiment_config_from_dict,
    experiment_config_to_dict,
    load_experiment_config,
    load_scenario,
    save_experiment_config,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from dronecell.experiment import ExperimentConfig
from dronecell.fixtures import case24_path, load_case24, mc_default_path
from dronecell.scenario import (
    ObjectiveWeights,
    PlacementRegion,
    Scenario,
    ScenarioProfile,
    User,
    generate_scenario,
)


def test_case24_fixture_round_trip(tmp_path):
    sc = load_case24()
    out = tmp_path / "copy.json"
    save_scenario(sc, out)
    assert load_scenario(out) == sc


def test_save_is_byte_stable(tmp_path):
    sc = load_case24()
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_scenario(sc, a)
    save_scenario(sc, b)
    assert a.read_bytes() == b.read_bytes()


def test_generated_scenario_round_trip(tmp_path):
    sc = generate_scenario(42, 17, 3, ENVIRONMENTS["dense_urban"])
    out = tmp_path / "gen.json"
    save_scenario(sc, out)
    assert load_scenario(out) == sc


def test_round_trip_preserves_overrides(tmp_path):
    users = (
        User(id=0, x=1.0, y=2.0, mvno_id=0, max_path_loss_db=96.5,
             energy_cost=0.25, content_request=True, resource_demand=2.0),
        User(id=1, x=-3.0, y=4.0, mvno_id=1),
    )
    sc = Scenario(
        users=users,
        num_mvnos=2,
        targets=(1, 1),
        weights=ObjectiveWeights(2.0, 1.5, 0.5, 0.25, norm="L2"),
        capacity=3.5,
        region=PlacementRegion((-10.0, 10.0), (-10.0, 10.0), (30.0, 90.0)),
        environment=ENVIRONMENTS["suburban"],
        channel=ChannelConfig(frequency_hz=2.4e9, max_path_loss_db=103.0),
    )
    out = tmp_path / "custom.json"
    save_scenario(sc, out)
    back = load_scenario(out)
    assert back == sc
    assert back.weights.norm == "L2"
    assert back.users[0].content_request is True


def test_custom_environment_round_trip(tmp_path):
    env = Environment("lunar", plos_a=5.0, plos_b=0.3, eta_los_db=0.5, eta_nlos_db=15.0)
    sc = generate_scenario(7, 5, 2, env)
    doc = scenario_to_dict(sc)
    assert set(doc["environment"]) == {"name", "plos_a", "plos_b", "eta_los_db", "eta_nlos_db"}
    out = tmp_path / "lunar.json"
    save_scenario(sc, out)
    assert load_scenario(out).environment == env


def test_preset_environment_collapses_to_name():
    sc = generate_scenario(7, 5, 2, ENVIRONMENTS["urban"])
    doc = scenario_to_dict(sc)
    assert doc["environment"] == {"name": "urban"}


def test_version_is_required_and_checked():
    sc = load_case24()
    doc = scenario_to_dict(sc)
    doc["meta"]["version"] = "2"
    with pytest.raises(FileFormatError, match="version"):
        scenario_from_dict(doc)
    del doc["meta"]
    with pytest.raises(FileFormatError, match="version"):
        scenario_from_dict(doc)


def test_missing_sections_are_rejected():
    base = scenario_to_dict(load_case24())
    for key in ("environment", "region", "tenancy", "capacity", "users"):
        doc = json.loads(json.dumps(base))
        del doc[key]
        with pytest.raises(FileFormatError, match=key):
            scenario_from_dict(doc)


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("q_db", True, "users[3].q_db must be a number, got True"),
        ("x", None, "missing key 'x' in users[3]"),
        ("kappa", "yes", "users[3].kappa must be true or false, got 'yes'"),
        ("id", 3.0, "users[3].id must be an integer, got 3.0"),
        ("y", "6", "users[3].y must be a number, got '6'"),
        ("mvno", True, "users[3].mvno must be an integer, got True"),
        ("lambda", [], "users[3].lambda must be a number, got []"),
        ("r", False, "users[3].r must be a number, got False"),
        ("qdb", 50, "unknown key 'users[3].qdb'"),
    ],
)
def test_a_bad_user_field_is_named_by_its_location(key, value, message):
    # The per-user locations are formatted only when a field is rejected;
    # the messages are unchanged.
    doc = scenario_to_dict(load_case24())
    if value is None:
        del doc["users"][3][key]
    else:
        doc["users"][3][key] = value
    with pytest.raises(FileFormatError) as info:
        scenario_from_dict(doc)
    assert str(info.value) == message


@pytest.mark.parametrize("key", ["region", "tenancy", "environment", "meta"])
def test_a_section_that_is_not_an_object_is_rejected(key):
    # A list used to be reported as missing its first key, a number as a
    # malformed document.
    doc = scenario_to_dict(load_case24())
    for value in (["x"], 3):
        doc[key] = value
        with pytest.raises(FileFormatError) as info:
            scenario_from_dict(doc)
        assert str(info.value) == f"{key} must be an object, got {value!r}"


def test_bad_region_bounds_are_rejected():
    doc = scenario_to_dict(load_case24())
    doc["region"]["h"] = [20.0]
    with pytest.raises(FileFormatError, match="pair"):
        scenario_from_dict(doc)


def test_unknown_preset_is_rejected():
    doc = scenario_to_dict(load_case24())
    doc["environment"] = {"name": "rural"}
    with pytest.raises(FileFormatError, match="rural"):
        scenario_from_dict(doc)


def test_partial_explicit_environment_is_rejected():
    doc = scenario_to_dict(load_case24())
    doc["environment"] = {"name": "custom", "plos_a": 5.0}
    with pytest.raises(FileFormatError, match="all four"):
        scenario_from_dict(doc)


def test_malformed_json_and_wrong_top_level(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(FileFormatError):
        load_scenario(bad)
    listy = tmp_path / "list.json"
    listy.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(FileFormatError, match="object"):
        load_scenario(listy)


def test_experiment_config_round_trip(tmp_path):
    profile = ScenarioProfile(
        max_path_loss_db=98.0,
        resource_demand=2.0,
        energy_cost_range=(0.0, 0.5),
        content_probability=0.3,
        capacity=12.0,
        targets=(6, 5, 5),
        weights=ObjectiveWeights(1.5, 2.0, 0.5, 0.25, norm="L2"),
        h_bounds=(25.0, 95.0),
        channel=ChannelConfig(frequency_hz=2.4e9, max_path_loss_db=103.0),
    )
    config = ExperimentConfig(
        n_runs=7, n_users=16, num_mvnos=3, seed=123,
        environments=("urban", "suburban"), policies=("multi_tenancy_dmf",),
        field_size_m=900.0, profile=profile,
    )
    # Every key is set away from its default, so none can round-trip by default.
    for obj in (config, profile, profile.weights, profile.channel):
        for f in fields(obj):
            assert getattr(obj, f.name) != getattr(type(obj)(), f.name), f.name
    out = tmp_path / "mc.json"
    save_experiment_config(config, out)
    assert load_experiment_config(out) == config


def test_each_table_lists_every_field_once():
    for cls, rows in files._FIELDS.items():
        assert sorted(name for _, name, _ in rows) == sorted(f.name for f in fields(cls)), cls
        assert len({key for key, _, _ in rows}) == len(rows), cls


@pytest.mark.parametrize(
    "edit, message",
    [
        # A bare string used to be read letter by letter: "unknown
        # environments: ['u', 'r', 'b', 'a', 'n']".
        ({"environments": "urban"}, "environments must be a list, got 'urban'"),
        ({"policies": "urban"}, "policies must be a list, got 'urban'"),
        ({"profile": {"weights": {"w1": "2"}}}, "profile.weights.w1 must be a number, got '2'"),
        ({"n_run": 1}, "unknown key 'n_run'"),
        ({"profile": {"capacty": 3}}, "unknown key 'profile.capacty'"),
        ({"profile": {"weights": {"w0": 1}}}, "unknown key 'profile.weights.w0'"),
        ({"profile": {"channel": {"freq_hz": 1}}}, "unknown key 'profile.channel.freq_hz'"),
    ],
)
def test_a_bad_experiment_field_is_named_by_its_path(edit, message):
    with pytest.raises(FileFormatError) as info:
        experiment_config_from_dict({"meta": {"version": "1"}, **edit})
    assert str(info.value) == message


@pytest.mark.parametrize(
    "where, message",
    [
        (("wieghts",), "unknown key 'wieghts'"),
        (("environment", "plos"), "unknown key 'environment.plos'"),
        (("channel", "freq_hz"), "unknown key 'channel.freq_hz'"),
        (("region", "z"), "unknown key 'region.z'"),
        (("tenancy", "target"), "unknown key 'tenancy.target'"),
        (("weights", "w5"), "unknown key 'weights.w5'"),
    ],
)
def test_an_unknown_scenario_key_is_named_by_its_path(where, message):
    # A misspelt key used to be dropped, and its default used unseen.
    doc = scenario_to_dict(load_case24())
    doc["environment"] = {
        "name": "lunar", "plos_a": 5.0, "plos_b": 0.3, "eta_los_db": 0.5, "eta_nlos_db": 15.0,
    }
    node = doc
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = 50
    with pytest.raises(FileFormatError) as info:
        scenario_from_dict(doc)
    assert str(info.value) == message


def test_an_unknown_key_in_a_preset_environment_or_meta():
    doc = scenario_to_dict(load_case24())
    doc["meta"]["note"] = "meta holds anything besides the version"
    assert scenario_from_dict(doc) == load_case24()
    doc["environment"]["plos_c"] = 1.0
    with pytest.raises(FileFormatError) as info:
        scenario_from_dict(doc)
    assert str(info.value) == "unknown key 'environment.plos_c'"


@pytest.mark.parametrize("users", [{}, {"a": {}}, "ab", 3])
def test_users_that_are_not_a_list_are_rejected(users):
    # An object used to read as its keys ({} as no users at all) and a
    # string as its letters: "users[0] must be an object, got 'a'".
    doc = dict(scenario_to_dict(load_case24()), users=users)
    with pytest.raises(FileFormatError) as info:
        scenario_from_dict(doc)
    assert str(info.value) == f"users must be a list, got {users!r}"


def test_bundled_default_config_matches_defaults():
    assert load_experiment_config(mc_default_path()) == ExperimentConfig()


# Every optional key left out: the fields take the dataclasses' defaults.
MINIMAL_SCENARIO_DOC = {
    "meta": {"version": "1"},
    "environment": {"name": "urban"},
    "region": {"x": [-10, 10], "y": [-10, 10], "h": [20, 80]},
    "tenancy": {"num_mvnos": 1, "targets": [1]},
    "capacity": 1,
    "users": [{"id": 0, "x": 0, "y": 0, "mvno": 0}],
}
DEFAULT_SCENARIO = Scenario(
    users=(User(id=0, x=0.0, y=0.0, mvno_id=0),),
    num_mvnos=1,
    targets=(1,),
    weights=ObjectiveWeights(),
    capacity=1.0,
    region=PlacementRegion((-10.0, 10.0), (-10.0, 10.0), (20.0, 80.0)),
    environment=ENVIRONMENTS["urban"],
    channel=ChannelConfig(),
)


@pytest.mark.parametrize(
    "parse, doc, want",
    [
        (experiment_config_from_dict, {"meta": {"version": "1"}}, ExperimentConfig()),
        (scenario_from_dict, MINIMAL_SCENARIO_DOC, DEFAULT_SCENARIO),
    ],
    ids=["experiment", "scenario"],
)
def test_a_minimal_doc_uses_defaults(parse, doc, want):
    assert parse(doc) == want


def test_experiment_doc_version_checked():
    doc = experiment_config_to_dict(ExperimentConfig())
    doc["meta"]["version"] = "0"
    with pytest.raises(FileFormatError, match="version"):
        experiment_config_from_dict(doc)


def test_bundled_case24_loads():
    sc = load_scenario(case24_path())
    assert len(sc.users) == 24
    assert sc.num_mvnos == 2
    assert sc.targets == (12, 12)

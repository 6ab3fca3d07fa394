"""Versioned JSON documents for scenarios and Monte Carlo configurations.

Parsing and serialization are exact inverses on the data model: floats pass
through Python's repr round-trip, optional user fields fall back to the
documented defaults, and a preset environment is stored by name only.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, fields
from pathlib import Path
from typing import Any, Callable, TypeVar

from ..channel import ENVIRONMENTS, ChannelConfig, Environment
from ..experiment import ExperimentConfig
from ..scenario import (
    ObjectiveWeights,
    PlacementRegion,
    Scenario,
    ScenarioProfile,
    User,
)

SCHEMA_VERSION = "1"

_T = TypeVar("_T")


class FileFormatError(ValueError):
    """The document is structurally or semantically malformed."""


def _location(where: str, key: str) -> str:
    # Readers take the key apart from ``where`` (empty at the top level), so
    # that a location such as "users[3].x" is formatted only for an error.
    return f"{where}.{key}" if where else key


def _integer(value: Any, where: str, key: str) -> int:
    # A count, id or seed written as a float (1e300, NaN) is not coerced.
    if isinstance(value, bool) or not isinstance(value, int):
        raise FileFormatError(f"{_location(where, key)} must be an integer, got {value!r}")
    return value


def _number(value: Any, where: str, key: str) -> float:
    # JSON true and "6" are not numbers, though float() reads them as 1.0 and 6.0.
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise FileFormatError(f"{_location(where, key)} must be a number, got {value!r}")
    return float(value)


def _flag(value: Any, where: str, key: str) -> bool:
    if not isinstance(value, bool):  # the string "false" is not a false flag
        raise FileFormatError(f"{_location(where, key)} must be true or false, got {value!r}")
    return value


def _text(value: Any, where: str, key: str) -> str:
    if not isinstance(value, str):
        raise FileFormatError(f"{_location(where, key)} must be a string, got {value!r}")
    return value


def _pair(pair: Any, where: str, key: str) -> tuple[float, float]:
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise FileFormatError(f"{_location(where, key)} must be a [min, max] pair")
    return (_number(pair[0], where, key), _number(pair[1], where, key))


def _object(doc: Any, where: str, keys: frozenset[str] | None = None) -> dict[str, Any]:
    if not isinstance(doc, dict):
        raise FileFormatError(f"{where} must be an object, got {doc!r}")
    # Given ``keys``, a misspelt key is an error, not dropped for its default.
    if keys is not None and doc.keys() - keys:
        raise FileFormatError(f"unknown key {_location(where, min(doc.keys() - keys))!r}")
    return doc


def _list_of(read: Callable[[Any, str, str], _T]) -> Callable[[Any, str, str], tuple[_T, ...]]:
    def read_list(value: Any, where: str, key: str) -> tuple[_T, ...]:
        if not isinstance(value, (list, tuple)):  # a string is not read letter by letter
            raise FileFormatError(f"{_location(where, key)} must be a list, got {value!r}")
        return tuple(read(v, where, key) for v in value)

    return read_list


def _optional(read: Callable[[Any, str, str], _T]) -> Callable[[Any, str, str], _T | None]:
    return lambda value, where, key: None if value is None else read(value, where, key)


_integers = _list_of(_integer)

# One table per JSON section: rows of (JSON key, dataclass field, reader), in
# the order the writer emits them.  A nested section's reader is its dataclass.
_FIELDS: dict[type, tuple[tuple[str, str, Any], ...]] = {
    User: (
        ("id", "id", _integer), ("x", "x", _number), ("y", "y", _number),
        ("mvno", "mvno_id", _integer), ("q_db", "max_path_loss_db", _number),
        ("lambda", "energy_cost", _number), ("kappa", "content_request", _flag),
        ("r", "resource_demand", _number),
    ),
    PlacementRegion: (("x", "x_bounds", _pair), ("y", "y_bounds", _pair), ("h", "h_bounds", _pair)),
    ChannelConfig: (
        ("frequency_hz", "frequency_hz", _number),
        ("default_max_path_loss_db", "max_path_loss_db", _number),
    ),
    ObjectiveWeights: (
        ("w1", "w1", _number), ("w2", "w2", _number), ("w3", "w3", _number),
        ("w4", "w4", _number), ("norm", "norm", _text),
    ),
    Environment: (  # the name first: a preset is given by its name alone
        ("name", "name", _text), ("plos_a", "plos_a", _number), ("plos_b", "plos_b", _number),
        ("eta_los_db", "eta_los_db", _number), ("eta_nlos_db", "eta_nlos_db", _number),
    ),
    ScenarioProfile: (
        ("max_path_loss_db", "max_path_loss_db", _number),
        ("resource_demand", "resource_demand", _number),
        ("energy_cost_range", "energy_cost_range", _pair),
        ("content_probability", "content_probability", _number),
        ("capacity", "capacity", _optional(_number)), ("targets", "targets", _optional(_integers)),
        ("weights", "weights", ObjectiveWeights), ("h_bounds", "h_bounds", _pair),
        ("channel", "channel", ChannelConfig),
    ),
    ExperimentConfig: (
        ("seed", "seed", _integer), ("n_runs", "n_runs", _integer),
        ("n_users", "n_users", _integer), ("num_mvnos", "num_mvnos", _integer),
        ("environments", "environments", _list_of(_text)),
        ("policies", "policies", _list_of(_text)),
        ("field_size_m", "field_size_m", _number), ("profile", "profile", ScenarioProfile),
    ),
}


def _section(cls: type) -> Callable[[Any, str, str], Any]:
    return lambda value, where, key: _read(cls, value, _location(where, key))


def _by_field(cls: type) -> tuple[tuple[str, str, Any, Any], ...]:
    # (key, field, reader, default) in field order, so that _read can pass them
    # by position, which is faster; a required field's default is MISSING.
    rows = {name: (key, read) for key, name, read in _FIELDS[cls]}
    out = []
    for f in fields(cls):
        key, read = rows[f.name]
        default = f.default if f.default_factory is MISSING else f.default_factory()
        out.append((key, f.name, _section(read) if read in _FIELDS else read, default))
    return tuple(out)


_ROWS = {cls: _by_field(cls) for cls in _FIELDS}
_KEYS = {cls: frozenset(key for key, _, _ in rows) for cls, rows in _FIELDS.items()}
_KEYS[ExperimentConfig] |= {"meta"}  # a whole document, so it holds the version
_SCENARIO_KEYS = frozenset(
    ("meta", "environment", "channel", "region", "tenancy", "weights", "capacity", "users")
)
_NAME, *_LOSSES = (key for key, _, _ in _FIELDS[Environment])


def _read(cls: type[_T], doc: Any, where: str, **given: Any) -> _T:
    """The ``cls`` that ``doc`` gives; a key left out takes ``given``'s value, else the default."""
    _object(doc, where, _KEYS[cls])
    args = []
    for key, name, read, default in _ROWS[cls]:
        if key in doc:
            args.append(read(doc[key], where, key))
        elif name in given:
            args.append(given[name])
        elif default is MISSING:
            raise FileFormatError(f"missing key {key!r} in {where}")
        else:
            args.append(default)
    return cls(*args)


def _take(doc: Any, where: str, key: str, read: Callable[[Any, str, str], _T] | None = None) -> Any:
    """The required ``doc[key]``, through ``read`` if given; ``doc`` is the object at ``where``."""
    if key not in _object(doc, where):
        raise FileFormatError(f"missing key {key!r} in {where or 'scenario'}")
    return doc[key] if read is None else read(doc[key], where, key)


def _write(obj: Any) -> dict[str, Any]:
    doc = {}
    for key, name, _ in _FIELDS[type(obj)]:
        value = getattr(obj, name)
        if type(value) in _FIELDS:
            value = _write(value)
        doc[key] = list(value) if isinstance(value, tuple) else value
    return doc


def _check_version(doc: dict[str, Any]) -> None:
    version = _object(doc.get("meta", {}), "meta").get("version")
    if version != SCHEMA_VERSION:
        raise FileFormatError(
            f"unsupported schema version {version!r}, expected {SCHEMA_VERSION!r}"
        )


def _environment(doc: Any, where: str, key: str) -> Environment:
    where = _location(where, key)
    name = _text(_object(doc, where, _KEYS[Environment]).get(_NAME, "custom"), where, _NAME)
    explicit = [k for k in _LOSSES if k in doc]
    if not explicit:
        if name not in ENVIRONMENTS:
            raise FileFormatError(f"unknown environment preset {name!r}")
        return ENVIRONMENTS[name]
    if len(explicit) != len(_LOSSES):
        raise FileFormatError(
            f"environment must give either a preset name or all four of {', '.join(_LOSSES)}"
        )
    return _read(Environment, doc, where, name=name)


def scenario_from_dict(doc: dict[str, Any]) -> Scenario:
    _check_version(doc)
    _object(doc, "", _SCENARIO_KEYS)
    env = _take(doc, "", "environment", _environment)
    channel = _read(ChannelConfig, doc.get("channel", {}), "channel")
    region = _take(doc, "", "region", _section(PlacementRegion))
    tenancy = _object(_take(doc, "", "tenancy"), "tenancy", frozenset(("num_mvnos", "targets")))
    num_mvnos = _take(tenancy, "tenancy", "num_mvnos", _integer)
    targets = _take(tenancy, "tenancy", "targets", _integers)
    weights = _read(ObjectiveWeights, doc.get("weights", {}), "weights")
    capacity = _take(doc, "", "capacity", _number)
    q_db = channel.max_path_loss_db
    listed = _take(doc, "", "users", _list_of(lambda u, where, key: u))
    users = tuple(
        _read(User, u, f"users[{i}]", max_path_loss_db=q_db) for i, u in enumerate(listed)
    )
    return Scenario(users, num_mvnos, targets, weights, capacity, region, env, channel)


def scenario_to_dict(scenario: Scenario) -> dict[str, Any]:
    env = scenario.environment
    return {
        "meta": {"version": SCHEMA_VERSION},
        "environment": {_NAME: env.name} if ENVIRONMENTS.get(env.name) == env else _write(env),
        "channel": _write(scenario.channel),
        "region": _write(scenario.region),
        "tenancy": {"num_mvnos": scenario.num_mvnos, "targets": list(scenario.targets)},
        "weights": _write(scenario.weights),
        "capacity": scenario.capacity,
        "users": [_write(u) for u in scenario.users],
    }


def experiment_config_from_dict(doc: dict[str, Any]) -> ExperimentConfig:
    _check_version(doc)
    return _read(ExperimentConfig, doc, "")


def experiment_config_to_dict(config: ExperimentConfig) -> dict[str, Any]:
    return {"meta": {"version": SCHEMA_VERSION}, **_write(config)}


def dumps(doc: dict[str, Any]) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _load(path: str | Path, parse: Callable[[dict[str, Any]], _T]) -> _T:
    """Parse the JSON object at ``path``; every malformed document is a ``FileFormatError``.

    A field of the wrong JSON type (null for a number, a list for an object)
    fails inside ``parse`` with a TypeError, AttributeError or, for an
    integer too large for a float, OverflowError; all three are reported as
    malformed.
    """
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise FileFormatError(f"{path}: top level must be an object")
    try:
        return parse(doc)
    except (TypeError, AttributeError, OverflowError) as exc:
        raise FileFormatError(f"{path}: malformed document: {exc}") from exc


def load_scenario(path: str | Path) -> Scenario:
    return _load(path, scenario_from_dict)


def save_scenario(scenario: Scenario, path: str | Path) -> None:
    Path(path).write_text(dumps(scenario_to_dict(scenario)), encoding="utf-8")


def load_experiment_config(path: str | Path) -> ExperimentConfig:
    return _load(path, experiment_config_from_dict)


def save_experiment_config(config: ExperimentConfig, path: str | Path) -> None:
    Path(path).write_text(dumps(experiment_config_to_dict(config)), encoding="utf-8")

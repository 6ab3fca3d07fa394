"""Versioned JSON documents for scenarios and Monte Carlo configurations.

Parsing and serialization are exact inverses on the data model: floats pass
through Python's repr round-trip, optional user fields fall back to the
documented defaults, and a preset environment is stored by name only.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable, TypeVar

from ..channel import ENVIRONMENTS, ChannelConfig, Environment
from ..experiment import ExperimentConfig
from ..scenario import (
    ObjectiveWeights,
    PlacementRegion,
    Scenario,
    ScenarioProfile,
    TenancyTargets,
    User,
)

SCHEMA_VERSION = "1"

_T = TypeVar("_T")


class FileFormatError(ValueError):
    """The document is structurally or semantically malformed."""


def _require(doc: dict[str, Any], key: str, where: str) -> Any:
    if key not in doc:
        raise FileFormatError(f"missing key {key!r} in {where}")
    return doc[key]


def _integer(value: Any, where: str) -> int:
    # A count, id or seed written as a float (1e300, NaN) is not coerced.
    if isinstance(value, bool) or not isinstance(value, int):
        raise FileFormatError(f"{where} must be an integer, got {value!r}")
    return value


def _number(value: Any, where: str) -> float:
    # JSON true and "6" are not numbers, though float() reads them as 1.0 and 6.0.
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise FileFormatError(f"{where} must be a number, got {value!r}")
    return float(value)


def _check_version(doc: dict[str, Any]) -> None:
    version = doc.get("meta", {}).get("version")
    if version != SCHEMA_VERSION:
        raise FileFormatError(
            f"unsupported schema version {version!r}, expected {SCHEMA_VERSION!r}"
        )


def _environment_from_dict(doc: dict[str, Any]) -> Environment:
    name = doc.get("name", "custom")
    if not isinstance(name, str):
        raise FileFormatError(f"environment name must be a string, got {name!r}")
    explicit = {k for k in ("plos_a", "plos_b", "eta_los_db", "eta_nlos_db") if k in doc}
    if not explicit:
        if name not in ENVIRONMENTS:
            raise FileFormatError(f"unknown environment preset {name!r}")
        return ENVIRONMENTS[name]
    if len(explicit) != 4:
        raise FileFormatError(
            "environment must give either a preset name or all four of "
            "plos_a, plos_b, eta_los_db, eta_nlos_db"
        )
    return Environment(
        name=name,
        plos_a=_number(doc["plos_a"], "environment.plos_a"),
        plos_b=_number(doc["plos_b"], "environment.plos_b"),
        eta_los_db=_number(doc["eta_los_db"], "environment.eta_los_db"),
        eta_nlos_db=_number(doc["eta_nlos_db"], "environment.eta_nlos_db"),
    )


def _environment_to_dict(env: Environment) -> dict[str, Any]:
    if ENVIRONMENTS.get(env.name) == env:
        return {"name": env.name}
    return {
        "name": env.name,
        "plos_a": env.plos_a,
        "plos_b": env.plos_b,
        "eta_los_db": env.eta_los_db,
        "eta_nlos_db": env.eta_nlos_db,
    }


def _channel_from_dict(doc: dict[str, Any]) -> ChannelConfig:
    return ChannelConfig(
        frequency_hz=_number(
            doc.get("frequency_hz", ChannelConfig.frequency_hz), "channel.frequency_hz"
        ),
        max_path_loss_db=_number(
            doc.get("default_max_path_loss_db", ChannelConfig.max_path_loss_db),
            "channel.default_max_path_loss_db",
        ),
    )


def _channel_to_dict(cfg: ChannelConfig) -> dict[str, Any]:
    return {
        "frequency_hz": cfg.frequency_hz,
        "default_max_path_loss_db": cfg.max_path_loss_db,
    }


def _weights_from_dict(doc: dict[str, Any]) -> ObjectiveWeights:
    return ObjectiveWeights(
        w1=_number(doc.get("w1", 1.0), "weights.w1"),
        w2=_number(doc.get("w2", 1.0), "weights.w2"),
        w3=_number(doc.get("w3", 0.0), "weights.w3"),
        w4=_number(doc.get("w4", 0.0), "weights.w4"),
        norm=str(doc.get("norm", "L1")),
    )


def _weights_to_dict(w: ObjectiveWeights) -> dict[str, Any]:
    return {"w1": w.w1, "w2": w.w2, "w3": w.w3, "w4": w.w4, "norm": w.norm}


def _pair(pair: Any, where: str) -> tuple[float, float]:
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise FileFormatError(f"{where} must be a [min, max] pair")
    return (_number(pair[0], where), _number(pair[1], where))


def _bounds(doc: dict[str, Any], key: str, where: str) -> tuple[float, float]:
    return _pair(_require(doc, key, where), f"{where}.{key}")


def scenario_from_dict(doc: dict[str, Any]) -> Scenario:
    _check_version(doc)
    env = _environment_from_dict(_require(doc, "environment", "scenario"))
    channel = _channel_from_dict(doc.get("channel", {}))
    region_doc = _require(doc, "region", "scenario")
    region = PlacementRegion(
        x_bounds=_bounds(region_doc, "x", "region"),
        y_bounds=_bounds(region_doc, "y", "region"),
        h_bounds=_bounds(region_doc, "h", "region"),
    )
    tenancy = _require(doc, "tenancy", "scenario")
    num_mvnos = _integer(_require(tenancy, "num_mvnos", "tenancy"), "tenancy.num_mvnos")
    targets = TenancyTargets(
        tuple(_integer(t, "tenancy.targets") for t in _require(tenancy, "targets", "tenancy"))
    )
    weights = _weights_from_dict(doc.get("weights", {}))
    capacity = _number(_require(doc, "capacity", "scenario"), "capacity")
    users = []
    for i, u in enumerate(_require(doc, "users", "scenario")):
        where = f"users[{i}]"
        kappa = u.get("kappa", False)
        if not isinstance(kappa, bool):
            raise FileFormatError(f"{where}.kappa must be true or false, got {kappa!r}")
        users.append(
            User(
                id=_integer(_require(u, "id", where), f"{where}.id"),
                x=_number(_require(u, "x", where), f"{where}.x"),
                y=_number(_require(u, "y", where), f"{where}.y"),
                mvno_id=_integer(_require(u, "mvno", where), f"{where}.mvno"),
                max_path_loss_db=_number(
                    u.get("q_db", channel.max_path_loss_db), f"{where}.q_db"
                ),
                energy_cost=_number(u.get("lambda", 0.0), f"{where}.lambda"),
                content_request=kappa,
                resource_demand=_number(u.get("r", 1.0), f"{where}.r"),
            )
        )
    return Scenario(
        users=tuple(users),
        num_mvnos=num_mvnos,
        targets=targets,
        weights=weights,
        capacity=capacity,
        region=region,
        environment=env,
        channel=channel,
    )


def scenario_to_dict(scenario: Scenario) -> dict[str, Any]:
    return {
        "meta": {"version": SCHEMA_VERSION},
        "environment": _environment_to_dict(scenario.environment),
        "channel": _channel_to_dict(scenario.channel),
        "region": {
            "x": list(scenario.region.x_bounds),
            "y": list(scenario.region.y_bounds),
            "h": list(scenario.region.h_bounds),
        },
        "tenancy": {
            "num_mvnos": scenario.num_mvnos,
            "targets": list(scenario.targets.counts),
        },
        "weights": _weights_to_dict(scenario.weights),
        "capacity": scenario.capacity,
        "users": [
            {
                "id": u.id,
                "x": u.x,
                "y": u.y,
                "mvno": u.mvno_id,
                "q_db": u.max_path_loss_db,
                "lambda": u.energy_cost,
                "kappa": u.content_request,
                "r": u.resource_demand,
            }
            for u in scenario.users
        ],
    }


def experiment_config_from_dict(doc: dict[str, Any]) -> ExperimentConfig:
    _check_version(doc)
    defaults = ExperimentConfig()
    profile_doc = doc.get("profile", {})
    base_profile = ScenarioProfile()
    profile = ScenarioProfile(
        max_path_loss_db=_number(
            profile_doc.get("max_path_loss_db", base_profile.max_path_loss_db),
            "profile.max_path_loss_db",
        ),
        resource_demand=_number(
            profile_doc.get("resource_demand", base_profile.resource_demand),
            "profile.resource_demand",
        ),
        energy_cost_range=_pair(
            profile_doc.get("energy_cost_range", base_profile.energy_cost_range),
            "profile.energy_cost_range",
        ),
        content_probability=_number(
            profile_doc.get("content_probability", base_profile.content_probability),
            "profile.content_probability",
        ),
        capacity=(
            None
            if profile_doc.get("capacity") is None
            else _number(profile_doc["capacity"], "profile.capacity")
        ),
        targets=(
            None
            if profile_doc.get("targets") is None
            else tuple(_integer(t, "profile.targets") for t in profile_doc["targets"])
        ),
        weights=_weights_from_dict(profile_doc.get("weights", {})),
        h_bounds=_pair(profile_doc.get("h_bounds", base_profile.h_bounds), "profile.h_bounds"),
        channel=_channel_from_dict(profile_doc.get("channel", {})),
    )
    return ExperimentConfig(
        n_runs=_integer(doc.get("n_runs", defaults.n_runs), "n_runs"),
        n_users=_integer(doc.get("n_users", defaults.n_users), "n_users"),
        num_mvnos=_integer(doc.get("num_mvnos", defaults.num_mvnos), "num_mvnos"),
        seed=_integer(doc.get("seed", defaults.seed), "seed"),
        environments=tuple(doc.get("environments", defaults.environments)),
        policies=tuple(doc.get("policies", defaults.policies)),
        field_size_m=_number(doc.get("field_size_m", defaults.field_size_m), "field_size_m"),
        profile=profile,
    )


def experiment_config_to_dict(config: ExperimentConfig) -> dict[str, Any]:
    p = config.profile
    return {
        "meta": {"version": SCHEMA_VERSION},
        "seed": config.seed,
        "n_runs": config.n_runs,
        "n_users": config.n_users,
        "num_mvnos": config.num_mvnos,
        "environments": list(config.environments),
        "policies": list(config.policies),
        "field_size_m": config.field_size_m,
        "profile": {
            "max_path_loss_db": p.max_path_loss_db,
            "resource_demand": p.resource_demand,
            "energy_cost_range": list(p.energy_cost_range),
            "content_probability": p.content_probability,
            "capacity": p.capacity,
            "targets": None if p.targets is None else list(p.targets),
            "weights": _weights_to_dict(p.weights),
            "h_bounds": list(p.h_bounds),
            "channel": _channel_to_dict(p.channel),
        },
    }


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

"""Bundled data files: the 24-user case study and the default MC config."""

from __future__ import annotations

from importlib.resources import files
from pathlib import Path

from .scenario import Scenario

CASE24 = "case24.json"
MC_DEFAULT = "mc_default.json"


def fixture_path(name: str) -> Path:
    """Filesystem path of a bundled data file."""
    return Path(str(files("dronecell").joinpath("data").joinpath(name)))


def case24_path() -> Path:
    return fixture_path(CASE24)


def mc_default_path() -> Path:
    return fixture_path(MC_DEFAULT)


def load_case24() -> Scenario:
    from .cli.files import load_scenario

    return load_scenario(case24_path())

"""A scenario of the wrong shape is a ``ScenarioError`` that names its
paths, never a crash: a top level, section or app entry that is no object,
an app without a name, and unknown fields at every level.

The draws start from a small scenario that validates and break its shape
in one to three places, so every draw must be refused.
"""

import copy
import json
import random

import pytest

from vouchnet.cli import main
from vouchnet.errors import ScenarioError
from vouchnet.scenario import Scenario

DRAWS = 300
SECTIONS = ["formation", "protocol", "compromise", "workload", "old_devices", "study"]
NOT_OBJECTS = [0, 2.5, True, None, "x", [], [1, 2]]

BASE = {
    "node_count": 6,
    "epochs": 1,
    "formation": {"max_degree": 3},
    "protocol": {"quorum": 0.5},
    "apps": [{"name": "maps", "payload_bytes": 16},
             {"name": "cam", "version": "2", "holders": {"fraction": 0.5}}],
    "compromise": {"fraction": 0.0},
    "workload": {"requests_per_epoch": 1},
    "old_devices": {"fraction": 0.0},
    "study": {"delivery_substitution": False},
}


def break_shape(rng: random.Random, data: dict) -> object:
    kind = rng.choice(["section", "entry", "nameless", "empty_entry", "unknown_top",
                       "unknown_section", "unknown_entry", "apps", "top"])
    apps = data["apps"]
    if kind == "section":
        data[rng.choice(SECTIONS)] = rng.choice(NOT_OBJECTS)
    elif kind == "entry":
        apps[rng.randrange(len(apps))] = rng.choice(NOT_OBJECTS)
    elif kind == "nameless":
        apps[rng.randrange(len(apps))] = {"version": rng.choice(["1", "2"])}
    elif kind == "empty_entry":
        apps[rng.randrange(len(apps))] = {}
    elif kind == "unknown_top":
        data[rng.choice(["bogus", "trust", "default_key_bits"])] = 1
    elif kind == "unknown_section":
        data[rng.choice(SECTIONS)] = {"bogus": rng.choice(NOT_OBJECTS)}
    elif kind == "unknown_entry":
        apps[rng.randrange(len(apps))] = {"name": "lamp", "bogus": 1}
    elif kind == "apps":
        data["apps"] = rng.choice([0, "maps", None, {"name": "maps"}])
    else:
        return rng.choice([[1, 2], "x", None, 5, [BASE]])
    return data


def test_base_scenario_validates():
    Scenario.from_dict(BASE)


def test_every_shape_malformed_draw_is_a_scenario_error():
    rng = random.Random(20261021)
    for i in range(DRAWS):
        data = copy.deepcopy(BASE)
        for _ in range(rng.randint(1, 3)):
            if isinstance(data, dict) and isinstance(data.get("apps"), list):
                data = break_shape(rng, data)
        try:
            Scenario.from_dict(data)
        except ScenarioError as exc:
            assert exc.fields, f"draw {i}: {data!r}"
        except Exception as exc:
            raise AssertionError(f"draw {i} crashed: {data!r}") from exc
        else:
            raise AssertionError(f"draw {i} validated: {data!r}")


@pytest.mark.parametrize("data,fields", [
    ({"apps": [5]}, ["apps[0]: expected an object, got int"]),
    ({"apps": [{}]}, ["apps: empty name"]),
    ({"apps": [{"version": "2"}]}, ["apps: empty name"]),
    ([1, 2], ["scenario: expected an object, got list"]),
    ("x", ["scenario: expected an object, got str"]),
    (None, ["scenario: expected an object, got NoneType"]),
])
def test_malformed_shape_names_its_path(data, fields):
    with pytest.raises(ScenarioError) as exc:
        Scenario.from_dict(data)
    assert exc.value.fields == fields


def test_sections_are_listed_before_app_entries():
    with pytest.raises(ScenarioError) as exc:
        Scenario.from_dict({"x": 1, "apps": [{"name": "a", "bogus": 1}, 3],
                            "study": [1], "formation": {"y": 2}})
    assert exc.value.fields == ["scenario: unknown fields ['x']",
                                "formation: unknown fields ['y']",
                                "study: expected an object, got list",
                                "apps[0]: unknown fields ['bogus']",
                                "apps[1]: expected an object, got int"]


@pytest.mark.parametrize("data", [{"apps": [{"version": "2"}]}, [1, 2]],
                         ids=["nameless_app", "list_top_level"])
def test_cli_reports_a_malformed_file(tmp_path, capsys, data):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["run", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid scenario: ")
    assert "Traceback" not in err

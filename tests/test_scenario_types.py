"""A scenario value of the wrong type is a validation error that names its
path, from a file, a dict, a sweep grid or library code, never a crash
mid-check."""

import json
from dataclasses import is_dataclass
from pathlib import Path

import pytest

from vouchnet import Simulation
from vouchnet.cli import main
from vouchnet.errors import ScenarioError
from vouchnet.scenario import AppSpec, Scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

WRONG_TYPES = [
    ({"node_count": 4, "type_distribution": {"a": "x"}}, "type_distribution.a"),
    ({"node_count": 4, "formation": {"join_rate": "0.5"}}, "formation.join_rate"),
    ({"node_count": 4, "protocol": {"quorum": "0.5"}}, "protocol.quorum"),
    ({"node_count": 4, "compromise": {"fraction": 0.5, "mix": {"free_rider": "1"}}},
     "compromise.mix.free_rider"),
    ({"node_count": 4, "protocol": {"hop_limit": "2"}}, "protocol.hop_limit"),
    ({"node_count": 4, "apps": [{"name": "maps", "payload_bytes": 2.5}]},
     "apps[0].payload_bytes"),
    ({"node_count": True}, "node_count"),
    ({"node_count": 4, "epochs": True}, "epochs"),
    ({"node_count": 4, "protocol": {"mac_fanout": True}}, "protocol.mac_fanout"),
    ({"node_count": 4, "formation": {"max_degree": True}}, "formation.max_degree"),
    ({"node_count": 4, "formation": {"link_cost": True}}, "formation.link_cost"),
    ({"node_count": 4, "type_distribution": {"b": True}}, "type_distribution.b"),
]


@pytest.mark.parametrize("data,path", WRONG_TYPES, ids=[w[1] for w in WRONG_TYPES])
def test_wrong_type_names_its_path(data, path):
    with pytest.raises(ScenarioError) as exc:
        Scenario.from_dict(data)
    assert [f.split(":")[0] for f in exc.value.fields] == [path]


def built_in_code(data: dict) -> Scenario:
    """The scenario ``data`` describes, set field by field on a default
    ``Scenario`` as library code would, without ``from_dict``."""
    sc = Scenario()
    for name, value in data.items():
        if name == "apps":
            sc.apps = [AppSpec(**app) for app in value]
        elif is_dataclass(getattr(sc, name)):
            for key, item in value.items():
                setattr(getattr(sc, name), key, item)
        else:
            setattr(sc, name, value)
    return sc


@pytest.mark.parametrize("data,path", WRONG_TYPES, ids=[w[1] for w in WRONG_TYPES])
def test_wrong_type_in_a_library_scenario_names_its_path(data, path):
    with pytest.raises(ScenarioError) as exc:
        Simulation(built_in_code(data))
    assert [f.split(":")[0] for f in exc.value.fields] == [path]


def test_type_problems_join_the_unknown_fields_and_hide_range_problems():
    with pytest.raises(ScenarioError) as exc:
        Scenario.from_dict({"node_count": 4, "bogus": 1,
                            "protocol": {"quorum": "x", "extra": 2}})
    assert exc.value.fields == ["scenario: unknown fields ['bogus']",
                                "protocol: unknown fields ['extra']",
                                "protocol.quorum: expected float or int, got str"]
    with pytest.raises(ScenarioError) as exc:
        Simulation(Scenario(node_count="4", epochs=-1))
    assert exc.value.fields == ["node_count: expected int, got str"]


def test_int_fits_a_float_and_none_fits_an_optional():
    sc = Scenario.from_dict({"node_count": 4, "type_distribution": {"a": 1},
                             "protocol": {"hop_limit": None},
                             "compromise": {"fraction": 0},
                             "study": {"verifier_compromise_p": None}})
    assert sc.type_distribution == {"a": 1}
    assert sc.protocol.hop_limit is None


@pytest.mark.parametrize("name", ["smoke", "tampered_campaign", "community_study"])
def test_packaged_scenarios_load_unchanged(name):
    path = SCENARIOS / f"{name}.json"
    sc = Scenario.from_file(path)
    assert Scenario.from_dict(sc.to_dict()) == sc


def test_cli_run_reports_wrong_type(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"node_count": 4, "protocol": {"quorum": "0.5"}}))
    assert main(["run", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid scenario:")
    assert "protocol.quorum" in err


def test_cli_sweep_reports_wrong_type_in_grid(tmp_path, capsys):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"compromise.fraction": ["0.1"]}))
    assert main(["sweep", str(SCENARIOS / "tampered_campaign.json"),
                 "--grid", str(grid)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid scenario:")
    assert "compromise.fraction" in err

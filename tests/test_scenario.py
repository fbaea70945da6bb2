"""Scenario files: round trips, validation, parameter overrides."""

import json

import pytest

from vouchnet.errors import ScenarioError, UnknownParameterError
from vouchnet.scenario import AppSpec, Scenario, WorkloadSpec, apply_overrides


def small_scenario():
    return Scenario(seed=3, epochs=2, node_count=6, topology="complete",
                    apps=[AppSpec(name="lamp", version="1", payload_bytes=32)],
                    workload=WorkloadSpec(requests_per_epoch=1))


def test_default_scenario_validates():
    Scenario().validate()


def test_file_roundtrip(tmp_path):
    sc = small_scenario()
    sc.formation.max_degree = 8
    path = tmp_path / "scenario.json"
    sc.to_file(path)
    loaded = Scenario.from_file(path)
    assert loaded == sc
    assert json.loads(path.read_text())["schema"] == 1


def test_validation_collects_all_problems():
    sc = small_scenario()
    sc.epochs = -1
    sc.protocol.digest_width_bits = 160
    sc.protocol.quorum = 1.5
    sc.formation.leave_rate = 2.0
    with pytest.raises(ScenarioError) as exc:
        sc.validate()
    fields = "\n".join(exc.value.fields)
    assert "epochs" in fields
    assert "digest_width_bits" in fields
    assert "quorum" in fields
    assert "leave_rate" in fields
    assert len(exc.value.fields) == 4


def test_unknown_top_level_field_rejected():
    with pytest.raises(ScenarioError) as exc:
        Scenario.from_dict({"seed": 1, "epocs": 3})
    assert "epocs" in "\n".join(exc.value.fields)


def test_unknown_nested_field_rejected():
    with pytest.raises(ScenarioError):
        Scenario.from_dict({"protocol": {"digest_width": 224}})


def test_schema_version_checked():
    with pytest.raises(ScenarioError) as exc:
        Scenario.from_dict({"schema": 2})
    assert any("schema" in f for f in exc.value.fields)


def test_workload_references_known_apps():
    sc = small_scenario()
    sc.workload = WorkloadSpec(explicit=[{"epoch": 0, "requester": 1, "app": "nope@1"}])
    with pytest.raises(ScenarioError):
        sc.validate()


def test_complete_topology_needs_room_for_degrees():
    sc = small_scenario()
    sc.node_count = 20
    sc.formation.max_degree = 4
    with pytest.raises(ScenarioError) as exc:
        sc.validate()
    assert any("max_degree" in f for f in exc.value.fields)


def test_bad_json_file_reports_cleanly(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ScenarioError):
        Scenario.from_file(path)


def test_apply_overrides_known_paths():
    sc = small_scenario()
    sc.compromise.mix = {"free_rider": 1.0}
    out = apply_overrides(sc, {"compromise.fraction": 0.25, "seed": 99,
                               "protocol.quorum": 0.7})
    assert out.compromise.fraction == 0.25
    assert out.seed == 99
    assert out.protocol.quorum == 0.7
    assert sc.compromise.fraction == 0.0  # base untouched


def test_apply_overrides_unknown_path_raises():
    sc = small_scenario()
    with pytest.raises(UnknownParameterError):
        apply_overrides(sc, {"protocol.qurom": 0.7})
    with pytest.raises(UnknownParameterError):
        apply_overrides(sc, {"nonsense": 1})


def test_apply_overrides_result_is_validated():
    sc = small_scenario()
    with pytest.raises(ScenarioError):
        apply_overrides(sc, {"protocol.quorum": 3.0})


@pytest.mark.parametrize("scenario", [
    Scenario(node_count=3, initial_edges=[[True, 0]]),
    Scenario(node_count=3, apps=[AppSpec(name="lamp", version="1", holders=[True])]),
    Scenario(node_count=3, apps=[AppSpec(name="lamp", version="1")],
             workload=WorkloadSpec(explicit=[{"epoch": 0, "requester": True,
                                              "app": "lamp@1"}])),
], ids=["initial_edges", "holders", "explicit_requester"])
def test_a_bool_is_not_a_node_id(scenario):
    with pytest.raises(ScenarioError):
        scenario.validate()

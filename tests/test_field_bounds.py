"""Each single-field bound is declared on its field and checked by the walk
that checks types: a value just outside it is refused by exactly its path,
and a value at it validates and runs, from a dict and from library code.
Selector objects and explicit workload entries obey the same rules as every
other value, and a non-finite number is refused instead of crashing set-up."""

import dataclasses
import math
from typing import Annotated, get_args, get_origin, get_type_hints

import pytest

from test_scenario_types import built_in_code
from vouchnet import Simulation
from vouchnet.cli import main
from vouchnet.errors import ScenarioError
from vouchnet.scenario import Scenario

# (path, low, high): the closed interval each field declares, None for no top.
BOUNDS = [
    ("epochs", 0, None),
    ("node_count", 0, None),
    ("type_distribution.a", 0.0, None),
    ("formation.join_rate", 0.0, 1.0),
    ("formation.leave_rate", 0.0, 1.0),
    ("formation.severance_threshold", 0.0, 1.0),
    ("formation.proposals_per_round", 0, None),
    ("formation.max_degree", 1, None),
    ("formation.supernode_count", 0, None),
    ("formation.link_cost", 0.0, None),
    ("protocol.mac_fanout", 1, None),
    ("protocol.min_key_bits", 8, None),
    ("protocol.hop_limit", 1, None),
    ("apps[0].payload_bytes", 0, None),
    ("workload.requests_per_epoch", 0, None),
    ("old_devices.fraction", 0.0, 1.0),
    ("old_devices.key_bits", 8, None),
    ("study.verifier_compromise_p", 0.0, 1.0),
]


def scenario_with(path: str, value) -> dict:
    """A small runnable scenario with ``value`` at ``path``."""
    data = {"node_count": 4, "epochs": 1, "type_distribution": {"a": 1.0, "b": 1.0},
            "apps": [{"name": "maps"}], "workload": {"requests_per_epoch": 1}}
    *sections, leaf = path.replace("[0]", "").split(".")
    node = data
    for section in sections:
        node = node[section][0] if section == "apps" else node.setdefault(section, {})
    node[leaf] = value
    return data


def step(value, direction: float):
    """The nearest value of ``value``'s type past it in ``direction``."""
    if isinstance(value, float):
        return math.nextafter(value, direction * math.inf)
    return value + int(direction)


def cases(outside: bool) -> list:
    rows = []
    for path, low, high in BOUNDS:
        for end, direction in ((low, -1.0), (high, 1.0)):
            if end is not None:
                value = step(end, direction) if outside else end
                rows.append(pytest.param(path, value, id=f"{path}={value}"))
    return rows


@pytest.mark.parametrize("path, value", cases(outside=True))
def test_a_value_just_outside_a_bound_names_exactly_its_path(path, value):
    data = scenario_with(path, value)
    with pytest.raises(ScenarioError) as exc:
        Scenario.from_dict(data)
    assert [f.split(":")[0] for f in exc.value.fields] == [path]
    with pytest.raises(ScenarioError) as exc:
        Simulation(built_in_code(data))
    assert [f.split(":")[0] for f in exc.value.fields] == [path]


@pytest.mark.parametrize("path, value", cases(outside=False))
def test_a_value_at_a_bound_validates_and_runs(path, value):
    data = scenario_with(path, value)
    Simulation(Scenario.from_dict(data)).run()
    Simulation(built_in_code(data)).run()


def test_a_bound_is_reported_in_one_format():
    with pytest.raises(ScenarioError) as exc:
        Scenario.from_dict(scenario_with("formation.join_rate", 1.5))
    assert exc.value.fields == ["formation.join_rate: 1.5 outside [0.0, 1.0]"]
    with pytest.raises(ScenarioError) as exc:
        Scenario.from_dict(scenario_with("apps[0].payload_bytes", -1))
    assert exc.value.fields == ["apps[0].payload_bytes: -1 outside [0, inf]"]


def declared_bounds(cls, prefix: str = "") -> list[tuple[str, object, object]]:
    """Every ``Annotated`` bound under spec ``cls``, by path."""
    found = []
    for name, hint in get_type_hints(cls, include_extras=True).items():
        path = prefix + name
        if get_origin(hint) is dict:
            hint, path = get_args(hint)[1], path + ".a"
        if get_origin(hint) is list and dataclasses.is_dataclass(get_args(hint)[0]):
            found += declared_bounds(get_args(hint)[0], path + "[0].")
        elif dataclasses.is_dataclass(hint):
            found += declared_bounds(hint, path + ".")
        elif get_origin(hint) is Annotated:
            found.append((path, *get_args(hint)[1:]))
    return found


def test_the_table_is_every_declared_bound():
    assert sorted(declared_bounds(Scenario)) == sorted(BOUNDS)


def test_an_infinite_weight_is_refused_not_a_set_up_crash(tmp_path, capsys):
    data = {"node_count": 4, "type_distribution": {"a": math.inf, "b": 1}}
    for build in (Scenario.from_dict, lambda d: Simulation(built_in_code(d))):
        with pytest.raises(ScenarioError) as exc:
            build(data)
        assert exc.value.fields == ["type_distribution.a: expected a finite number, got inf"]
    path = tmp_path / "scenario.json"
    path.write_text('{"node_count": 4, "type_distribution": {"a": Infinity, "b": 1}}')
    assert main(["run", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid scenario: type_distribution.a")
    assert "Traceback" not in err


def with_app(**fields) -> dict:
    return {"node_count": 4, "apps": [{"name": "maps", **fields}]}


EXPLICIT = {"epoch": 0, "requester": 1, "app": "maps@1"}

SELECTOR_AND_ENTRY_RULES = [
    (with_app(holders={"fraction": True}),
     "apps.maps.holders: bad fraction {'fraction': True}"),
    (with_app(tampered_holders={"fraction": False}),
     "apps.maps.tampered_holders: bad fraction {'fraction': False}"),
    (with_app(holders={"fraction": float("nan")}),
     "apps.maps.holders: bad fraction {'fraction': nan}"),
    (with_app(holders={"fraction": 0.5, "share": 2}),
     "apps.maps.holders: unknown fields ['share']"),
    (with_app(tampered_holders={"fraction": 0.5, "share": 2}),
     "apps.maps.tampered_holders: unknown fields ['share']"),
    ({**with_app(), "workload": {"explicit": [EXPLICIT, {**EXPLICIT, "requestor": 2}]}},
     "workload.explicit[1]: unknown fields ['requestor']"),
    ({**with_app(), "workload": {"explicit": [{**EXPLICIT, "epoch": True}]}},
     "workload.explicit: bad entry {'epoch': True, 'requester': 1, 'app': 'maps@1'}"),
]


@pytest.mark.parametrize("data, message", SELECTOR_AND_ENTRY_RULES,
                         ids=["holders-true", "tampered-false", "holders-nan", "holders-extra",
                              "tampered-extra", "explicit-extra", "explicit-bool-epoch"])
def test_selectors_and_explicit_entries_obey_the_value_rules(data, message):
    with pytest.raises(ScenarioError) as exc:
        Scenario.from_dict(data)
    assert exc.value.fields == [message]
    with pytest.raises(ScenarioError) as exc:
        Simulation(built_in_code(data))
    assert exc.value.fields == [message]

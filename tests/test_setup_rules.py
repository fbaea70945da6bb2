"""Scenario set-up rules: the seed a run reports, the type allocation, the
validation of pre-tampered holder lists, the compromise rules and the
degree cap on initial edges."""

import json
from collections import Counter
from pathlib import Path

import pytest

from vouchnet import Simulation
from vouchnet.cli import main
from vouchnet.errors import ScenarioError
from vouchnet.scenario import AppSpec, Scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def test_run_reports_the_seed_it_used():
    smoke = Scenario.from_file(SCENARIOS / "smoke.json")
    _, report = Simulation(smoke, seed=123).run()
    assert report.parameters["seed"] == 123
    _, report = Simulation(smoke).run()
    assert report.parameters["seed"] == smoke.seed


def test_cli_run_line_records_the_override(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["run", str(SCENARIOS / "smoke.json"), "--seed", "123", "--out", str(out)]) == 0
    capsys.readouterr()
    run_line = json.loads((out / "metrics.jsonl").read_text().splitlines()[0])
    assert run_line["type"] == "run"
    assert run_line["parameters"]["seed"] == 123


@pytest.mark.parametrize("distribution, n, expected", [
    ({"a": 0.34, "b": 0.66}, 10, {"a": 3, "b": 7}),
    ({"a": 0.71, "b": 0.29}, 100, {"a": 71, "b": 29}),
    # Equal remainders: the leftover goes to the smaller label.
    ({"a": 1.0, "b": 1.0, "c": 1.0}, 10, {"a": 4, "b": 3, "c": 3}),
    ({"b": 0.5, "a": 0.5}, 7, {"a": 4, "b": 3}),
])
def test_type_allocation_is_largest_remainder(distribution, n, expected):
    sim = Simulation(Scenario(node_count=n, type_distribution=distribution))
    assert Counter(p.node_type for p in sim.graph.nodes.values()) == expected
    # Ids are handed out in label order.
    types = [sim.graph.nodes[i].node_type for i in range(n)]
    assert types == sorted(types)


@pytest.mark.parametrize("tampered", [[99], [99, "x"], [-1], ["0"]])
def test_tampered_holder_ids_must_be_node_ids(tampered):
    sc = Scenario(node_count=4, apps=[AppSpec(name="maps", tampered_holders=tampered)])
    with pytest.raises(ScenarioError, match=r"apps\.maps\.tampered_holders: ids out of range"):
        sc.validate()
    with pytest.raises(ScenarioError):
        Simulation(sc)


def test_tampered_holders_must_be_a_list_or_fraction():
    sc = Scenario(node_count=4, apps=[AppSpec(name="maps", tampered_holders="all")])
    with pytest.raises(ScenarioError, match="expected list or fraction"):
        sc.validate()


COMPROMISE_RULES = [
    ({"fraction": 1.5, "mix": {"free_rider": 1.0}}, "compromise.fraction"),
    ({"fraction": 0.5, "mix": {"store_blocker": 1.0}}, "compromise.mix"),
    ({"fraction": 0.5, "mix": {"honest": 1.0}}, "compromise.mix"),
    ({"fraction": 0.5, "mix": {"free_rider": 1.5, "lying_verifier": -0.5}},
     "compromise.mix.lying_verifier"),
    ({"fraction": 0.5, "mix": {}}, "compromise.mix"),
    # A mix that does not sum to 1 is refused even when no node is drawn.
    ({"fraction": 0.0, "mix": {"free_rider": 0.5}}, "compromise.mix"),
    ({"fraction": 0.5, "mix": {"free_rider": 0.5}}, "compromise.mix"),
]


@pytest.mark.parametrize("compromise, path", COMPROMISE_RULES,
                         ids=["fraction", "unknown", "honest", "negative", "empty",
                              "sum-at-zero", "sum"])
def test_each_compromise_rule_names_its_path(compromise, path):
    with pytest.raises(ScenarioError) as exc:
        Scenario.from_dict({"node_count": 4, "compromise": compromise})
    assert [f.split(":")[0] for f in exc.value.fields] == [path]


def test_initial_edges_over_the_degree_cap_are_refused():
    data = {"node_count": 3, "formation": {"max_degree": 1},
            "initial_edges": [[0, 1], [0, 2]]}
    with pytest.raises(ScenarioError, match=r"initial_edges: nodes \[0\] would exceed"):
        Scenario.from_dict(data)
    # A link listed in both directions is one link.
    data["initial_edges"] = [[0, 1], [1, 0]]
    sim = Simulation(Scenario.from_dict(data))
    assert sim.graph.edges() == [(0, 1)]

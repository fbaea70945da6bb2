"""Whole-run invariants of the community after a simulation ends."""

from pathlib import Path

import pytest

from test_engine import rich_scenario
from vouchnet import Simulation, apply_overrides
from vouchnet.scenario import Scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def community_study(overrides: dict) -> Scenario:
    return apply_overrides(Scenario.from_file(SCENARIOS / "community_study.json"), overrides)


RUNS = {
    "rich": rich_scenario,
    "community_study": lambda: community_study({}),
    "community_study_n400": lambda: community_study(
        {"node_count": 400, "epochs": 10, "workload.requests_per_epoch": 20, "seed": 7}),
}


@pytest.fixture(scope="module", params=sorted(RUNS))
def sim(request) -> Simulation:
    simulation = Simulation(RUNS[request.param]())
    simulation.run()
    return simulation


def test_degree_within_cap(sim):
    graph = sim.graph
    over = [n for n in graph.node_ids() if graph.degree(n) > graph.nodes[n].max_degree]
    assert over == []


def test_both_ends_of_an_edge_share_one_key(sim):
    stores = sim.graph.keystores
    for a, b in sim.graph.edges():
        assert stores[a][b] == stores[b][a], (a, b)


def test_ledgers_cover_live_peers_only(sim):
    live = set(sim.graph.nodes)
    assert set(sim.ledgers) == live
    stale = {owner: sorted(set(ledger.known_peers()) - live)
             for owner, ledger in sim.ledgers.items()}
    assert {owner: peers for owner, peers in stale.items() if peers} == {}

"""Parameter sweeps over the simulator."""

import math
import sys

import pytest

from vouchnet import sweep
from vouchnet.engine import run
from vouchnet.errors import ScenarioError, UnknownParameterError
from vouchnet.rng import derive_seed
from vouchnet.scenario import AppSpec, Scenario, WorkloadSpec


def tiny_scenario() -> Scenario:
    sc = Scenario(seed=5, epochs=2, node_count=6, topology="complete",
                  apps=[AppSpec(name="maps", payload_bytes=32)],
                  workload=WorkloadSpec(requests_per_epoch=2))
    sc.formation.max_degree = 12
    return sc


def test_unknown_grid_path_rejected():
    with pytest.raises(UnknownParameterError):
        sweep(tiny_scenario(), {"protocol.nope": [1, 2]})


def test_grid_values_must_be_nonempty_lists():
    with pytest.raises(UnknownParameterError):
        sweep(tiny_scenario(), {"protocol.quorum": []})
    with pytest.raises(UnknownParameterError):
        sweep(tiny_scenario(), {"protocol.quorum": 0.7})


def test_bad_value_at_a_later_point_fails_before_any_run(monkeypatch):
    # `vouchnet.sweep` is the function; its module holds the `run` it calls.
    module = sys.modules["vouchnet.sweep"]
    calls = []

    def recording_run(scenario, seed=None):
        calls.append(seed)
        return run(scenario, seed=seed)

    monkeypatch.setattr(module, "run", recording_run)
    base = tiny_scenario()
    base.compromise.mix = {"tampered_server": 1.0}
    with pytest.raises(ScenarioError):
        sweep(base, {"compromise.fraction": [0.1, 1.5]}, seeds_per_point=3)
    assert calls == []


def test_seeds_per_point_must_be_positive():
    with pytest.raises(UnknownParameterError):
        sweep(tiny_scenario(), {}, seeds_per_point=0)


def test_empty_grid_runs_base_once():
    base = tiny_scenario()
    rows = sweep(base, {})
    assert len(rows) == 1
    row = rows[0]
    assert row["runs"] == 1
    _, report = run(base, seed=derive_seed(base.seed, "sweep", 0, 0))
    totals = report.totals()
    assert row["retrievals"] == totals["retrievals"]
    assert row["mean_total_bits"] == totals["total_bits"]


def test_cross_product_rows_in_sorted_key_order():
    rows = sweep(tiny_scenario(), {"protocol.quorum": [0.5, 0.7],
                                   "epochs": [1, 2]})
    assert len(rows) == 4
    points = [(r["epochs"], r["protocol.quorum"]) for r in rows]
    assert points == [(1, 0.5), (1, 0.7), (2, 0.5), (2, 0.7)]
    for row in rows:
        for key in ("runs", "retrievals", "acceptance_rate",
                    "tampered_acceptance_rate", "mean_final_infections",
                    "mean_total_bits", "mean_final_homophily"):
            assert key in row


def test_sweep_is_deterministic():
    grid = {"protocol.quorum": [0.5, 0.7]}
    assert sweep(tiny_scenario(), grid, 2) == sweep(tiny_scenario(), grid, 2)


def test_tampered_acceptance_grows_with_compromise_fraction():
    # Static ring, one-hop polls, store outage: acceptance of a campaign
    # copy needs both polled neighbors to serve the same corrupted variant,
    # which gets more likely as the compromised share grows.
    n = 15
    sc = Scenario(seed=42, epochs=4, node_count=n, topology="none",
                  initial_edges=[[i, (i + 1) % n] for i in range(n)],
                  apps=[AppSpec(name="maps", payload_bytes=32)],
                  workload=WorkloadSpec(requests_per_epoch=5),
                  store_blocked=True)
    sc.formation.proposals_per_round = 0
    sc.protocol.hop_limit = 1
    sc.protocol.mac_fanout = 2
    sc.compromise.mix = {"tampered_server": 1.0}
    rows = sweep(sc, {"compromise.fraction": [0.0, 0.2, 0.4]}, seeds_per_point=10)
    rates = [r["tampered_acceptance_rate"] for r in rows]
    assert rates[0] == 0.0
    assert rates[0] <= rates[1] <= rates[2]
    assert rates[2] > rates[0]


def test_quorum_sweep_tracks_binomial_tail():
    # With vote binding off, in-flight substitution, and each of the 10
    # MAC'd verifiers lying positive independently with p=0.3, a tampered
    # delivery is accepted exactly when Bin(10, 0.3) exceeds the quorum.
    sc = Scenario(seed=24, epochs=10, node_count=12, topology="complete",
                  apps=[AppSpec(name="maps", payload_bytes=32)],
                  workload=WorkloadSpec(requests_per_epoch=20))
    sc.formation.max_degree = 24
    sc.protocol.mac_fanout = 10
    sc.protocol.vote_binding = False
    sc.study.delivery_substitution = True
    sc.study.verifier_compromise_p = 0.3
    rows = sweep(sc, {"protocol.quorum": [0.5, 0.7]}, seeds_per_point=5)

    def tail_above(k: int, p: float, thresh: float) -> float:
        return sum(math.comb(k, i) * p**i * (1 - p)**(k - i)
                   for i in range(k + 1) if i > thresh)

    for row in rows:
        trials = row["retrievals"]
        assert trials == 1000
        exact = tail_above(10, 0.3, row["protocol.quorum"] * 10)
        se = math.sqrt(exact * (1 - exact) / trials)
        assert abs(row["tampered_acceptance_rate"] - exact) <= 3 * se
    assert rows[0]["tampered_acceptance_rate"] > rows[1]["tampered_acceptance_rate"]

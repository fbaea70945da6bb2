"""End-to-end behavior of the simulation engine."""

import csv
import json
from pathlib import Path

import pytest

from vouchnet import Behavior, Simulation, apply_overrides, run
from vouchnet.apps import AppId
from vouchnet.events import (
    EV_CALL_OUT,
    EV_DECISION,
    EV_INSTALL,
    EV_JOIN,
    EV_LEAVE,
    EV_OLD_FILTERED,
    EV_SOURCE,
    EV_STORE_FETCH,
    EV_STORE_REFRESH,
    EV_VERIFY_REQ,
    EV_VOTE,
)
from vouchnet.messages import (
    REASON_FINGERPRINT,
    REASON_NO_REPLIES,
    REASON_NO_VERIFIERS,
    REASON_QUORUM,
)
from vouchnet.metrics import EpochMetrics
from vouchnet.rng import derive_rng
from vouchnet.scenario import AppSpec, Scenario, WorkloadSpec

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def base_scenario(**kw) -> Scenario:
    sc = Scenario(
        seed=7,
        epochs=1,
        node_count=8,
        topology="complete",
        apps=[AppSpec(name="maps", version="2", payload_bytes=64)],
        workload=WorkloadSpec(explicit=[{"epoch": 0, "requester": 0, "app": "maps@2"}]),
    )
    sc.formation.max_degree = 16
    for k, v in kw.items():
        setattr(sc, k, v)
    return sc


def rich_scenario() -> Scenario:
    """Exercises churn, compromise, old devices, and random workload."""
    sc = Scenario(
        seed=99,
        epochs=4,
        node_count=12,
        topology="complete",
        type_distribution={"phone": 0.5, "hub": 0.5},
        apps=[AppSpec(name="maps", payload_bytes=64),
              AppSpec(name="cam", payload_bytes=32, holders={"fraction": 0.75})],
    )
    sc.formation.max_degree = 24
    sc.formation.join_rate = 0.5
    sc.formation.leave_rate = 0.1
    sc.compromise.fraction = 0.25
    sc.compromise.mix = {"free_rider": 0.5, "tampered_server": 0.5}
    sc.old_devices.fraction = 0.2
    sc.workload.requests_per_epoch = 3
    return sc


# -- determinism -----------------------------------------------------------


def test_same_seed_same_log():
    sc = rich_scenario()
    log_a, rep_a = run(sc)
    log_b, rep_b = run(sc)
    assert log_a.canonical_bytes() == log_b.canonical_bytes()
    assert log_a.digest() == log_b.digest()
    assert rep_a.log_digest == rep_b.log_digest
    assert rep_a.totals() == rep_b.totals()


def test_seed_override_changes_log():
    sc = rich_scenario()
    log_a, _ = run(sc)
    log_b, _ = run(sc, seed=100)
    assert log_a.digest() != log_b.digest()


# The full log digest of each packaged scenario, and of community_study
# scaled to 400 nodes. A change that moves one of these changes behaviour
# and has to say so.
PACKAGED_DIGESTS = {
    "smoke": "63704c5986e1dcba4f934dcc76ae14b0621a4061f47e1fd8ab104028",
    "tampered_campaign": "4184597b4e866e82eb5e0c080e9ff81a3a8d9029f81bfe7bae3b389f",
    "community_study": "de8eff3532e0914472f6cf43ea104e440ab5bbd8cbd8164d9bdce64a",
}


@pytest.mark.parametrize("name", sorted(PACKAGED_DIGESTS))
def test_packaged_scenario_digest_pinned(name):
    _, report = run(Scenario.from_file(SCENARIOS / f"{name}.json"))
    assert report.log_digest == PACKAGED_DIGESTS[name]


def test_community_study_at_400_nodes_digest_pinned():
    base = Scenario.from_file(SCENARIOS / "community_study.json")
    scenario = apply_overrides(base, {"node_count": 400, "epochs": 10,
                                      "workload.requests_per_epoch": 20, "seed": 7})
    _, report = run(scenario)
    assert report.log_digest == "ddad2d37594aa4dcef044e3d4e3ac7cc089641d751380fa4bac9bc46"


def test_zero_epochs_logs_nothing():
    sc = base_scenario(epochs=0, workload=WorkloadSpec())
    log, report = run(sc)
    assert len(log) == 0
    assert report.epochs == []
    assert report.totals()["retrievals"] == 0
    assert report.acceptance_rate() is None


# -- the happy path ----------------------------------------------------------


def test_all_honest_retrieval_accepts_clean_copy():
    log, report = run(base_scenario())
    votes = log.by_kind(EV_VOTE)
    assert len(votes) == 1
    assert votes[0].data["unanimous"] == "True"
    assert votes[0].data["dissenters"] == ""
    decisions = log.by_kind(EV_DECISION)
    assert decisions[-1].data["accepted"] == "True"
    assert decisions[-1].data["reason"] == REASON_QUORUM
    installs = log.by_kind(EV_INSTALL)
    assert installs[-1].data["node"] == "0"
    assert installs[-1].data["origin"] == "store"
    totals = report.totals()
    assert totals["accepted"] == 1
    assert totals["notices"] == 0
    assert totals["tampered_accepted"] == 0
    assert totals["final_infections"] == 0


def test_overhead_matches_closed_form():
    # 11-node complete graph: 10 responders, 10 MAC'd verifiers, all answer.
    sc = base_scenario(node_count=11)
    _, report = run(sc)
    rec = report.overhead[0]
    assert rec.responders == 10
    assert rec.reply_bits == 10 * 224
    assert rec.mac_bits == 10 * 224
    assert rec.verify_bits == 2 * 10 * 224
    assert rec.total_bits == 4 * 10 * 224
    assert rec.payload_bytes == 64


def test_log_bits_equal_overhead_bits():
    log, report = run(rich_scenario())
    assert sum(r.bits for r in log.records) == sum(o.total_bits for o in report.overhead)
    # every costed event belongs to exactly one retrieval
    for record in log.records:
        if record.bits:
            assert record.retrieval is not None


def test_retrieval_events_partition_by_retrieval_id():
    sim = Simulation(rich_scenario())
    log, report = sim.run()
    for trace, rec in zip(sim.traces, report.overhead):
        assert trace.retrieval == rec.retrieval
        assert all(e.retrieval == trace.retrieval for e in trace.events)
        assert sum(e.bits for e in trace.events) == rec.total_bits


# -- filtering and rounds ----------------------------------------------------


def test_old_devices_cannot_vote_or_serve():
    sc = base_scenario(node_count=10)
    sc.old_devices.fraction = 0.4
    sc.epochs = 2
    sc.workload.requests_per_epoch = 3
    sim = Simulation(sc)
    log, report = sim.run()
    old_ids = {str(i) for i in sim.graph.node_ids()
               if sim.graph.nodes[i].key_length_bits < sc.protocol.min_key_bits}
    assert len(old_ids) == 4
    filtered = log.by_kind(EV_OLD_FILTERED)
    assert filtered and all(e.data["responder"] in old_ids for e in filtered)
    for vote in log.by_kind(EV_VOTE):
        voters = set(vote.data["supporters"].split("+"))
        assert not voters & old_ids
    for source in log.by_kind(EV_SOURCE):
        assert source.data["source"] not in old_ids


def test_round_numbers_increase_per_requester():
    sc = base_scenario()
    sc.workload.explicit = [
        {"epoch": 0, "requester": 3, "app": "maps@2"},
        {"epoch": 0, "requester": 3, "app": "maps@2"},
        {"epoch": 0, "requester": 5, "app": "maps@2"},
    ]
    log, _ = run(sc)
    rounds = [(e.data["requester"], e.data["round"]) for e in log.by_kind(EV_CALL_OUT)]
    assert rounds == [("3", "1"), ("3", "2"), ("5", "1")]


# -- dissent, notices, store refresh -----------------------------------------


def infected_minority_scenario(store_blocked: bool) -> Scenario:
    sc = base_scenario(node_count=6, epochs=2, store_blocked=store_blocked)
    sc.apps[0].tampered_holders = [2]
    return sc


def test_dissenter_is_flagged_then_refreshed_from_store():
    log, report = run(infected_minority_scenario(store_blocked=False))
    refreshes = log.by_kind(EV_STORE_REFRESH)
    assert len(refreshes) == 1
    assert refreshes[0].data["node"] == "2"
    assert report.totals()["notices"] == 1
    assert report.totals()["false_accusations"] == 0
    assert report.epochs[-1].infections == 0


def test_blocked_store_leaves_flagged_copy_in_place():
    log, report = run(infected_minority_scenario(store_blocked=True))
    assert log.by_kind(EV_STORE_REFRESH) == []
    assert report.totals()["notices"] == 1
    assert report.epochs[-1].infections == 1


def test_minority_infection_never_spreads():
    sc = base_scenario(node_count=10, epochs=6, store_blocked=True)
    sc.apps[0].tampered_holders = {"fraction": 0.3}
    sc.workload = WorkloadSpec(requests_per_epoch=4)
    _, report = run(sc)
    counts = [row.infections for row in report.epochs]
    assert counts[0] <= 3
    assert all(a >= b for a, b in zip(counts, counts[1:]))
    assert report.totals()["tampered_accepted"] == 0


def test_epoch_infections_count_every_tampered_install():
    sc = rich_scenario()
    sc.epochs = 6
    sc.apps[0].tampered_holders = {"fraction": 0.3}
    sc.apps[1].tampered_holders = {"fraction": 0.3}
    sim = Simulation(sc)
    counts = []
    for epoch in range(sc.epochs):
        sim._run_epoch(epoch)
        direct = sum(1 for _, package in sim.installs.entries() if package.is_tampered)
        assert sim.epoch_rows[-1].infections == direct
        counts.append(direct)
    assert max(counts) > 0 and len(set(counts)) > 1, counts


def test_compromised_majority_accuses_the_honest_holder():
    # Three of five nodes serve one tampered copy; honest node 1 asks.
    sc = base_scenario(seed=1, node_count=5)
    sc.formation.proposals_per_round = 0
    sc.compromise.fraction = 0.6
    sc.compromise.mix = {"tampered_server": 1.0}
    sc.workload.explicit = [{"epoch": 0, "requester": 1, "app": "maps@2"}]
    sim = Simulation(sc)
    assert 1 not in sim.behaviors
    _, report = sim.run()
    (row,) = report.epochs
    counts = (row.notices, row.false_accusations, row.tampered_accepted)
    assert counts == (1, 1, 1)
    totals = report.totals()
    assert (totals["notices"], totals["false_accusations"], totals["tampered_accepted"]) == counts


# -- adversaries through the full stack ---------------------------------------


def test_swapper_source_is_caught_by_digest_binding():
    sc = base_scenario(node_count=3)
    sc.apps[0].holders = [2]
    sc.compromise.fraction = 1.0
    sc.compromise.mix = {"tocttou_swapper": 1.0}
    log, report = run(sc)
    decision = log.by_kind(EV_DECISION)[-1]
    assert decision.data["accepted"] == "False"
    assert decision.data["reason"] == REASON_FINGERPRINT
    assert log.by_kind(EV_VERIFY_REQ) == []  # rejected before polling anyone
    assert report.totals()["tocttou_rejections"] == 1
    assert report.totals()["tampered_accepted"] == 0
    # requester recovered from the store instead
    fetches = log.by_kind(EV_STORE_FETCH)
    assert fetches and fetches[0].data["node"] == "0"
    assert report.epochs[-1].infections == 1  # the swapper's own copy


def test_swapper_re_macs_under_the_scenario_key_floor():
    # Every link key is 64 bits, which the scenario allows; the swapper's
    # re-MAC must allow it too instead of applying the library's 128.
    sc = Scenario.from_dict({
        "seed": 1, "node_count": 3, "topology": "complete",
        "protocol": {"min_key_bits": 64},
        "old_devices": {"fraction": 1.0, "key_bits": 64},
        "compromise": {"fraction": 0.4, "mix": {"tocttou_swapper": 1.0}},
        "apps": [{"name": "a", "holders": [0]}],
        "workload": {"explicit": [{"epoch": 0, "requester": 1, "app": "a@1"}]},
    })
    sim = Simulation(sc)
    assert sim.behaviors == {0: Behavior.TOCTTOU_SWAPPER}
    _, report = sim.run()
    (trace,) = sim.traces
    assert trace.reason == REASON_FINGERPRINT
    assert not trace.infected_install
    assert report.totals()["tampered_accepted"] == 0


def test_substitution_rejected_when_delivery_bound_to_vote():
    sc = base_scenario(node_count=6)
    sc.study.delivery_substitution = True
    _, report = run(sc)
    assert report.totals()["tocttou_rejections"] == 1
    assert report.totals()["tampered_accepted"] == 0


def test_substitution_slips_through_without_binding_and_lying_verifiers():
    sc = base_scenario(node_count=6)
    sc.study.delivery_substitution = True
    sc.study.verifier_compromise_p = 1.0
    sc.protocol.vote_binding = False
    _, report = run(sc)
    assert report.totals()["tampered_accepted"] == 1
    assert report.epochs[-1].infections == 1


def test_unreachable_verifiers_fall_back_to_store():
    # 0 -- 1 -- 2 chain; node 1 is then downgraded so the only key node 2
    # shares is too weak to MAC through.
    sc = Scenario(seed=3, epochs=1, node_count=3, topology="none",
                  initial_edges=[[0, 1], [1, 2]],
                  apps=[AppSpec(name="maps", version="2", holders=[2])],
                  workload=WorkloadSpec(explicit=[
                      {"epoch": 0, "requester": 0, "app": "maps@2"}]))
    sc.formation.proposals_per_round = 0  # keep the chain as built
    sim = Simulation(sc)
    sim.graph.remove_edge(1, 2)
    sim.graph.nodes[1].key_length_bits = 64
    sim.graph.add_edge(1, 2, derive_rng(123, "rewire"))
    log, report = sim.run()
    decision = log.by_kind(EV_DECISION)[-1]
    assert decision.data["reason"] == REASON_NO_VERIFIERS
    fetches = log.by_kind(EV_STORE_FETCH)
    assert fetches and fetches[0].data["node"] == "0"
    assert report.totals()["accepted"] == 0


# -- trust trajectories --------------------------------------------------------


def test_free_riders_lose_response_trust():
    sc = base_scenario(node_count=10, epochs=5, record_trust=True)
    sc.compromise.fraction = 0.2
    sc.compromise.mix = {"free_rider": 1.0}
    sc.workload = WorkloadSpec(requests_per_epoch=3)
    sim = Simulation(sc)
    _, report = sim.run()
    riders = {n for n, b in sim.behaviors.items() if b is Behavior.FREE_RIDER}
    assert len(riders) == 2
    last_epoch = report.epochs[-1].epoch
    finals = [s for s in report.trust if s.epoch == last_epoch]
    rider_samples = [s for s in finals if s.peer in riders]
    honest_samples = [s for s in finals if s.peer not in riders]
    assert rider_samples and honest_samples
    assert all(s.resp_prob < 0.5 for s in rider_samples)
    assert all(s.resp_prob > 0.5 for s in honest_samples)


# -- population dynamics -------------------------------------------------------


def test_churn_events_match_epoch_counters():
    sc = Scenario(seed=11, epochs=5, node_count=8, topology="none")
    sc.formation.join_rate = 1.0
    sc.formation.leave_rate = 0.2
    log, report = run(sc)
    assert len(log.by_kind(EV_JOIN)) == sum(r.joins for r in report.epochs)
    assert len(log.by_kind(EV_LEAVE)) == sum(r.leaves for r in report.epochs)
    assert report.epochs[-1].nodes == 8 + sum(r.joins - r.leaves for r in report.epochs)


def test_supernode_designation_in_engine():
    sc = Scenario(seed=5, epochs=3, node_count=12, topology="none",
                  type_distribution={"a": 0.5, "b": 0.5})
    sc.formation.proposals_per_round = 3
    sc.formation.supernode_count = 1
    sim = Simulation(sc)
    sim.run()
    raised = [n for n in sim.graph.node_ids()
              if sim.graph.nodes[n].max_degree > sim.graph.nodes[n].base_max_degree]
    assert len(raised) == 1


# -- report plumbing -----------------------------------------------------------


def test_report_carries_digest_and_assumptions():
    sc = base_scenario()
    log, report = run(sc)
    assert report.log_digest == log.digest().hex()
    assert report.parameters["seed"] == sc.seed
    assert report.assumptions
    lines = report.jsonl_lines()
    assert lines[0].startswith('{"')
    assert any('"type": "epoch"' in ln for ln in lines)


def test_epoch_without_edges_reports_no_homophily(tmp_path):
    # No initial links, and every link would cost more than it brings.
    sc = base_scenario(topology="none", epochs=2)
    sc.formation.link_cost = 10.0
    sim = Simulation(sc)
    _, report = sim.run()
    assert [t.reason for t in sim.traces] == [REASON_NO_REPLIES]
    assert [row.edges for row in report.epochs] == [0, 0]
    assert [row.homophily for row in report.epochs] == [None, None]
    report.write(tmp_path)
    with open(tmp_path / "epochs.csv", newline="", encoding="utf-8") as fh:
        assert [row["homophily"] for row in csv.DictReader(fh)] == ["", ""]
    summary = json.loads((tmp_path / "summary.json").read_text(encoding="utf-8"))
    assert "final_homophily" in summary and summary["final_homophily"] is None


def test_direct_retrieval_requires_valid_scenario():
    sc = base_scenario()
    sc.protocol.quorum = 1.5
    with pytest.raises(Exception):
        Simulation(sc)


def test_execute_retrieval_usable_directly():
    sim = Simulation(base_scenario(workload=WorkloadSpec()))
    row = EpochMetrics(epoch=0)
    trace = sim.execute_retrieval(0, 4, AppId("maps", "2"), row)
    assert trace.accepted
    assert row.retrievals == 1
    assert trace.responders == 7

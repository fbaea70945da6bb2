"""Every retrieval ends in exactly one of six ways, and the event log,
the trace and the epoch counters agree on which and on what it did."""

from collections import Counter, defaultdict
from functools import cache
from pathlib import Path

import pytest

from test_engine import rich_scenario
from test_reply_scoring import connected_scenario
from vouchnet import Simulation
from vouchnet.apps import ORIGIN_TAMPERED, AppId
from vouchnet.events import (
    EV_DECISION,
    EV_INSTALL,
    EV_NOTICE,
    EV_OLD_FILTERED,
    EV_STORE_FETCH,
    EV_VOTE,
)
from vouchnet.messages import (
    REASON_FINGERPRINT,
    REASON_INSUFFICIENT,
    REASON_NO_VERIFIERS,
    REASON_QUORUM,
)
from vouchnet.scenario import AppSpec, Scenario, WorkloadSpec

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

UNDECIDED = {"no-replies", "vote-tie"}
OUTCOMES = UNDECIDED | {REASON_NO_VERIFIERS, REASON_FINGERPRINT,
                        REASON_INSUFFICIENT, REASON_QUORUM}



def hostile_scenario(store_blocked: bool) -> Scenario:
    """A sparse graph with every adversary and many weak keys, so votes,
    deliveries and verifications fail in every way but a tie."""
    sc = Scenario(seed=5, epochs=6, node_count=12, store_blocked=store_blocked,
                  apps=[AppSpec(name="maps", payload_bytes=64),
                        AppSpec(name="cam", payload_bytes=32, holders={"fraction": 0.5})],
                  workload=WorkloadSpec(requests_per_epoch=6))
    sc.formation.max_degree = 3
    sc.formation.join_rate = 0.5
    sc.formation.leave_rate = 0.1
    sc.protocol.mac_fanout = 4
    sc.old_devices.fraction = 0.4
    sc.compromise.fraction = 0.5
    sc.compromise.mix = {"free_rider": 0.25, "tampered_server": 0.25,
                         "tocttou_swapper": 0.25, "lying_verifier": 0.25}
    return sc


RUNS = {
    "rich": rich_scenario,
    "hostile": lambda: hostile_scenario(store_blocked=False),
    "hostile_store_blocked": lambda: hostile_scenario(store_blocked=True),
    **{name: (lambda name=name: Scenario.from_file(SCENARIOS / f"{name}.json"))
       for name in ("smoke", "tampered_campaign", "community_study")},
}
COUNTED_RUNS = {**RUNS, "connected": connected_scenario}


@cache
def simulate(name: str) -> Simulation:
    simulation = Simulation(COUNTED_RUNS[name]())
    simulation.run()
    return simulation


@pytest.fixture(params=sorted(RUNS))
def sim(request) -> Simulation:
    return simulate(request.param)


def test_runs_reach_every_outcome():
    assert {t.reason for name in RUNS for t in simulate(name).traces} == OUTCOMES


def kinds(trace) -> Counter:
    return Counter(record.kind for record in trace.events)


def test_reason_is_one_of_six(sim):
    assert {t.reason for t in sim.traces} <= OUTCOMES


def test_decision_logged_unless_the_vote_failed(sim):
    for trace in sim.traces:
        decisions = [r for r in trace.events if r.kind == EV_DECISION]
        if trace.reason in UNDECIDED:
            assert decisions == []
        else:
            assert [r.data["reason"] for r in decisions] == [trace.reason]
            assert decisions[0].data["accepted"] == str(trace.accepted)


def test_store_fetch_exactly_when_rejected_and_store_can_serve(sim):
    for trace in sim.traces:
        can_serve = (not sim.scenario.store_blocked
                     and sim.catalog.has(AppId.parse(trace.app_label)))
        expected = int(not trace.accepted and can_serve)
        assert kinds(trace)[EV_STORE_FETCH] == expected


def test_one_install_per_acceptance_or_store_fetch(sim):
    for trace in sim.traces:
        counts = kinds(trace)
        assert counts[EV_INSTALL] == int(trace.accepted) + counts[EV_STORE_FETCH]
        assert counts[EV_INSTALL] <= 1


def test_epoch_counters_match_reasons(sim):
    per_epoch: dict[int, Counter] = {row.epoch: Counter() for row in sim.epoch_rows}
    for trace in sim.traces:
        per_epoch[trace.epoch][trace.reason] += 1
    for row in sim.epoch_rows:
        reasons = per_epoch[row.epoch]
        assert row.retrievals == sum(reasons.values())
        assert row.vote_no_replies == reasons["no-replies"]
        assert row.vote_ties == reasons["vote-tie"]
        assert row.tocttou_rejections == reasons[REASON_FINGERPRINT]
        assert row.accepted == reasons[REASON_QUORUM]


LOGGED_COUNTERS = ("notices", "old_filtered", "vote_unanimous", "vote_split",
                   "tampered_accepted")


def logged_counter(record) -> str | None:
    """The epoch counter that one retrieval's log record adds one to."""
    if record.kind == EV_NOTICE:
        return "notices"
    if record.kind == EV_OLD_FILTERED:
        return "old_filtered"
    if record.kind == EV_VOTE:
        return "vote_unanimous" if record.data["unanimous"] == "True" else "vote_split"
    if record.kind == EV_INSTALL and record.data["origin"] == ORIGIN_TAMPERED:
        return "tampered_accepted"
    return None


def logged_counts(sim: Simulation) -> dict[int, Counter]:
    """Per epoch, the counters read off the whole log, retrieval by retrieval."""
    per_retrieval: dict[int, Counter] = defaultdict(Counter)
    for record in sim.log.records:
        if record.retrieval is not None:
            per_retrieval[record.retrieval][logged_counter(record)] += 1
    per_epoch = {row.epoch: Counter() for row in sim.epoch_rows}
    for retrieval, counts in per_retrieval.items():
        per_epoch[sim.traces[retrieval].epoch].update(counts)
    return per_epoch


@pytest.mark.parametrize("name", sorted(COUNTED_RUNS))
def test_epoch_counters_match_the_log(name):
    sim = simulate(name)
    per_epoch = logged_counts(sim)
    for row in sim.epoch_rows:
        assert ({c: getattr(row, c) for c in LOGGED_COUNTERS}
                == {c: per_epoch[row.epoch][c] for c in LOGGED_COUNTERS}), row.epoch


def test_counted_runs_reach_every_logged_counter():
    reached = {c for name in COUNTED_RUNS for counts in logged_counts(simulate(name)).values()
               for c in LOGGED_COUNTERS if counts[c]}
    assert reached == set(LOGGED_COUNTERS)

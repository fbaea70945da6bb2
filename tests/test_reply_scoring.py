"""The retrieval path on a connected community, where a call-out draws
dozens of replies: a pinned digest, the engine scores exactly the vote's
responders and filters exactly the replies with weak keys, and only
compromised nodes have their messages passed through ``intercept``."""

from collections import Counter
from pathlib import Path

import pytest

import vouchnet.engine as engine
from test_engine import rich_scenario
from vouchnet import Simulation
from vouchnet.events import EV_OLD_FILTERED, EV_REPLY, EV_VOTE
from vouchnet.scenario import AppSpec, Scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
CONNECTED_DIGEST = "f291e13345f997fcdd281526601ecfd26241e91a11b15559f0e6ba92"


def connected_scenario() -> Scenario:
    """A complete graph of 80 with churn, compromise and weak keys; about
    58 replies reach each call-out."""
    sc = Scenario(seed=3, epochs=3, node_count=80, topology="complete",
                  type_distribution={"phone": 0.5, "hub": 0.5},
                  apps=[AppSpec(name="maps", payload_bytes=128),
                        AppSpec(name="cam", payload_bytes=64, holders={"fraction": 0.6})])
    sc.workload.requests_per_epoch = 20
    sc.formation.max_degree = 80
    sc.formation.leave_rate = 0.05
    sc.formation.join_rate = 0.5
    sc.compromise.fraction = 0.2
    sc.compromise.mix = {"free_rider": 0.5, "tampered_server": 0.5}
    sc.old_devices.fraction = 0.1
    return sc


RUNS = {"connected": connected_scenario, "rich": rich_scenario}


def ids(csv: str) -> list[int]:
    return [int(i) for i in csv.split("+")] if csv else []


@pytest.fixture(scope="module", params=sorted(RUNS))
def observed(request):
    """Run a scenario, recording each correctness update and each
    call-out's replies under the retrieval that made them."""
    sim = Simulation(RUNS[request.param]())
    scored: list[tuple[int, int, int, bool]] = []
    replies: dict[int, list] = {}

    def update_correctness(ledger, peer, agreed, *args, **kwargs):
        scored.append((sim.retrieval_count - 1, ledger.owner, peer, agreed))
        return real_update(ledger, peer, agreed, *args, **kwargs)

    def broadcast_call_out(*args, **kwargs):
        polled, got = real_broadcast(*args, **kwargs)
        replies[sim.retrieval_count - 1] = list(got)
        return polled, got

    real_update, real_broadcast = engine.update_correctness, engine.broadcast_call_out
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "update_correctness", update_correctness)
        mp.setattr(engine, "broadcast_call_out", broadcast_call_out)
        log, _ = sim.run()
    return sim, log, scored, replies


def test_connected_digest_pinned():
    sim = Simulation(connected_scenario())
    log, _ = sim.run()
    assert log.digest().hex() == CONNECTED_DIGEST
    counts = Counter(record.kind for record in log.records)
    assert counts[EV_REPLY] / len(sim.traces) > 50
    assert counts[EV_OLD_FILTERED] == 299


def test_each_vote_responder_is_scored_once(observed):
    sim, log, scored, _ = observed
    expected = []
    for record in log.records:
        if record.kind == EV_VOTE:
            owner = sim.traces[record.retrieval].requester
            expected += [(record.retrieval, owner, p, True) for p in ids(record.data["supporters"])]
            expected += [(record.retrieval, owner, p, False) for p in ids(record.data["dissenters"])]
    assert expected and any(not agreed for *_, agreed in expected)
    assert sorted(scored) == sorted(expected)


def test_old_filtered_are_the_weak_key_replies_in_order(observed):
    sim, _, _, replies = observed
    min_bits = sim.scenario.protocol.min_key_bits
    filtered = 0
    for trace in sim.traces:
        got = replies[trace.retrieval]
        weak = [(r.responder, r.key_length_bits) for r in got if r.key_length_bits < min_bits]
        logged = [(int(e.data["responder"]), int(e.data["key_bits"]))
                  for e in trace.events if e.kind == EV_OLD_FILTERED]
        assert logged == weak, trace.retrieval
        filtered += len(weak)
        vote = [e for e in trace.events if e.kind == EV_VOTE]
        if vote:
            voters = ids(vote[0].data["supporters"]) + ids(vote[0].data["dissenters"])
            assert sorted(voters) == sorted(r.responder for r in got
                                            if r.key_length_bits >= min_bits)
    assert filtered > 0


def intercepted_nodes(sim: Simulation) -> list[int]:
    """Run ``sim`` and return the sender of every message the engine hands
    to ``intercept``, in call order."""
    seen: list[int] = []

    def intercept(behavior, message, ctx):
        seen.append(next(getattr(message, attr) for attr in ("responder", "verifier", "sender")
                         if hasattr(message, attr)))
        return real_intercept(behavior, message, ctx)

    real_intercept = engine.intercept
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "intercept", intercept)
        sim.run()
    return seen


@pytest.mark.parametrize("name", sorted(RUNS))
def test_intercept_sees_compromised_nodes_only(name):
    sim = Simulation(RUNS[name]())
    seen = intercepted_nodes(sim)
    assert seen
    assert set(seen) <= set(sim.behaviors)


def test_a_run_without_compromise_never_calls_intercept():
    sim = Simulation(Scenario.from_file(SCENARIOS / "smoke.json"))
    assert sim.scenario.compromise.fraction == 0 and not sim.behaviors
    assert intercepted_nodes(sim) == []
    assert sim.traces

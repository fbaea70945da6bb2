"""The event log prices and ticks its own events, and a graph's links are
its key stores."""

import random

import pytest

from test_retrieval_outcomes import simulate
from vouchnet.community import CommunityGraph, NodeProfile
from vouchnet.crypto import fingerprint
from vouchnet.events import (
    EV_CALL_OUT,
    EV_DELIVERY,
    EV_EPOCH,
    EV_INSTALL,
    EV_NOTICE,
    EV_REPLY,
    EV_VERIFY_REPLY,
    EV_VERIFY_REQ,
    EV_VOTE,
    EVENT_KINDS,
    MESSAGE_KINDS,
    EventLog,
    RetrievalTrace,
)
from vouchnet.wire import encode_fields

UNIT_KINDS = {EV_REPLY, EV_VERIFY_REQ, EV_VERIFY_REPLY}


def expected_bits(kind: str, data: dict, width: int) -> int:
    if kind == EV_DELIVERY:
        return int(data["macs"]) * width
    return width if kind in UNIT_KINDS else 0


def test_message_kinds_are_the_six_protocol_messages():
    assert MESSAGE_KINDS == {EV_CALL_OUT, EV_REPLY, EV_NOTICE, EV_DELIVERY,
                             EV_VERIFY_REQ, EV_VERIFY_REPLY}


def test_only_message_kinds_advance_the_tick():
    log = EventLog(width_bits=224)
    ticks = [log.append(kind, {}).tick
             for kind in (EV_EPOCH, EV_CALL_OUT, EV_VOTE, EV_NOTICE, EV_INSTALL, EV_REPLY)]
    assert ticks == [0, 1, 1, 2, 2, 3]


@pytest.mark.parametrize("width", [224, 256])
def test_append_prices_in_digest_units(width):
    log = EventLog(width_bits=width)
    assert log.append(EV_CALL_OUT, {"requester": 0}).bits == 0
    assert log.append(EV_NOTICE, {"target": 1}).bits == 0
    assert log.append(EV_VOTE, {"app": "m@1"}).bits == 0
    for kind in sorted(UNIT_KINDS):
        assert log.append(kind, {"verifier": 2}).bits == width
    assert log.append(EV_DELIVERY, {"sender": 3, "macs": 4}).bits == 4 * width
    assert log.append(EV_DELIVERY, {"sender": 3, "macs": 0}).bits == 0


def test_append_stores_strings_and_files_under_the_trace():
    log = EventLog()
    trace = RetrievalTrace(retrieval=5, epoch=0, requester=1, app_label="m@1")
    record = log.append(EV_VOTE, {"unanimous": True, "supporters": 0}, trace=trace)
    loose = log.append(EV_EPOCH, {"epoch": 1})
    assert record.data == {"unanimous": "True", "supporters": "0"}
    assert record.retrieval == 5
    assert trace.events == [record]
    assert loose.retrieval is None
    assert log.records == [record, loose]


def reference_bytes(records) -> bytes:
    """The log's wire form spelled out: one encode_fields call per record."""
    out = b""
    for r in records:
        fields = [r.tick, r.kind, -1 if r.retrieval is None else r.retrieval, r.bits]
        fields += [f"{key}={r.data[key]}" for key in sorted(r.data)]
        out += encode_fields(*fields)
    return out


@pytest.mark.parametrize("width", [224, 256])
def test_log_bytes_and_digest_match_encode_fields(width):
    log = EventLog(width_bits=width)
    trace = RetrievalTrace(retrieval=3, epoch=0, requester=1, app_label="m@1")
    for i, kind in enumerate(EVENT_KINDS):
        # Keys out of order, a negative int, a bool and multi-byte characters.
        data = {"node": -7 - i, "unanimous": i % 2 == 0, "app": "caméra@2",
                "macs": i % 3, "a": "ünï", "z": ""}
        log.append(kind, data, trace=trace if i % 2 else None)
        assert log.digest() == fingerprint(reference_bytes(log.records), width)
    assert [r.kind for r in log.records] == list(EVENT_KINDS)
    assert {r.retrieval for r in log.records} == {None, 3}
    assert log.canonical_bytes() == reference_bytes(log.records)
    assert log.digest() == fingerprint(log.canonical_bytes(), width)
    assert log.digest().width_bits == width


@pytest.mark.parametrize("width", [224, 256])
def test_long_log_encodes_every_record_like_encode_fields(width):
    """A thousand records of every kind, with values of every type the
    engine logs, keys in random order and records in and out of
    retrievals: each record's bytes and the running digest follow the
    encode_fields reference throughout."""
    rng = random.Random(width)
    log = EventLog(width_bits=width)
    traces = [None, RetrievalTrace(retrieval=0, epoch=0, requester=1, app_label="m@1"),
              RetrievalTrace(retrieval=2**40, epoch=3, requester=-2, app_label="ü@2")]
    values = [-1, -2**62, 0, 7, True, False, "", "caméra@2", "日本語", "a=b", "x" * 300]
    keys = ["node", "app", "zeta", "a", "ключ", "verdict", "digest"]
    kinds = [kind for kind in EVENT_KINDS for _ in range(1000)]
    rng.shuffle(kinds)
    expected = bytearray()
    for i, kind in enumerate(kinds, 1):
        data = {key: rng.choice(values) for key in rng.sample(keys, rng.randrange(len(keys)))}
        if kind == EV_DELIVERY:
            data["macs"] = rng.randrange(6)
        record = log.append(kind, data, trace=rng.choice(traces))
        wire = reference_bytes([record])
        assert record.wire() == wire
        assert record.data == {key: str(value) for key, value in data.items()}
        expected += wire
        if i % 4999 == 0 or i == len(kinds):
            assert log.digest() == fingerprint(bytes(expected), width)
    assert len(log) >= 1000 * len(EVENT_KINDS)
    assert log.canonical_bytes() == expected


@pytest.mark.parametrize("name", ["hostile", "rich", "community_study"])
def test_whole_run_bits_and_ticks_follow_the_kind(name):
    sim = simulate(name)
    tick = 0
    for record in sim.log.records:
        if record.kind in MESSAGE_KINDS:
            tick += 1
        assert record.tick == tick, record
        assert record.bits == expected_bits(record.kind, record.data, sim.width), record
    for trace in sim.traces:
        assert all(e.retrieval == trace.retrieval for e in trace.events)


def graph_of(n: int) -> CommunityGraph:
    g = CommunityGraph()
    for i in range(n):
        g.add_node(NodeProfile(id=i, node_type="t"))
    return g


def test_key_store_is_the_adjacency():
    g = graph_of(4)
    rng = random.Random(0)
    for a, b in [(0, 1), (0, 2), (2, 3)]:
        g.add_edge(a, b, rng)
    assert g.edges() == [(0, 1), (0, 2), (2, 3)]
    assert g.edge_count() == 3
    # A key gone from one side takes that side's view of the link with it.
    g.keystores[0].pop(2)
    assert not g.has_edge(0, 2)
    assert g.has_edge(2, 0)
    assert g.neighbors(0) == [1]
    assert g.degree(0) == 1
    assert g.reachable_from(0) == [1]


@pytest.mark.parametrize("name", ["hostile", "rich", "community_study"])
def test_whole_run_links_are_symmetric(name):
    stores = simulate(name).graph.keystores
    one_sided = [(a, b) for a, store in stores.items() for b in store if a not in stores[b]]
    assert one_sided == []


def test_has_edge_of_an_unknown_node_is_false():
    g = graph_of(2)
    g.add_edge(0, 1, random.Random(0))
    g.remove_node(1)
    assert not g.has_edge(1, 0)
    assert g.degree(0) == 0
    assert set(g.keystores) == {0}

"""Compromise assignment and per-strategy message handling."""

import random

import pytest

from vouchnet.adversary import (
    Behavior,
    CompromiseSpec,
    InterceptContext,
    assign_behaviors,
    intercept,
)
from vouchnet.apps import AppCatalog, AppId, tamper
from vouchnet.community import CommunityGraph, NodeProfile
from vouchnet.crypto import fingerprint
from vouchnet.errors import ConfigurationError
from vouchnet.messages import FingerprintReply, VerifyReply
from vouchnet.multipath import build_auth_package, toc_tou_check, verify_round

APP = AppId("lamp", "1")


def graph_of(n):
    g = CommunityGraph()
    for i in range(n):
        g.add_node(NodeProfile(id=i, node_type="cam", max_degree=16))
    return g


def make_ctx():
    g = graph_of(4)
    rng = random.Random(0)
    for i in range(1, 4):
        g.add_edge(0, i, rng)
    catalog = AppCatalog()
    clean = catalog.publish_clean(APP, b"clean payload")
    return g, catalog, clean, InterceptContext(catalog=catalog, keystores=g.keystores)


# -- assignment ---------------------------------------------------------------


def test_floor_of_fraction_nodes_compromised():
    g = graph_of(10)
    spec = CompromiseSpec(fraction=0.3, mix={"free_rider": 1.0})
    assignment = assign_behaviors(g, spec, random.Random(5))
    assert len(assignment) == 3
    assert set(assignment.values()) == {Behavior.FREE_RIDER}


def test_assignment_reproducible_per_seed():
    g = graph_of(10)
    spec = CompromiseSpec(fraction=0.5, mix={"free_rider": 0.5, "lying_verifier": 0.5})
    assert (assign_behaviors(g, spec, random.Random(9))
            == assign_behaviors(graph_of(10), spec, random.Random(9)))


def test_zero_fraction_is_all_honest():
    g = graph_of(6)
    assert assign_behaviors(g, CompromiseSpec(), random.Random(0)) == {}


def test_mix_weights_must_sum_to_one():
    g = graph_of(4)
    spec = CompromiseSpec(fraction=0.5, mix={"free_rider": 0.4})
    with pytest.raises(ConfigurationError, match="must sum to 1"):
        assign_behaviors(g, spec, random.Random(0))


def test_mix_rejects_unknown_and_honest_strategies():
    g = graph_of(4)
    with pytest.raises(ConfigurationError, match="unknown strategy 'store_blocker'"):
        assign_behaviors(g, CompromiseSpec(fraction=0.5, mix={"store_blocker": 1.0}),
                         random.Random(0))
    with pytest.raises(ConfigurationError, match="unknown strategy 'honest'"):
        assign_behaviors(g, CompromiseSpec(fraction=0.5, mix={"honest": 1.0}),
                         random.Random(0))


# -- intercept table -----------------------------------------------------------


def test_tampered_server_is_identity_on_every_message():
    g, catalog, clean, ctx = make_ctx()
    reply = FingerprintReply(responder=1, app_id=APP, digest=clean.fingerprint(),
                             key_length_bits=256)
    verdict = VerifyReply(verifier=1, verdict=True)
    auth = build_auth_package(0, clean, g)
    for message in (reply, verdict, auth):
        assert intercept(Behavior.TAMPERED_SERVER, message, ctx) is message


def test_free_rider_drops_replies_and_verdicts():
    g, catalog, clean, ctx = make_ctx()
    reply = FingerprintReply(responder=1, app_id=APP, digest=clean.fingerprint(),
                             key_length_bits=256)
    verdict = VerifyReply(verifier=1, verdict=True)
    assert intercept(Behavior.FREE_RIDER, reply, ctx) is None
    assert intercept(Behavior.FREE_RIDER, verdict, ctx) is None


def test_lying_verifier_inverts_both_ways():
    g, catalog, clean, ctx = make_ctx()
    assert intercept(Behavior.LYING_VERIFIER,
                     VerifyReply(verifier=1, verdict=True), ctx).verdict is False
    assert intercept(Behavior.LYING_VERIFIER,
                     VerifyReply(verifier=1, verdict=False), ctx).verdict is True


def test_swapper_reply_reports_store_digest():
    g, catalog, clean, ctx = make_ctx()
    bad = tamper(clean, adversary=1, rng=random.Random(0))
    reply = FingerprintReply(responder=1, app_id=APP, digest=bad.fingerprint(),
                             key_length_bits=256)
    rewritten = intercept(Behavior.TOCTTOU_SWAPPER, reply, ctx)
    assert rewritten.digest == clean.fingerprint()


def test_swapper_delivery_keeps_payload_but_claims_clean():
    g, catalog, clean, ctx = make_ctx()
    bad = tamper(clean, adversary=0, rng=random.Random(0))
    auth = build_auth_package(0, bad, g)
    swapped = intercept(Behavior.TOCTTOU_SWAPPER, auth, ctx)
    assert swapped.payload == bad.payload
    assert swapped.claimed_digest == clean.fingerprint()
    # The swapper owns its keys, so its MACs check out against the lie...
    _, replies = verify_round(100, swapped, g)
    assert all(r.verdict for r in replies)
    # ...but the recomputed payload digest exposes it with certainty.
    assert not toc_tou_check(swapped, expected=clean.fingerprint())


def test_tampered_server_leaves_messages_alone():
    g, catalog, clean, ctx = make_ctx()
    bad = tamper(clean, adversary=1, rng=random.Random(0))
    reply = FingerprintReply(responder=1, app_id=APP, digest=bad.fingerprint(),
                             key_length_bits=256)
    assert intercept(Behavior.TAMPERED_SERVER, reply, ctx) is reply

"""Delivery authentication: MAC fanout, digest binding, verifier quorum."""

import random

import pytest

from vouchnet.adversary import Behavior, InterceptContext, intercept
from vouchnet.apps import AppCatalog, AppId, tamper
from vouchnet.community import CommunityGraph, NodeProfile
from vouchnet.crypto import fingerprint
from vouchnet.errors import NoVerifiersError, VouchnetError
from vouchnet.messages import AuthPackage, VerifyReply
from vouchnet.multipath import build_auth_package, decide, toc_tou_check, verify_round

APP = AppId("lamp", "1")


def star_world(neighbors, requester_extra=True):
    """Sender 0 linked to ``neighbors`` peers; node 100 is the requester."""
    g = CommunityGraph()
    g.add_node(NodeProfile(id=0, node_type="cam", max_degree=64))
    rng = random.Random(0)
    for i in range(1, neighbors + 1):
        g.add_node(NodeProfile(id=i, node_type="cam", max_degree=64))
        g.add_edge(0, i, rng)
    if requester_extra:
        g.add_node(NodeProfile(id=100, node_type="cam", max_degree=64))
    catalog = AppCatalog()
    clean = catalog.publish_clean(APP, b"clean payload")
    return g, catalog, clean


def test_fanout_capped_by_neighbor_count():
    g, catalog, clean = star_world(3)
    auth = build_auth_package(0, clean, g, fanout=10)
    assert len(auth.macs) == 3
    assert set(auth.verifier_ids()) == {1, 2, 3}


def test_fanout_of_ten_makes_ten_macs():
    g, catalog, clean = star_world(12)
    auth = build_auth_package(0, clean, g, fanout=10, rng=random.Random(1))
    assert len(auth.macs) == 10
    # Ten MACs at 224 bits each: the whole block is 2240 bits.
    assert sum(len(tag.tag) * 8 for _, tag in auth.macs) == 2240


def test_isolated_sender_cannot_authenticate():
    g = CommunityGraph()
    g.add_node(NodeProfile(id=0, node_type="cam"))
    catalog = AppCatalog()
    clean = catalog.publish_clean(APP, b"payload")
    with pytest.raises(NoVerifiersError):
        build_auth_package(0, clean, g)


def test_weak_key_neighbors_are_skipped():
    g = CommunityGraph()
    g.add_node(NodeProfile(id=0, node_type="cam", max_degree=8))
    g.add_node(NodeProfile(id=1, node_type="cam", key_length_bits=64, max_degree=8))
    g.add_node(NodeProfile(id=2, node_type="cam", max_degree=8))
    rng = random.Random(0)
    g.add_edge(0, 1, rng)
    g.add_edge(0, 2, rng)
    catalog = AppCatalog()
    clean = catalog.publish_clean(APP, b"payload")
    auth = build_auth_package(0, clean, g, fanout=10)
    assert auth.verifier_ids() == (2,)


def test_sampling_is_deterministic_per_seed():
    g, catalog, clean = star_world(12)
    a = build_auth_package(0, clean, g, fanout=5, rng=random.Random(3))
    b = build_auth_package(0, clean, g, fanout=5, rng=random.Random(3))
    assert a.verifier_ids() == b.verifier_ids()


# -- digest binding ------------------------------------------------------------


def test_honest_delivery_passes_binding_check():
    g, catalog, clean = star_world(3)
    auth = build_auth_package(0, clean, g)
    assert toc_tou_check(auth, expected=clean.fingerprint())


def test_swapped_payload_fails_binding_check():
    g, catalog, clean = star_world(3)
    auth = build_auth_package(0, clean, g)
    bad = tamper(clean, adversary=0, rng=random.Random(0))
    forged = AuthPackage(sender=auth.sender, app_id=auth.app_id, payload=bad.payload,
                         claimed_digest=auth.claimed_digest, macs=auth.macs)
    assert not toc_tou_check(forged, expected=clean.fingerprint())


def test_consistent_lie_fails_against_voted_digest():
    # Payload and claimed digest agree with each other but not with the
    # digest the community voted for.
    g, catalog, clean = star_world(3)
    bad = tamper(clean, adversary=0, rng=random.Random(0))
    auth = build_auth_package(0, bad, g)
    assert toc_tou_check(auth, expected=bad.fingerprint())
    assert not toc_tou_check(auth, expected=clean.fingerprint())


def test_any_single_byte_substitution_is_caught():
    g, catalog, clean = star_world(2)
    auth = build_auth_package(0, clean, g)
    rng = random.Random(5)
    for _ in range(40):
        mutated = bytearray(auth.payload)
        mutated[rng.randrange(len(mutated))] ^= rng.randrange(1, 256)
        forged = AuthPackage(sender=auth.sender, app_id=auth.app_id,
                             payload=bytes(mutated), claimed_digest=auth.claimed_digest,
                             macs=auth.macs)
        assert not toc_tou_check(forged, expected=clean.fingerprint())


# -- verification round -----------------------------------------------------


def test_all_honest_verifiers_confirm():
    g, catalog, clean = star_world(10)
    auth = build_auth_package(0, clean, g, fanout=10)
    polled, replies = verify_round(100, auth, g)
    assert len(polled) == 10
    assert len(replies) == 10
    assert all(r.verdict for r in replies)


def test_lying_verifier_inverts_true_verdict():
    g, catalog, clean = star_world(3)
    auth = build_auth_package(0, clean, g)
    ctx = InterceptContext(catalog=catalog, keystores=g.keystores)

    def interceptor(node, message):
        behavior = Behavior.LYING_VERIFIER if node == 2 else Behavior.HONEST
        return intercept(behavior, message, ctx)

    _, replies = verify_round(100, auth, g, interceptor=interceptor)
    verdicts = {r.verifier: r.verdict for r in replies}
    assert verdicts == {1: True, 2: False, 3: True}


def test_free_rider_verifier_stays_silent():
    g, catalog, clean = star_world(3)
    auth = build_auth_package(0, clean, g)
    ctx = InterceptContext(catalog=catalog, keystores=g.keystores)

    def interceptor(node, message):
        behavior = Behavior.FREE_RIDER if node == 1 else Behavior.HONEST
        return intercept(behavior, message, ctx)

    _, replies = verify_round(100, auth, g, interceptor=interceptor)
    assert sorted(r.verifier for r in replies) == [2, 3]


def test_severed_link_means_no_reply():
    g, catalog, clean = star_world(3)
    auth = build_auth_package(0, clean, g)
    g.remove_edge(0, 2)
    _, replies = verify_round(100, auth, g)
    assert sorted(r.verifier for r in replies) == [1, 3]


def test_polled_ids_are_the_macd_verifiers_in_mac_order():
    g, catalog, clean = star_world(6)
    built = build_auth_package(0, clean, g, fanout=4, rng=random.Random(3))
    macs = built.macs[::-1]  # not sorted, so the order must come from the MACs
    auth = AuthPackage(sender=built.sender, app_id=built.app_id, payload=built.payload,
                       claimed_digest=built.claimed_digest, macs=macs)
    severed = macs[1][0]
    g.remove_edge(0, severed)
    polled, replies = verify_round(100, auth, g)
    assert polled == tuple(v for v, _ in macs)
    assert [r.verifier for r in replies] == [v for v in polled if v != severed]


def test_missing_key_for_live_link_is_an_error():
    g, catalog, clean = star_world(2)
    auth = build_auth_package(0, clean, g)
    g.keystores[1].remove(0)  # corrupt the store while the link stays up
    with pytest.raises(VouchnetError):
        verify_round(100, auth, g)


def test_replayed_tag_under_different_digest_fails():
    g, catalog, clean = star_world(3)
    auth = build_auth_package(0, clean, g)
    bad = tamper(clean, adversary=0, rng=random.Random(2))
    forged = AuthPackage(sender=auth.sender, app_id=auth.app_id, payload=bad.payload,
                         claimed_digest=bad.fingerprint(), macs=auth.macs)
    _, replies = verify_round(100, forged, g)
    assert replies and all(not r.verdict for r in replies)


# -- quorum decision -----------------------------------------------------------


def vr(node, verdict):
    return VerifyReply(verifier=node, verdict=verdict)


def test_unanimous_three_accept():
    decision = decide([vr(1, True), vr(2, True), vr(3, True)], total_polled=3)
    assert decision.accepted
    assert decision.reason == "quorum-reached"


def test_two_of_five_rejected():
    decision = decide([vr(i, i < 2) for i in range(5)], total_polled=5)
    assert not decision.accepted
    assert decision.reason == "insufficient-verdicts"


def test_exact_half_is_rejected():
    decision = decide([vr(0, True), vr(1, True), vr(2, False), vr(3, False)],
                      total_polled=4)
    assert not decision.accepted


def test_silent_verifiers_count_against():
    decision = decide([vr(0, True)], total_polled=3)
    assert not decision.accepted
    decision = decide([vr(0, True), vr(1, True)], total_polled=3)
    assert decision.accepted


def test_zero_polled_is_an_error():
    with pytest.raises(NoVerifiersError):
        decide([], total_polled=0)


def test_higher_quorum_is_stricter():
    replies = [vr(i, i < 6) for i in range(10)]
    assert decide(replies, total_polled=10, quorum=0.5).accepted
    assert not decide(replies, total_polled=10, quorum=0.7).accepted

"""Delivery authentication: MAC fanout, digest binding, verifier quorum."""

import random

import pytest

from vouchnet.adversary import Behavior, InterceptContext, intercept
from vouchnet.apps import AppCatalog, AppId, tamper
from vouchnet.community import CommunityGraph, NodeProfile
from vouchnet.crypto import Digest, MacTag, fingerprint, verify_mac
from vouchnet.errors import NoVerifiersError, VouchnetError
from vouchnet.messages import REASON_INSUFFICIENT, AuthPackage, VerifyReply, mac_message
from vouchnet.multipath import build_auth_package, decide, toc_tou_check, verify_round
from vouchnet.wire import encode_fields

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
    assert {v for v, _ in auth.macs} == {1, 2, 3}


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
    assert build_auth_package(0, clean, g) is None


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
    assert [v for v, _ in auth.macs] == [2]


def test_sampling_is_deterministic_per_seed():
    g, catalog, clean = star_world(12)
    a = build_auth_package(0, clean, g, fanout=5, rng=random.Random(3))
    b = build_auth_package(0, clean, g, fanout=5, rng=random.Random(3))
    assert [v for v, _ in a.macs] == [v for v, _ in b.macs]


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
        if node != 2:
            return message
        return intercept(Behavior.LYING_VERIFIER, message, ctx)

    _, replies = verify_round(100, auth, g, interceptor=interceptor)
    verdicts = {r.verifier: r.verdict for r in replies}
    assert verdicts == {1: True, 2: False, 3: True}


def test_free_rider_verifier_stays_silent():
    g, catalog, clean = star_world(3)
    auth = build_auth_package(0, clean, g)
    ctx = InterceptContext(catalog=catalog, keystores=g.keystores)

    def interceptor(node, message):
        if node != 1:
            return message
        return intercept(Behavior.FREE_RIDER, message, ctx)

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
    g.keystores[1].pop(0)  # corrupt the store while the link stays up
    with pytest.raises(VouchnetError):
        verify_round(100, auth, g)


def test_tag_presented_under_another_pairing_is_a_negative_verdict():
    g, catalog, clean = star_world(2)
    auth = build_auth_package(0, clean, g)
    (v1, tag1), (v2, tag2) = auth.macs
    swapped = AuthPackage(sender=auth.sender, app_id=auth.app_id, payload=auth.payload,
                          claimed_digest=auth.claimed_digest, macs=((v1, tag2), (v2, tag1)))
    polled, replies = verify_round(100, swapped, g)
    assert [(r.verifier, r.verdict) for r in replies] == [(v1, False), (v2, False)]
    assert decide(replies, len(polled)).reason == REASON_INSUFFICIENT


def test_replayed_tag_under_different_digest_fails():
    g, catalog, clean = star_world(3)
    auth = build_auth_package(0, clean, g)
    bad = tamper(clean, adversary=0, rng=random.Random(2))
    forged = AuthPackage(sender=auth.sender, app_id=auth.app_id, payload=bad.payload,
                         claimed_digest=bad.fingerprint(), macs=auth.macs)
    _, replies = verify_round(100, forged, g)
    assert replies and all(not r.verdict for r in replies)


def test_relinked_pair_refuses_the_old_keys_tag():
    g, catalog, clean = star_world(2)
    auth = build_auth_package(0, clean, g)
    _, replies = verify_round(100, auth, g)
    assert [r.verdict for r in replies] == [True, True]
    old_key = g.keystores[1][0]
    g.remove_edge(0, 1)
    g.add_edge(0, 1, random.Random(9))
    assert g.keystores[1][0].key_id == old_key.key_id
    assert g.keystores[1][0] is not old_key
    _, replies = verify_round(100, auth, g)
    assert [(r.verifier, r.verdict) for r in replies] == [(1, False), (2, True)]


def test_every_reply_is_a_verify_reply_that_interceptors_recognise():
    g, catalog, clean = star_world(4)
    auth = build_auth_package(0, clean, g)
    seen = []

    def interceptor(node, message):
        seen.append(isinstance(message, VerifyReply))
        return message

    for hook in (None, interceptor):
        _, replies = verify_round(100, auth, g, interceptor=hook)
        assert [type(r) for r in replies] == [VerifyReply] * 4
        assert [(r.verifier, r.verdict) for r in replies] == [(v, True) for v in (1, 2, 3, 4)]
        assert replies[0]._replace(verdict=False) == VerifyReply(verifier=1, verdict=False)
    assert seen == [True] * 4


# -- kept binding --------------------------------------------------------------


def reference_binding(app_id, digest):
    return encode_fields("mac", app_id.name, app_id.version, digest.bits)


def test_kept_binding_equals_a_fresh_encoding_for_equal_but_distinct_values():
    digest = fingerprint(b"payload")
    twin = Digest(bits=digest.bits, width_bits=digest.width_bits)
    app, app_twin = AppId("lamp", "1"), AppId("lamp", "1")
    expected = reference_binding(app, digest)
    for app_id, d in [(app, digest), (app_twin, digest), (app, twin), (app_twin, twin),
                      (app, digest)]:
        assert mac_message(app_id, d) == expected
    assert mac_message(app, digest) is mac_message(app, digest)
    assert mac_message(app_twin, twin) is not mac_message(app, digest)


def test_kept_binding_follows_one_digest_between_two_apps():
    digest = fingerprint(b"payload")
    a, b = AppId("lamp", "1"), AppId("lamp", "2")
    for app_id in (a, b, a, a, b):
        assert mac_message(app_id, digest) == reference_binding(app_id, digest)


def test_tags_for_one_app_do_not_vouch_for_another_app_on_the_same_digest():
    g, catalog, clean = star_world(3)
    auth = build_auth_package(0, clean, g)
    other = auth._replace(app_id=AppId("lamp", "2"))
    for delivery, verdict in [(auth, True), (other, False), (auth, True)]:
        _, replies = verify_round(100, delivery, g)
        assert [r.verdict for r in replies] == [verdict] * 3


def test_a_zeroed_tag_is_refused_after_the_binding_is_kept():
    g, catalog, clean = star_world(3)
    auth = build_auth_package(0, clean, g)
    _, replies = verify_round(100, auth, g)
    assert [r.verdict for r in replies] == [True] * 3
    assert auth.claimed_digest._memo[1] is mac_message(auth.app_id, auth.claimed_digest)
    zeroed = tuple((v, MacTag(key_id=t.key_id, tag=bytes(len(t.tag)), width_bits=t.width_bits))
                   for v, t in auth.macs)
    _, replies = verify_round(100, auth._replace(macs=zeroed), g)
    assert [r.verdict for r in replies] == [False] * 3


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


def test_tag_under_another_pairs_key_id_is_refused_without_verifying(monkeypatch):
    g, catalog, clean = star_world(2)
    auth = build_auth_package(0, clean, g)
    (v1, _), (v2, tag2) = auth.macs
    mixed = AuthPackage(sender=auth.sender, app_id=auth.app_id, payload=auth.payload,
                        claimed_digest=auth.claimed_digest, macs=((v1, tag2), (v2, tag2)))
    presented = []

    def recording_verify_mac(key, message, tag, **kwargs):
        presented.append((key.key_id, tag.key_id))
        return verify_mac(key, message, tag, **kwargs)

    monkeypatch.setattr("vouchnet.multipath.verify_mac", recording_verify_mac)
    polled, replies = verify_round(100, mixed, g)
    assert [(r.verifier, r.verdict) for r in replies] == [(v1, False), (v2, True)]
    assert presented == [(tag2.key_id, tag2.key_id)]
    assert decide(replies, len(polled)).reason == REASON_INSUFFICIENT

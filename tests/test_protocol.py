"""Call-out, old-device filtering, majority vote, source choice, notices."""

import random
from collections import Counter

from vouchnet.adversary import Behavior, InterceptContext, intercept
from vouchnet.apps import AppCatalog, AppId, InstallState, tamper
from vouchnet.community import CommunityGraph, NodeProfile
from vouchnet.crypto import fingerprint
from vouchnet.messages import FingerprintReply
from vouchnet.protocol import (
    broadcast_call_out,
    choose_source,
    filter_old_devices,
    majority_vote,
    notify_dissenters,
)

APP = AppId("lamp", "1")
CLEAN = fingerprint(b"clean payload")
BAD = fingerprint(b"tampered payload")
WORSE = fingerprint(b"other tampered payload")


def reply(node, digest=CLEAN, key_bits=256):
    return FingerprintReply(responder=node, app_id=APP, digest=digest,
                            key_length_bits=key_bits)


# -- majority vote -----------------------------------------------------------


def test_two_against_one():
    outcome = majority_vote([reply(0, BAD), reply(1), reply(2)])
    assert outcome.majority_digest == CLEAN
    assert outcome.supporters == (1, 2)
    assert outcome.dissenters == (0,)
    assert not outcome.unanimous


def test_unanimous_vote():
    outcome = majority_vote([reply(1), reply(2), reply(3)])
    assert outcome.unanimous
    assert outcome.dissenters == ()
    assert notify_dissenters(outcome, requester=9) == []


def test_even_split_has_no_majority():
    assert majority_vote([reply(0, BAD), reply(1, BAD), reply(2), reply(3)]) is None


def test_empty_replies_have_no_majority():
    assert majority_vote([]) is None


def test_single_reply_wins_alone():
    outcome = majority_vote([reply(5, BAD)])
    assert outcome.majority_digest == BAD
    assert outcome.supporters == (5,)
    assert outcome.unanimous


def test_vote_is_permutation_invariant():
    replies = [reply(0, BAD), reply(1), reply(2), reply(3, WORSE), reply(4)]
    rng = random.Random(0)
    base = majority_vote(replies)
    for _ in range(10):
        shuffled = replies[:]
        rng.shuffle(shuffled)
        outcome = majority_vote(shuffled)
        assert outcome.majority_digest == base.majority_digest
        assert outcome.supporters == base.supporters
        assert outcome.dissenters == base.dissenters


def test_majority_class_beats_every_dissenting_class():
    rng = random.Random(13)
    digests = [CLEAN, BAD, WORSE]
    for _ in range(300):
        n = rng.randrange(1, 9)
        replies = [reply(i, rng.choice(digests)) for i in range(n)]
        outcome = majority_vote(replies)
        if outcome is None:
            counts = Counter(r.digest for r in replies).most_common()
            assert counts[0][1] == counts[1][1]
            continue
        class_sizes = Counter(r.digest for r in replies)
        winner = class_sizes.pop(outcome.majority_digest)
        assert all(winner > size for size in class_sizes.values())
        assert len(outcome.supporters) == winner
        assert set(outcome.supporters).isdisjoint(outcome.dissenters)
        assert len(outcome.supporters) + len(outcome.dissenters) == n


# -- old-device filter --------------------------------------------------------


def test_filter_drops_below_minimum():
    replies = [reply(0, key_bits=64), reply(1, key_bits=128), reply(2, key_bits=256)]
    kept = filter_old_devices(replies, min_key_bits=128)
    assert [r.responder for r in kept] == [1, 2]


def test_filter_boundary_is_inclusive():
    kept = filter_old_devices([reply(0, key_bits=128)], min_key_bits=128)
    assert len(kept) == 1


# -- source choice -----------------------------------------------------------


def test_choose_source_is_uniform_over_supporters():
    outcome = majority_vote([reply(0, BAD), reply(1), reply(2)])
    picks = Counter(choose_source(outcome, random.Random(seed))
                    for seed in range(10_000))
    assert set(picks) == {1, 2}
    assert abs(picks[1] / 10_000 - 0.5) < 0.02
    assert abs(picks[2] / 10_000 - 0.5) < 0.02


def test_choose_source_deterministic_per_seed():
    outcome = majority_vote([reply(1), reply(2), reply(3)])
    assert choose_source(outcome, random.Random(4)) == choose_source(outcome, random.Random(4))


# -- notices ---------------------------------------------------------------


def test_notices_carry_both_digests():
    outcome = majority_vote([reply(0, BAD), reply(1), reply(2)])
    notices = notify_dissenters(outcome, requester=7)
    assert len(notices) == 1
    notice = notices[0]
    assert notice.sender == 7
    assert notice.target == 0
    assert notice.suspected_digest == BAD
    assert notice.majority_digest == CLEAN


# -- call-out ----------------------------------------------------------------


def build_world():
    g = CommunityGraph()
    for i in range(5):
        g.add_node(NodeProfile(id=i, node_type="cam", max_degree=8))
    rng = random.Random(0)
    for i in range(1, 5):
        g.add_edge(0, i, rng)
    catalog = AppCatalog()
    clean = catalog.publish_clean(APP, b"clean payload")
    installs = InstallState()
    return g, catalog, installs, clean


def test_only_holders_reply():
    g, catalog, installs, clean = build_world()
    installs.install(1, clean)
    installs.install(2, clean)
    polled, replies = broadcast_call_out(0, APP, g, installs)
    assert polled == [1, 2, 3, 4]
    assert [r.responder for r in replies] == [1, 2]
    assert all(r.digest == clean.fingerprint() for r in replies)


def test_unreachable_holders_not_polled():
    g, catalog, installs, clean = build_world()
    g.remove_edge(0, 3)
    installs.install(3, clean)
    polled, replies = broadcast_call_out(0, APP, g, installs)
    assert 3 not in polled
    assert replies == []


def test_free_rider_swallows_reply():
    g, catalog, installs, clean = build_world()
    installs.install(1, clean)
    installs.install(2, clean)
    ctx = InterceptContext(catalog=catalog, keystores=g.keystores)
    behaviors = {1: Behavior.FREE_RIDER}

    def interceptor(node, message):
        if node not in behaviors:
            return message
        return intercept(behaviors[node], message, ctx)

    _, replies = broadcast_call_out(0, APP, g, installs, interceptor=interceptor)
    assert [r.responder for r in replies] == [2]


def test_swapper_reports_clean_digest_for_corrupted_copy():
    g, catalog, installs, clean = build_world()
    bad = tamper(clean, adversary=1, rng=random.Random(0))
    installs.install(1, bad)
    ctx = InterceptContext(catalog=catalog, keystores=g.keystores)

    def interceptor(node, message):
        if node != 1:
            return message
        return intercept(Behavior.TOCTTOU_SWAPPER, message, ctx)

    _, replies = broadcast_call_out(0, APP, g, installs, interceptor=interceptor)
    assert replies[0].digest == clean.fingerprint()
    assert installs.get(1, APP).is_tampered


def test_tampered_server_is_outvoted_by_clean_majority():
    g, catalog, installs, clean = build_world()
    bad = tamper(clean, adversary=3, rng=random.Random(0))
    installs.install(1, clean)
    installs.install(2, clean)
    installs.install(3, bad)
    _, replies = broadcast_call_out(0, APP, g, installs)
    outcome = majority_vote(replies)
    assert outcome.majority_digest == clean.fingerprint()
    assert outcome.supporters == (1, 2)
    assert outcome.dissenters == (3,)

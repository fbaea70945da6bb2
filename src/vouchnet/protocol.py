"""Multi-peer credibility checking.

Before installing an app from a community member, a device calls out for
fingerprints of the same app, drops replies from devices whose pairwise
keys are too old to matter, takes a majority vote over the remaining
digests, picks its source among the supporters, and warns the dissenters
that their copies look corrupted.
"""

from __future__ import annotations

import random
from typing import Callable, Iterable, Sequence

from .apps import AppId, InstallState
from .community import CommunityGraph
from .crypto import MIN_KEY_BITS, DEFAULT_WIDTH_BITS, Digest
from .messages import FingerprintReply, SuspicionNotice, VoteOutcome

Interceptor = Callable[[int, object], object]


def broadcast_call_out(requester: int, app_id: AppId,
                       graph: CommunityGraph, installs: InstallState,
                       width_bits: int = DEFAULT_WIDTH_BITS,
                       hop_limit: int | None = None,
                       interceptor: Interceptor | None = None,
                       ) -> tuple[list[int], list[FingerprintReply]]:
    """Ask the reachable community for fingerprints of one app.

    Every reachable holder answers with the digest of its own copy, subject
    to its behavior (the interceptor may rewrite or swallow a reply).
    Returns the polled ids, so the caller can score silence, and the
    replies in responder-id order.
    """
    polled = graph.reachable_from(requester, hop_limit)
    replies: list[FingerprintReply] = []
    for node in polled:
        package = installs.get(node, app_id)
        if package is None:
            continue  # nothing to report; silence is not an offence here
        reply = FingerprintReply(node, app_id, package.fingerprint(width_bits),
                                 graph.nodes[node].key_length_bits)
        if interceptor is not None:
            reply = interceptor(node, reply)
        if reply is not None:
            replies.append(reply)
    return polled, replies


def filter_old_devices(replies: Iterable[FingerprintReply],
                       min_key_bits: int = MIN_KEY_BITS) -> list[FingerprintReply]:
    """Keep only replies from devices with acceptably fresh key material."""
    return [r for r in replies if r.key_length_bits >= min_key_bits]


def majority_vote(replies: Sequence[FingerprintReply]) -> VoteOutcome | None:
    """Group replies by digest; the strictly largest class wins.

    Returns None when no class is strictly largest, on an even split or
    with no replies at all: with no majority the device falls back to the
    store instead of guessing.
    """
    groups: dict[Digest, list[FingerprintReply]] = {}
    for r in replies:
        groups.setdefault(r.digest, []).append(r)
    ranked = sorted(groups.values(), key=len, reverse=True)
    if not ranked or (len(ranked) > 1 and len(ranked[0]) == len(ranked[1])):
        return None
    majority = ranked[0]
    dissent = {r.responder: r.digest for group in ranked[1:] for r in group}
    return VoteOutcome(app_id=replies[0].app_id, majority_digest=majority[0].digest,
                       supporters=tuple(sorted(r.responder for r in majority)),
                       dissenters=tuple(sorted(dissent)),
                       dissent_digests=dissent,
                       unanimous=not dissent)


def choose_source(outcome: VoteOutcome, rng: random.Random) -> int:
    """Pick the delivery source uniformly among the vote's supporters."""
    return rng.choice(list(outcome.supporters))


def notify_dissenters(outcome: VoteOutcome, requester: int) -> list[SuspicionNotice]:
    """Tell each dissenting holder which digest the community settled on."""
    return [SuspicionNotice(sender=requester, target=node, app_id=outcome.app_id,
                            suspected_digest=outcome.dissent_digests[node],
                            majority_digest=outcome.majority_digest)
            for node in outcome.dissenters]

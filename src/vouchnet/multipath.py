"""Multipath MAC authentication of an app delivery.

The sender binds (app id, payload digest) under one pairwise key per
chosen neighbor. The requester recomputes the payload digest before doing
anything else, so a payload swapped in after the vote is caught no matter
what the verifiers say; the verifier quorum then defends against a sender
that never shared the voted content at all.

A verification round polls the MAC'd neighbors by id; each one checks the
tag under the key it shares with the sender and answers with a
``VerifyReply``. The round encodes nothing itself: ``mac_message`` hands
it the binding the sender's digest keeps, and a key that tagged that
binding compares against its kept tag instead of hashing again.
"""

from __future__ import annotations

import random
from typing import Sequence

from .apps import AppPackage
from .community import CommunityGraph
from .crypto import DEFAULT_WIDTH_BITS, MIN_KEY_BITS, Digest, fingerprint, verify_mac, mac
from .errors import NoVerifiersError, VouchnetError
from .messages import (
    REASON_INSUFFICIENT,
    REASON_QUORUM,
    AcceptanceDecision,
    AuthPackage,
    VerifyReply,
    mac_message,
)
from .protocol import Interceptor

DEFAULT_MAC_FANOUT = 10
DEFAULT_QUORUM = 0.5

_new_reply = tuple.__new__


def build_auth_package(sender: int, package: AppPackage, graph: CommunityGraph,
                       fanout: int = DEFAULT_MAC_FANOUT,
                       rng: random.Random | None = None,
                       width_bits: int = DEFAULT_WIDTH_BITS,
                       min_key_bits: int = MIN_KEY_BITS) -> AuthPackage | None:
    """Wrap a package with MACs for min(fanout, usable neighbors) peers.

    Neighbors whose shared key is below the minimum length cannot vouch for
    anything and are skipped. Returns None when no neighbor is usable: the
    delivery cannot be authenticated.
    """
    store = graph.keystores[sender]
    usable = [n for n in graph.neighbors(sender)
              if store[n].length_bits >= min_key_bits]
    if not usable:
        return None
    m = min(fanout, len(usable))
    chosen = sorted(rng.sample(usable, m)) if rng is not None else usable[:m]
    claimed = package.fingerprint(width_bits)
    bound = mac_message(package.app_id, claimed)
    macs = tuple((n, mac(store[n], bound, width_bits=width_bits,
                         min_key_bits=min_key_bits))
                 for n in chosen)
    return AuthPackage(sender=sender, app_id=package.app_id, payload=package.payload,
                       claimed_digest=claimed, macs=macs)


def toc_tou_check(auth: AuthPackage, expected: Digest) -> bool:
    """Recompute the payload digest and bind it to the vote.

    True only when payload digest, claimed digest, and the digest the
    community voted for are all one and the same value.
    """
    actual = fingerprint(auth.payload, expected.width_bits)
    return actual == auth.claimed_digest == expected


def verify_round(requester: int, auth: AuthPackage, graph: CommunityGraph,
                 interceptor: Interceptor | None = None,
                 min_key_bits: int = MIN_KEY_BITS,
                 ) -> tuple[tuple[int, ...], list[VerifyReply]]:
    """Poll every MAC'd neighbor: does this tag really bind this digest?

    Returns the polled verifier ids, in MAC order, and the replies that
    came back. Each verifier answers from its own key material; a neighbor
    that has since lost its link to the sender, or whose behavior swallows
    the reply, is polled but contributes nothing. A tag made under some
    other pair's key is a False verdict; a broken key store surfaces as an
    error rather than a quiet negative verdict.
    ``requester`` is unused, since a verifier answers the same whoever
    asks; it stays only for the positional call shape
    ``verify_round(requester, auth, graph, interceptor=...)``.
    """
    polled: list[int] = []
    replies: list[VerifyReply] = []
    bound = mac_message(auth.app_id, auth.claimed_digest)
    sender = auth.sender
    keystores = graph.keystores
    sender_links = keystores.get(sender, ())
    for verifier, tag in auth.macs:
        polled.append(verifier)
        if verifier not in sender_links:
            continue  # link gone; nobody holds the key anymore
        key = keystores[verifier].get(sender)
        if key is None:
            raise VouchnetError(
                f"verifier {verifier} is linked to {sender} but holds no key")
        if tag.key_id != key.key_id:
            verdict = False  # tag speaks for some other pairing; worthless here
        else:
            verdict = verify_mac(key, bound, tag, min_key_bits=min_key_bits)
        # tuple.__new__ skips the named tuple's Python-level __new__; the
        # reply is still a VerifyReply, which interceptors dispatch on.
        reply = _new_reply(VerifyReply, (verifier, verdict))
        if interceptor is not None:
            reply = interceptor(verifier, reply)
        if reply is not None:
            replies.append(reply)
    return tuple(polled), replies


def decide(replies: Sequence[VerifyReply], total_polled: int,
           quorum: float = DEFAULT_QUORUM) -> AcceptanceDecision:
    """Accept only on a strict quorum of positive verdicts.

    Silence counts against acceptance: the denominator is everyone polled,
    not everyone who answered. Nobody polled is a caller fault and raises
    ``NoVerifiersError``.
    """
    if total_polled < 1:
        raise NoVerifiersError("cannot decide with nobody polled")
    positives = sum(1 for r in replies if r.verdict)
    accepted = positives > quorum * total_polled
    return AcceptanceDecision(accepted=accepted,
                              reason=REASON_QUORUM if accepted else REASON_INSUFFICIENT,
                              positives=positives, total_polled=total_polled)

"""Multipath MAC authentication of an app delivery.

The sender binds (app id, payload digest) under one pairwise key per
chosen neighbor. The requester recomputes the payload digest before doing
anything else, so a payload swapped in after the vote is caught no matter
what the verifiers say; the verifier quorum then defends against a sender
that never shared the voted content at all.

A verification round polls the MAC'd neighbors by id; each one recomputes
its tag with one HMAC under the key it shares with the sender and answers
with a ``VerifyReply``.
"""

from __future__ import annotations

import random
from typing import Sequence

from .apps import AppPackage
from .community import CommunityGraph
from .crypto import DEFAULT_WIDTH_BITS, MIN_KEY_BITS, Digest, fingerprint, verify_mac, mac
from .errors import KeyMismatchError, NoVerifiersError, VouchnetError
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


def build_auth_package(sender: int, package: AppPackage, graph: CommunityGraph,
                       fanout: int = DEFAULT_MAC_FANOUT,
                       rng: random.Random | None = None,
                       width_bits: int = DEFAULT_WIDTH_BITS,
                       min_key_bits: int = MIN_KEY_BITS) -> AuthPackage:
    """Wrap a package with MACs for min(fanout, usable neighbors) peers.

    Neighbors whose shared key is below the minimum length cannot vouch for
    anything and are skipped. No usable neighbor at all means the delivery
    cannot be authenticated.
    """
    store = graph.keystores[sender]
    usable = [n for n in graph.neighbors(sender)
              if store.key_for(n).length_bits >= min_key_bits]
    if not usable:
        raise NoVerifiersError(f"sender {sender} has no usable neighbors to MAC through")
    m = min(fanout, len(usable))
    chosen = sorted(rng.sample(usable, m)) if rng is not None else usable[:m]
    claimed = package.fingerprint(width_bits)
    bound = mac_message(package.app_id, claimed)
    macs = tuple((n, mac(store.key_for(n), bound, width_bits=width_bits,
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
    the reply, is polled but contributes nothing. A broken key store
    surfaces as an error rather than a quiet negative verdict. The
    requester does not enter the check: a verifier answers the same
    whoever asks.
    """
    replies: list[VerifyReply] = []
    bound = mac_message(auth.app_id, auth.claimed_digest)
    sender = auth.sender
    keystores = graph.keystores
    sender_links = keystores.get(sender, ())
    for verifier, tag in auth.macs:
        if verifier not in sender_links:
            continue  # link gone; nobody holds the key anymore
        key = keystores[verifier].get(sender)
        if key is None:
            raise VouchnetError(
                f"verifier {verifier} is linked to {sender} but holds no key")
        try:
            verdict = verify_mac(key, bound, tag, min_key_bits=min_key_bits)
        except KeyMismatchError:
            verdict = False  # tag speaks for some other pairing; worthless here
        reply = VerifyReply(verifier=verifier, verdict=verdict)
        if interceptor is not None:
            reply = interceptor(verifier, reply)
        if reply is not None:
            replies.append(reply)
    return auth.verifier_ids(), replies


def decide(replies: Sequence[VerifyReply], total_polled: int,
           quorum: float = DEFAULT_QUORUM) -> AcceptanceDecision:
    """Accept only on a strict quorum of positive verdicts.

    Silence counts against acceptance: the denominator is everyone polled,
    not everyone who answered.
    """
    if total_polled < 1:
        raise NoVerifiersError("cannot decide with nobody polled")
    positives = sum(1 for r in replies if r.verdict)
    accepted = positives > quorum * total_polled
    return AcceptanceDecision(accepted=accepted,
                              reason=REASON_QUORUM if accepted else REASON_INSUFFICIENT,
                              positives=positives, total_polled=total_polled)

"""Protocol message types shared by the credibility and authentication layers.

MACs are always computed over ``mac_message`` output, never over an ad-hoc
string, so sender and verifier agree on the exact bytes being authenticated.

The messages a retrieval builds many of and reads few fields from are
immutable named tuples: they compare as tuples, and ``_replace`` copies
one with a field changed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .apps import AppId
from .crypto import Digest, MacTag
from .wire import encode_fields

# Why a retrieval ended. The first two end it before a source is chosen;
# the other four are acceptance decision reasons.
REASON_NO_REPLIES = "no-replies"
REASON_VOTE_TIE = "vote-tie"
REASON_QUORUM = "quorum-reached"
REASON_INSUFFICIENT = "insufficient-verdicts"
REASON_FINGERPRINT = "fingerprint-mismatch"
REASON_NO_VERIFIERS = "no-verifiers"


def mac_message(app_id: AppId, digest: Digest) -> bytes:
    """The bytes a sender authenticates: app identity bound to a digest.

    The digest keeps the last binding encoded for it with the app object
    it was encoded for, and a call with that same object gets the kept
    bytes back. An equal but distinct app, or another app, is encoded
    afresh and replaces the kept binding; both values are frozen, so the
    kept bytes always equal a fresh encoding.
    """
    try:
        kept_app, bound = digest._memo
    except AttributeError:  # never bound
        kept_app = None
    if kept_app is not app_id:
        bound = encode_fields("mac", app_id.name, app_id.version, digest.bits)
        object.__setattr__(digest, "_memo", (app_id, bound))
    return bound


class FingerprintReply(NamedTuple):
    responder: int
    app_id: AppId
    digest: Digest
    key_length_bits: int


class VoteOutcome(NamedTuple):
    app_id: AppId
    majority_digest: Digest
    supporters: tuple[int, ...]
    dissenters: tuple[int, ...]
    dissent_digests: dict[int, Digest]
    unanimous: bool


class SuspicionNotice(NamedTuple):
    sender: int
    target: int
    app_id: AppId
    suspected_digest: Digest
    majority_digest: Digest


class AuthPackage(NamedTuple):
    """An app delivery: payload, the digest the sender claims, and one MAC
    per chosen neighbor binding the app id to that digest."""

    sender: int
    app_id: AppId
    payload: bytes
    claimed_digest: Digest
    macs: tuple[tuple[int, MacTag], ...]


class VerifyReply(NamedTuple):
    verifier: int
    verdict: bool


@dataclass(frozen=True)
class AcceptanceDecision:
    accepted: bool
    reason: str
    positives: int
    total_polled: int

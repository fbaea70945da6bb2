"""Protocol message types shared by the credibility and authentication layers.

MACs are always computed over ``mac_message`` output, never over an ad-hoc
string, so sender and verifier agree on the exact bytes being authenticated.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    """The bytes a sender authenticates: app identity bound to a digest."""
    return encode_fields("mac", app_id.name, app_id.version, digest.bits)


@dataclass(frozen=True)
class CallOut:
    requester: int
    app_id: AppId
    round_no: int


@dataclass(frozen=True)
class FingerprintReply:
    responder: int
    app_id: AppId
    digest: Digest
    key_length_bits: int


@dataclass(frozen=True)
class VoteOutcome:
    app_id: AppId
    majority_digest: Digest
    supporters: tuple[int, ...]
    dissenters: tuple[int, ...]
    dissent_digests: dict[int, Digest] = field(hash=False)
    unanimous: bool


@dataclass(frozen=True)
class SuspicionNotice:
    sender: int
    target: int
    app_id: AppId
    suspected_digest: Digest
    majority_digest: Digest


@dataclass(frozen=True)
class AuthPackage:
    """An app delivery: payload, the digest the sender claims, and one MAC
    per chosen neighbor binding the app id to that digest."""

    sender: int
    app_id: AppId
    payload: bytes
    claimed_digest: Digest
    macs: tuple[tuple[int, MacTag], ...]

    def verifier_ids(self) -> tuple[int, ...]:
        return tuple(v for v, _ in self.macs)


@dataclass(frozen=True)
class VerifyReply:
    verifier: int
    verdict: bool


@dataclass(frozen=True)
class AcceptanceDecision:
    accepted: bool
    reason: str
    positives: int
    total_polled: int

"""Subjective trust bookkeeping.

Each device keeps, per peer, an estimated response probability and a
conditional trust in what the peer says when it does respond. A poll's
combined trust is the response-weighted convex combination of the
responders' conditional trusts; weights are normalized over the polled
subset so the result stays inside [0, 1] even though the underlying
events do not partition anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Mapping, Sequence

from .errors import VouchnetError

STRANGER_RESP = 0.5
STRANGER_COND = 0.5
# Smoothing factor of both running estimates.
ALPHA = 0.1


@dataclass(slots=True)
class TrustRecord:
    resp_prob: float = STRANGER_RESP
    cond_trust: float = STRANGER_COND


class Ledger:
    """One device's trust records about its peers."""

    def __init__(self, owner: int) -> None:
        self.owner = owner
        self._records: dict[int, TrustRecord] = {}

    def get_record(self, peer: int) -> TrustRecord:
        """Current record; strangers read as the (``STRANGER_RESP``,
        ``STRANGER_COND``) prior."""
        rec = self._records.get(peer)
        return rec if rec is not None else TrustRecord()

    def known_peers(self) -> list[int]:
        return sorted(self._records)

    def records(self) -> Mapping[int, TrustRecord]:
        """Every record by peer, in no set order: the ledger's own mapping, not a copy."""
        return self._records

    def _touch(self, peer: int) -> TrustRecord:
        rec = self._records.get(peer)
        if rec is None:
            rec = TrustRecord()
            self._records[peer] = rec
        return rec

    def drop_peers(self, peers: AbstractSet[int]) -> None:
        """Forget ``peers``; only those this ledger knows are touched."""
        for peer in self._records.keys() & peers:
            del self._records[peer]


def update_response(ledger: Ledger, peer: int, responded: bool) -> TrustRecord:
    """Exponentially smooth the response estimate toward 1 or 0."""
    rec = ledger._touch(peer)
    target = 1.0 if responded else 0.0
    rec.resp_prob = (1.0 - ALPHA) * rec.resp_prob + ALPHA * target
    return rec


def update_correctness(ledger: Ledger, peer: int, agreed_with_majority: bool) -> TrustRecord:
    """Smooth conditional trust after a vote the peer took part in."""
    rec = ledger._touch(peer)
    target = 1.0 if agreed_with_majority else 0.0
    rec.cond_trust = (1.0 - ALPHA) * rec.cond_trust + ALPHA * target
    return rec


def subjective_trust(ledger: Ledger, responders: Sequence[int]) -> float:
    """Combined trust in a poll outcome, given who responded.

    Weights are the responders' response probabilities normalized over the
    polled subset; if every weight is zero the responders count equally.
    """
    if not responders:
        raise VouchnetError("subjective trust over an empty responder set is undefined")
    records = [ledger.get_record(p) for p in responders]
    total = sum(r.resp_prob for r in records)
    if total == 0.0:
        return sum(r.cond_trust for r in records) / len(records)
    return sum(r.cond_trust * (r.resp_prob / total) for r in records)


def _combine(resp_prob: float, cond_trust: float) -> float:
    """Response-weighted correctness, rescaled so the maximum-uncertainty
    stranger reads 0.5, capped at 1."""
    return min(1.0, 2.0 * resp_prob * cond_trust)


# Combined trust in a peer the ledger holds no record of.
STRANGER_TRUST = _combine(STRANGER_RESP, STRANGER_COND)


def combined_trust(ledger: Ledger, peer: int) -> float:
    """Trust in a single peer as a collaborator: ``STRANGER_TRUST`` for a
    peer without a record, otherwise its record combined as above.

    A peer that stops answering decays toward 0 regardless of how good its
    past answers were; link severance and formation utilities key on
    exactly that.
    """
    rec = ledger._records.get(peer)
    return STRANGER_TRUST if rec is None else _combine(rec.resp_prob, rec.cond_trust)

"""Run trace: the ordered event log and per-retrieval slices of it.

The log is the ground truth a run is judged by. Its digest is computed
over a canonical byte serialization, so two runs agree exactly when their
logs agree bit for bit.
"""

from __future__ import annotations

import struct
import sys
from dataclasses import dataclass, field
from typing import NamedTuple

from .crypto import DEFAULT_WIDTH_BITS, Digest, new_hash
from .messages import REASON_QUORUM
from .wire import HEADER, INT, TAG_INT, TAG_STR, encode_fields

# Event kinds. The six protocol-message kinds each advance the tick and
# belong to one retrieval; the other kinds are bookkeeping and never tick.
EV_EPOCH = "epoch"
EV_JOIN = "join"
EV_LEAVE = "leave"
EV_SEVER = "sever"
EV_LINK = "link"
EV_STORE_REFRESH = "store_refresh"
EV_CALL_OUT = "call_out"
EV_REPLY = "reply"
EV_OLD_FILTERED = "old_filtered"
EV_VOTE = "vote"
EV_NOTICE = "notice"
EV_SOURCE = "source"
EV_DELIVERY = "delivery"
EV_VERIFY_REQ = "verify_req"
EV_VERIFY_REPLY = "verify_reply"
EV_DECISION = "decision"
EV_INSTALL = "install"
EV_STORE_FETCH = "store_fetch"

EVENT_KINDS = (EV_EPOCH, EV_JOIN, EV_LEAVE, EV_SEVER, EV_LINK, EV_STORE_REFRESH,
               EV_CALL_OUT, EV_REPLY, EV_OLD_FILTERED, EV_VOTE, EV_NOTICE, EV_SOURCE,
               EV_DELIVERY, EV_VERIFY_REQ, EV_VERIFY_REPLY, EV_DECISION, EV_INSTALL,
               EV_STORE_FETCH)

MESSAGE_KINDS = frozenset({EV_CALL_OUT, EV_REPLY, EV_NOTICE, EV_DELIVERY,
                           EV_VERIFY_REQ, EV_VERIFY_REPLY})

# One row per kind: (head, kind_field, ticks, units). A record's wire form is
# encode_fields(tick, kind, retrieval or -1, bits, "key=value" for each key in
# sorted order); ``head`` packs its four leading fields, with ``kind_field``,
# the kind's own field, encoded once. ``ticks`` is whether the kind advances
# the tick. ``units`` is its price in digest-width units: one for a
# fingerprint reply, a verification request and a verification reply; for a
# delivery, the name of the field that counts its MACs, one unit each; none
# for a call-out, a notice and every bookkeeping event.
_INT_HEAD = HEADER.pack(TAG_INT, INT.size)
KINDS = {
    kind: (struct.Struct(f">{HEADER.size}sq{len(kind_field)}s{HEADER.size}sq{HEADER.size}sq"),
           kind_field, kind in MESSAGE_KINDS,
           {EV_REPLY: 1, EV_VERIFY_REQ: 1, EV_VERIFY_REPLY: 1, EV_DELIVERY: "macs"}.get(kind, 0))
    for kind, kind_field in ((kind, encode_fields(kind)) for kind in EVENT_KINDS)}


def _encode(tick: int, kind: str, retrieval: int, bits: int,
            data: dict) -> tuple[dict[str, str], bytes]:
    """One pass over a record's sorted keys: its values as interned
    strings, and its wire form. ``retrieval`` is -1 for a record outside any
    retrieval. Most values repeat across a log (ids, booleans, digests,
    reasons), so interning keeps one copy of each per process."""
    head, kind_field, _, _ = KINDS[kind]
    parts = [head.pack(_INT_HEAD, tick, kind_field, _INT_HEAD, retrieval, _INT_HEAD, bits)]
    strings = {}
    for key in sorted(data):
        value = strings[key] = sys.intern(str(data[key]))
        raw = f"{key}={value}".encode("utf-8")
        parts += (HEADER.pack(TAG_STR, len(raw)), raw)
    return strings, b"".join(parts)


class EventRecord(NamedTuple):
    """One logged event; ``data`` maps each key to its value as an interned
    string.

    ``data`` is a plain dict and must not be edited: the log hashed the
    record's wire form when it was appended, so an edit leaves
    ``EventLog.digest()`` disagreeing with ``canonical_bytes()``. A
    read-only mapping would enforce this, but it measured about 4% slower
    on a campaign sweep, so it is left to the caller.
    """

    tick: int
    kind: str
    data: dict[str, str]
    bits: int = 0
    retrieval: int | None = None

    def wire(self) -> bytes:
        """The record's canonical bytes: the unit of the log digest."""
        retrieval = -1 if self.retrieval is None else self.retrieval
        return _encode(self.tick, self.kind, retrieval, self.bits, self.data)[1]

    def to_json_dict(self) -> dict:
        out: dict = {"tick": self.tick, "kind": self.kind, "bits": self.bits}
        if self.retrieval is not None:
            out["retrieval"] = self.retrieval
        out.update(sorted(self.data.items()))
        return out


class EventLog:
    """Append-only, tick-ordered record of everything a run did.

    Each record is encoded once, when it is appended, into a running hash
    at the log's width, so the digest costs no second pass over the log.
    Records therefore enter only through ``append``.
    """

    def __init__(self, width_bits: int = DEFAULT_WIDTH_BITS) -> None:
        self.width_bits = width_bits
        self.records: list[EventRecord] = []
        self._tick = 0
        self._hash = new_hash(width_bits)

    def append(self, kind: str, data: dict, trace: RetrievalTrace | None = None) -> EventRecord:
        """Record one event: tick and price it by its kind's row in
        ``KINDS``, store its values as strings, and file it under
        ``trace``'s retrieval when one is given."""
        _, _, ticks, units = KINDS[kind]
        if ticks:
            self._tick += 1  # only on a tick, so the records between ticks share one int
        bits = (int(data[units]) if isinstance(units, str) else units) * self.width_bits
        retrieval = None if trace is None else trace.retrieval
        strings, wire = _encode(self._tick, kind, -1 if retrieval is None else retrieval,
                                bits, data)
        record = EventRecord(self._tick, kind, strings, bits, retrieval)
        self.records.append(record)
        self._hash.update(wire)
        if trace is not None:
            trace.events.append(record)
        return record

    def by_kind(self, kind: str) -> list[EventRecord]:
        return [r for r in self.records if r.kind == kind]

    def canonical_bytes(self) -> bytes:
        return b"".join(r.wire() for r in self.records)

    def digest(self) -> Digest:
        """``fingerprint(self.canonical_bytes(), self.width_bits)``, from the running hash."""
        return Digest(bits=self._hash.copy().digest(), width_bits=self.width_bits)

    def __len__(self) -> int:
        return len(self.records)


@dataclass(slots=True)
class RetrievalTrace:
    """The slice of a run belonging to one retrieval attempt."""

    retrieval: int
    epoch: int
    requester: int
    app_label: str
    events: list[EventRecord] = field(default_factory=list)
    reason: str = ""
    infected_install: bool = False
    payload_bytes: int = 0
    responders: int = 0
    # Notices to holders of a clean copy: the log does not say what they held.
    false_accusations: int = 0

    @property
    def accepted(self) -> bool:
        return self.reason == REASON_QUORUM

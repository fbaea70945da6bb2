"""Run metrics: per-epoch counters, per-retrieval overhead, trust samples.

Overhead follows the digest-unit cost model, which ``EventLog.append``
applies to every message it logs: each fingerprint reply, MAC,
verification request, and verification reply costs exactly one digest
width on the wire. Payload bytes ride outside that model and are reported
separately.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from .events import (
    EV_DELIVERY,
    EV_NOTICE,
    EV_OLD_FILTERED,
    EV_REPLY,
    EV_VERIFY_REPLY,
    EV_VERIFY_REQ,
    EV_VOTE,
    RetrievalTrace,
)
from .messages import REASON_FINGERPRINT, REASON_NO_REPLIES, REASON_VOTE_TIE


@dataclass(slots=True)
class EpochMetrics:
    epoch: int
    nodes: int = 0
    edges: int = 0
    infections: int = 0
    homophily: float | None = None
    retrievals: int = 0
    accepted: int = 0
    tampered_accepted: int = 0
    notices: int = 0
    false_accusations: int = 0
    old_filtered: int = 0
    tocttou_rejections: int = 0
    vote_unanimous: int = 0
    vote_split: int = 0
    vote_ties: int = 0
    vote_no_replies: int = 0
    joins: int = 0
    leaves: int = 0
    severed: int = 0
    links_formed: int = 0


def tally(row: EpochMetrics, trace: RetrievalTrace) -> None:
    """Add one finished retrieval to its epoch's counters, read from the
    reason it ended with and the kinds of event it logged. A vote is split
    exactly when it sent notices."""
    kinds = [e.kind for e in trace.events]
    notices = kinds.count(EV_NOTICE)
    row.retrievals += 1
    row.accepted += trace.accepted
    row.tampered_accepted += trace.infected_install
    row.notices += notices
    row.false_accusations += trace.false_accusations
    row.old_filtered += kinds.count(EV_OLD_FILTERED)
    row.tocttou_rejections += trace.reason == REASON_FINGERPRINT
    row.vote_unanimous += EV_VOTE in kinds and not notices
    row.vote_split += notices > 0
    row.vote_ties += trace.reason == REASON_VOTE_TIE
    row.vote_no_replies += trace.reason == REASON_NO_REPLIES


@dataclass(slots=True)
class TrustSample:
    epoch: int
    owner: int
    peer: int
    resp_prob: float
    cond_trust: float
    combined: float


@dataclass(slots=True)
class OverheadRecord:
    retrieval: int
    epoch: int
    requester: int
    app: str
    responders: int
    reply_bits: int
    mac_bits: int
    verify_bits: int
    total_bits: int
    payload_bytes: int


def account_overhead(trace: RetrievalTrace) -> OverheadRecord:
    """Price one retrieval from its own event slice.

    The sums are recomputed from logged messages rather than taken from
    counters, so the accounting cannot drift from the log.
    """
    reply_bits = mac_bits = verify_bits = 0
    for e in trace.events:
        if e.kind == EV_REPLY:
            reply_bits += e.bits
        elif e.kind == EV_DELIVERY:
            mac_bits += e.bits
        elif e.kind in (EV_VERIFY_REQ, EV_VERIFY_REPLY):
            verify_bits += e.bits
    return OverheadRecord(
        retrieval=trace.retrieval, epoch=trace.epoch, requester=trace.requester,
        app=trace.app_label, responders=trace.responders,
        reply_bits=reply_bits, mac_bits=mac_bits, verify_bits=verify_bits,
        total_bits=reply_bits + mac_bits + verify_bits,
        payload_bytes=trace.payload_bytes)


def bandwidth_table(peers: int, width_bits: int) -> dict[str, int]:
    """Closed-form cost of one retrieval with ``peers`` responders and the
    same number of MAC'd verifiers, each of whom answers."""
    reply_bits = peers * width_bits
    mac_bits = peers * width_bits
    verify_bits = 2 * peers * width_bits
    return {
        "reply_bits": reply_bits,
        "mac_bits": mac_bits,
        "verify_bits": verify_bits,
        "total_bits": reply_bits + mac_bits + verify_bits,
    }


def _csv(cls, rows) -> str:
    """One header line of ``cls``'s field names, then one line per row."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=[f.name for f in fields(cls)])
    writer.writeheader()
    for row in rows:
        writer.writerow(asdict(row))
    return buf.getvalue()


@dataclass
class MetricsReport:
    parameters: dict
    assumptions: list[str]
    epochs: list[EpochMetrics] = field(default_factory=list)
    overhead: list[OverheadRecord] = field(default_factory=list)
    trust: list[TrustSample] = field(default_factory=list)
    log_digest: str = ""

    # -- aggregation -----------------------------------------------------

    def totals(self) -> dict:
        out = {
            "epochs": len(self.epochs),
            "retrievals": sum(e.retrievals for e in self.epochs),
            "accepted": sum(e.accepted for e in self.epochs),
            "tampered_accepted": sum(e.tampered_accepted for e in self.epochs),
            "notices": sum(e.notices for e in self.epochs),
            "false_accusations": sum(e.false_accusations for e in self.epochs),
            "tocttou_rejections": sum(e.tocttou_rejections for e in self.epochs),
            "total_bits": sum(o.total_bits for o in self.overhead),
            "final_infections": self.epochs[-1].infections if self.epochs else 0,
            "final_nodes": self.epochs[-1].nodes if self.epochs else 0,
            "final_edges": self.epochs[-1].edges if self.epochs else 0,
            "final_homophily": self.epochs[-1].homophily if self.epochs else None,
            "log_digest": self.log_digest,
        }
        return out

    def acceptance_rate(self) -> float | None:
        total = sum(e.retrievals for e in self.epochs)
        if total == 0:
            return None
        return sum(e.accepted for e in self.epochs) / total

    # -- emission ----------------------------------------------------------

    def jsonl_lines(self) -> list[str]:
        """Line-delimited records: one per epoch, overhead row, trust sample."""
        lines = [json.dumps({"type": "run", "assumptions": self.assumptions,
                             "log_digest": self.log_digest,
                             "parameters": self.parameters}, sort_keys=True)]
        for row in self.epochs:
            lines.append(json.dumps({"type": "epoch", **asdict(row)}, sort_keys=True))
        for rec in self.overhead:
            lines.append(json.dumps({"type": "overhead", **asdict(rec)}, sort_keys=True))
        for sample in self.trust:
            lines.append(json.dumps({"type": "trust", **asdict(sample)}, sort_keys=True))
        return lines

    def epoch_csv(self) -> str:
        return _csv(EpochMetrics, self.epochs)

    def overhead_csv(self) -> str:
        return _csv(OverheadRecord, self.overhead)

    def write(self, out_dir: str | Path) -> None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "metrics.jsonl").write_text("\n".join(self.jsonl_lines()) + "\n",
                                           encoding="utf-8")
        (out / "epochs.csv").write_text(self.epoch_csv(), encoding="utf-8")
        (out / "overhead.csv").write_text(self.overhead_csv(), encoding="utf-8")
        (out / "summary.json").write_text(
            json.dumps(self.totals(), indent=2, sort_keys=True) + "\n", encoding="utf-8")

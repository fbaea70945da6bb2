"""Span tracer for the benchmark's traced runs.

``install`` replaces public functions of vouchnet by timing wrappers where
callers look them up: every vouchnet module attribute bound to a traced
function is rebound, and methods are wrapped on their class. Modules
import functions by name, so patching only the defining module would miss
most calls. ``uninstall`` puts every original back; nothing under ``src/``
knows about the tracer.

Each wrapped call pushes a frame. On return its duration is added to the
caller's child time, so a function's self time is its total time minus the
time spent in traced callees. Functions marked as spans also record one
span each: id, name, trace id, parent span id, start and end. The hot
leaves, called hundreds of thousands of times a run, are only counted and
timed, which keeps memory flat. Spans stay in memory until ``write``.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import json
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Target:
    name: str            # "<layer>.<function>" as reported
    owner: str           # "module" or "module:Class"
    attr: str
    span: bool = False   # record individual spans, not just totals
    observe: Callable | None = None   # (tracer, args, result) after each call
    enter: Callable | None = None     # (tracer, args) -> trace id for the call


def _fingerprint(tracer, args, digest):
    tracer.counters["crypto.fingerprint.bytes"] += len(args[0])
    key = (digest.width_bits, digest.bits)
    if key in tracer.seen_digests:
        tracer.counters["crypto.fingerprint.repeats"] += 1
    else:
        tracer.seen_digests.add(key)


def _count(counter: str, measure: Callable) -> Callable:
    def observe(tracer, args, result):
        tracer.counters[counter] += measure(args, result)
    return observe


def _outcome(tracer, args, trace):
    tracer.counters[f"engine.outcome.{trace.reason}"] += 1


TARGETS = (
    Target("community.propose_and_approve", "vouchnet.community", "propose_and_approve",
           span=True, observe=_count("community.links_formed", lambda a, r: len(r))),
    Target("community.marginal_utility", "vouchnet.community", "marginal_utility"),
    Target("community.churn", "vouchnet.community", "churn", span=True),
    Target("community.designate_supernodes", "vouchnet.community", "designate_supernodes",
           span=True),
    Target("community.homophily_index", "vouchnet.community", "homophily_index", span=True),
    Target("community.reachable_from", "vouchnet.community:CommunityGraph", "reachable_from",
           span=True),
    Target("trust.combined_trust", "vouchnet.trust", "combined_trust"),
    Target("trust.update_response", "vouchnet.trust", "update_response"),
    Target("trust.update_correctness", "vouchnet.trust", "update_correctness"),
    Target("protocol.broadcast_call_out", "vouchnet.protocol", "broadcast_call_out", span=True,
           observe=_count("protocol.replies", lambda a, r: len(r[1]))),
    Target("protocol.majority_vote", "vouchnet.protocol", "majority_vote", span=True),
    Target("multipath.build_auth_package", "vouchnet.multipath", "build_auth_package",
           span=True),
    Target("multipath.verify_round", "vouchnet.multipath", "verify_round", span=True),
    Target("multipath.decide", "vouchnet.multipath", "decide", span=True),
    Target("crypto.fingerprint", "vouchnet.crypto", "fingerprint", observe=_fingerprint),
    Target("crypto.mac", "vouchnet.crypto", "mac"),
    Target("crypto.verify_mac", "vouchnet.crypto", "verify_mac"),
    Target("messages.mac_message", "vouchnet.messages", "mac_message"),
    Target("wire.encode_fields", "vouchnet.wire", "encode_fields",
           observe=_count("wire.encode_fields.bytes", lambda a, r: len(r))),
    Target("events.EventLog.append", "vouchnet.events:EventLog", "append"),
    Target("events.EventLog.digest", "vouchnet.events:EventLog", "digest", span=True,
           observe=_count("events.records", lambda a, r: len(a[0].records))),
    Target("events.EventLog.canonical_bytes", "vouchnet.events:EventLog", "canonical_bytes",
           observe=_count("events.canonical_bytes", lambda a, r: len(r))),
    Target("engine.run", "vouchnet.engine:Simulation", "run", span=True,
           enter=lambda t, a: f"{t.trace_id}/seed{a[0].seed}"),
    Target("engine.setup", "vouchnet.engine:Simulation", "_setup", span=True),
    Target("engine.execute_retrieval", "vouchnet.engine:Simulation", "execute_retrieval",
           span=True, observe=_outcome,
           enter=lambda t, a: f"{t.trace_id}/r{a[0].retrieval_count}"),
    Target("adversary.intercept", "vouchnet.adversary", "intercept"),
    Target("rng.derive_rng", "vouchnet.rng", "derive_rng"),
    Target("metrics.account_overhead", "vouchnet.metrics", "account_overhead", span=True),
    Target("scenario.apply_overrides", "vouchnet.scenario", "apply_overrides", span=True),
    Target("scenario.validate", "vouchnet.scenario:Scenario", "validate", span=True),
    Target("sweep.sweep", "vouchnet.sweep", "sweep", span=True,
           observe=_count("sweep.runs", lambda a, rows: sum(row["runs"] for row in rows))),
)


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    obj = importlib.import_module(module_name)
    return getattr(obj, class_name) if class_name else obj


class Tracer:
    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.total: Counter = Counter()
        self.child: Counter = Counter()
        self.caller_calls: Counter = Counter()   # (name, caller name) -> calls
        self.counters: Counter = Counter()
        self.seen_digests: set = set()
        self.spans: list[tuple] = []
        self.trace_id: str | None = None
        self._stack: list[list] = []
        self._ids = itertools.count(1)
        self._undo: list[tuple] = []

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "vouchnet" or name.startswith("vouchnet."))]
        for target in TARGETS:
            owner = _resolve(target.owner)
            original = owner.__dict__[target.attr]
            wrapped = self._wrap(target, original)
            if ":" in target.owner:
                self._patch(owner, target.attr, wrapped)
                continue
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapped)

    @contextlib.contextmanager
    def active(self, trace_id: str):
        """Trace everything inside the block under ``trace_id``."""
        self.seen_digests.clear()
        self.trace_id = trace_id
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        name, span, observe, enter = target.name, target.span, target.observe, target.enter
        stack, ids, spans, clock = self._stack, self._ids, self.spans, time.perf_counter
        calls, total, child, caller_calls = self.calls, self.total, self.child, self.caller_calls
        tracer = self

        def wrapped(*args, **kwargs):
            parent = stack[-1] if stack else None
            saved = tracer.trace_id
            if enter is not None:
                tracer.trace_id = enter(tracer, args)
            span_id = next(ids) if span else None
            # frame: child seconds, name, innermost enclosing span id
            frame = [0.0, name, span_id if span else (parent[2] if parent else None)]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                calls[name] += 1
                total[name] += duration
                child[name] += frame[0]
                if parent is not None:
                    parent[0] += duration
                    caller_calls[(name, parent[1])] += 1
                if span:
                    spans.append((span_id, name, tracer.trace_id,
                                  parent[2] if parent else None, start, end))
                tracer.trace_id = saved
            if observe is not None:
                observe(tracer, args, result)
            return result

        return wrapped

    # -- results -------------------------------------------------------------

    def self_s(self, name: str) -> float:
        return self.total[name] - self.child[name]

    def durations_us(self, name: str) -> list[float]:
        return sorted((end - start) * 1e6 for _, n, _, _, start, end in self.spans if n == name)

    def write(self, path) -> None:
        """One JSON array per line: id, name, trace id, parent id, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list; 0 when it is empty."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def layer_metrics(tracer: Tracer, reps: int, overhead_s: float) -> dict[str, float]:
    """Per-layer figures of a traced run, per rep, keyed by metric name."""
    calls, counters = tracer.calls, tracer.counters
    out: dict[str, float] = {}

    def per_rep(value: float) -> float:
        return value / reps

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    # The digest's own work is spread over ``digest`` and the
    # ``canonical_bytes`` it calls; the layer figure is their sum.
    canonical = tracer.self_s("events.EventLog.canonical_bytes")
    for name in ("community.propose_and_approve", "community.churn",
                 "community.designate_supernodes", "community.homophily_index",
                 "community.reachable_from", "trust.combined_trust",
                 "protocol.broadcast_call_out", "protocol.majority_vote",
                 "multipath.verify_round", "multipath.build_auth_package", "multipath.decide",
                 "crypto.mac", "crypto.verify_mac", "crypto.fingerprint", "wire.encode_fields",
                 "events.EventLog.append", "events.EventLog.digest",
                 "engine.execute_retrieval", "engine.setup", "adversary.intercept",
                 "rng.derive_rng", "metrics.account_overhead", "scenario.apply_overrides"):
        out[f"{name}.self_s"] = per_rep(tracer.self_s(name))
    out["events.EventLog.digest.self_s"] += per_rep(canonical)
    for name in ("community.marginal_utility", "community.reachable_from",
                 "trust.combined_trust", "trust.update_response", "trust.update_correctness",
                 "multipath.verify_round", "crypto.mac", "crypto.verify_mac",
                 "crypto.fingerprint", "messages.mac_message", "wire.encode_fields",
                 "events.EventLog.append", "engine.execute_retrieval", "adversary.intercept",
                 "rng.derive_rng", "scenario.validate"):
        out[f"{name}.calls"] = per_rep(calls[name])
    for name in ("multipath.verify_round", "engine.execute_retrieval"):
        durations = tracer.durations_us(name)
        out[f"{name}.p50_us"] = percentile(durations, 50)
        out[f"{name}.p99_us"] = percentile(durations, 99)

    links = counters["community.links_formed"]
    out["community.links_formed"] = per_rep(links)
    out["community.formation_yield"] = ratio(links, calls["community.marginal_utility"])
    out["protocol.replies_per_call_out"] = ratio(counters["protocol.replies"],
                                                 calls["protocol.broadcast_call_out"])
    out["crypto.fingerprint.bytes"] = per_rep(counters["crypto.fingerprint.bytes"])
    out["crypto.fingerprint.repeat_share"] = ratio(counters["crypto.fingerprint.repeats"],
                                                   calls["crypto.fingerprint"])
    out["messages.mac_message_per_verify_round"] = ratio(
        tracer.caller_calls[("messages.mac_message", "multipath.verify_round")],
        calls["multipath.verify_round"])
    out["wire.encode_fields.bytes"] = per_rep(counters["wire.encode_fields.bytes"])
    out["events.records"] = per_rep(counters["events.records"])
    out["events.canonical_bytes"] = per_rep(counters["events.canonical_bytes"])
    for reason in ("no-replies", "vote-tie", "no-verifiers", "fingerprint-mismatch",
                   "insufficient-verdicts", "quorum-reached"):
        out[f"engine.outcome.{reason}"] = per_rep(counters[f"engine.outcome.{reason}"])
    out["sweep.runs"] = per_rep(counters["sweep.runs"])
    out["trace.overhead_s"] = overhead_s
    return out

"""Deterministic discrete-event simulation of the full protocol.

One run is a pure function of (scenario, seed). Every random draw comes
from a labeled sub-generator of the root seed, dictionary walks are over
sorted keys, and each protocol message advances the integer tick, so two
runs of the same scenario produce bit-identical event logs.
"""

from __future__ import annotations

import math

from . import metrics as metrics_mod
from .adversary import HOLDS_CAMPAIGN_COPY, InterceptContext, assign_behaviors, intercept
from .apps import AppCatalog, AppId, AppPackage, InstallState, tamper
from .community import (
    CommunityGraph,
    NodeProfile,
    churn,
    designate_supernodes,
    homophily_index,
    propose_and_approve,
)
from .events import (
    EV_CALL_OUT,
    EV_DECISION,
    EV_DELIVERY,
    EV_EPOCH,
    EV_INSTALL,
    EV_JOIN,
    EV_LEAVE,
    EV_LINK,
    EV_NOTICE,
    EV_OLD_FILTERED,
    EV_REPLY,
    EV_SEVER,
    EV_SOURCE,
    EV_STORE_FETCH,
    EV_STORE_REFRESH,
    EV_VERIFY_REPLY,
    EV_VERIFY_REQ,
    EV_VOTE,
    EventLog,
    RetrievalTrace,
)
from .messages import (
    REASON_FINGERPRINT,
    REASON_NO_REPLIES,
    REASON_NO_VERIFIERS,
    REASON_VOTE_TIE,
    AcceptanceDecision,
    VerifyReply,
)
from .multipath import build_auth_package, decide, toc_tou_check, verify_round
from .protocol import broadcast_call_out, choose_source, filter_old_devices, majority_vote, notify_dissenters
from .rng import derive_rng
from .scenario import Scenario
from .trust import Ledger, combined_trust, update_correctness, update_response

# Every run states what it takes on faith, so downstream consumers of the
# metrics can tell measured properties from modeling assumptions.
RUN_ASSUMPTIONS = (
    "fingerprint and verification replies are delivered unmodified unless a "
    "study knob says otherwise",
    "verifier compromise events are independent across paths",
)


def _ids_csv(ids) -> str:
    return "+".join(str(i) for i in sorted(ids))


class Simulation:
    """Mutable world state for one run. Build once, run once."""

    def __init__(self, scenario: Scenario, seed: int | None = None) -> None:
        scenario.validate()
        self.scenario = scenario
        self.seed = scenario.seed if seed is None else seed
        self.width = scenario.protocol.digest_width_bits
        self.log = EventLog(width_bits=self.width)
        self.graph = CommunityGraph()
        self.catalog = AppCatalog(width_bits=self.width)
        self.installs = InstallState()
        self.ledgers: dict[int, Ledger] = {}
        self.rounds: dict[int, int] = {}
        self.flagged: set[tuple[int, str]] = set()
        self.retrieval_count = 0
        self.traces: list[RetrievalTrace] = []
        self.epoch_rows: list[metrics_mod.EpochMetrics] = []
        self.trust_samples: list[metrics_mod.TrustSample] = []
        self._setup()

    # -- construction ----------------------------------------------------

    def _setup(self) -> None:
        sc = self.scenario
        n = sc.node_count

        # Deterministic type allocation by largest remainder: each label gets
        # its quota rounded down, leftover ids go to the largest remainders
        # (ties to the smaller label), and ids are assigned in label order.
        # Balanced weights give exactly balanced communities.
        labels = sorted(sc.type_distribution)
        total_w = sum(sc.type_distribution[t] for t in labels)
        quotas = {t: sc.type_distribution[t] / total_w * n for t in labels}
        counts = {t: math.floor(quotas[t]) for t in labels}
        leftover = n - sum(counts.values())
        for t in sorted(labels, key=lambda t: (counts[t] - quotas[t], t))[:leftover]:
            counts[t] += 1
        type_list: list[str] = []
        for t in labels:
            type_list.extend([t] * counts[t])

        old_count = math.floor(sc.old_devices.fraction * n)
        old_ids = (set(derive_rng(self.seed, "old_devices").sample(range(n), old_count))
                   if old_count else set())

        for i in range(n):
            profile = self.graph.add_node(NodeProfile(
                id=i, node_type=type_list[i], max_degree=sc.formation.max_degree))
            if i in old_ids:
                profile.key_length_bits = sc.old_devices.key_bits
            self.ledgers[i] = Ledger(i)

        key_rng = derive_rng(self.seed, "keys")
        if sc.topology == "complete":
            ids = self.graph.node_ids()
            for a in ids:
                for b in ids:
                    if a < b:
                        self.graph.add_edge(a, b, key_rng)
        for a, b in sc.initial_edges:
            if not self.graph.has_edge(a, b):
                self.graph.add_edge(a, b, key_rng)

        self.behaviors = assign_behaviors(self.graph, sc.compromise,
                                          derive_rng(self.seed, "compromise"))

        for spec in sorted(sc.apps, key=lambda a: a.label()):
            app_id = AppId(spec.name, spec.version)
            payload = derive_rng(self.seed, "payload", spec.label()).randbytes(spec.payload_bytes)
            clean = self.catalog.publish_clean(app_id, payload)

            holders = self._resolve_holders(spec.holders, range(n), "holders", spec.label())
            pre = self._resolve_holders(spec.tampered_holders, holders,
                                        "preinfect", spec.label())
            holders = sorted(set(holders) | set(pre))

            # Compromised servers and swappers hold corrupted copies from
            # the start: one variant per app, as a single campaign would
            # produce.
            serving = [h for h in holders if self.behaviors.get(h) in HOLDS_CAMPAIGN_COPY]
            if serving:
                campaign = tamper(clean, adversary=min(serving),
                                  rng=derive_rng(self.seed, "campaign", spec.label()),
                                  width_bits=self.width)

            for h in holders:
                if h in serving:
                    pkg = campaign
                elif h in pre:
                    pkg = tamper(clean, adversary=h,
                                 rng=derive_rng(self.seed, "tamper", spec.label(), h),
                                 width_bits=self.width)
                else:
                    pkg = clean
                self.installs.install(h, pkg)

        self.ictx = InterceptContext(catalog=self.catalog, keystores=self.graph.keystores,
                                     min_key_bits=sc.protocol.min_key_bits)

    def _resolve_holders(self, selector: object, pool, label: str, app: str) -> list[int]:
        """Resolve a holder selector, an id list, {"fraction": f} or "all",
        to sorted ids; a fraction samples ``pool`` with its own generator."""
        if selector == "all":
            return list(pool)
        if isinstance(selector, dict):
            k = math.floor(float(selector["fraction"]) * len(pool))
            return sorted(derive_rng(self.seed, label, app).sample(pool, k))
        return sorted(set(selector))

    # -- helpers ---------------------------------------------------------

    def _interceptor(self, node: int, message: object):
        behavior = self.behaviors.get(node)
        return message if behavior is None else intercept(behavior, message, self.ictx)

    def _decided(self, trace: RetrievalTrace, decision: AcceptanceDecision) -> str:
        self.log.append(EV_DECISION, {"accepted": decision.accepted, "reason": decision.reason,
                                      "positives": decision.positives,
                                      "polled": decision.total_polled}, trace=trace)
        return decision.reason

    def _install(self, trace: RetrievalTrace, package: AppPackage) -> None:
        self.installs.install(trace.requester, package)
        self.log.append(EV_INSTALL, {"node": trace.requester, "app": trace.app_label,
                                     "origin": package.origin,
                                     "digest": package.fingerprint(self.width).hex()}, trace=trace)

    # -- one retrieval -----------------------------------------------------

    def execute_retrieval(self, epoch: int, requester: int, app_id: AppId,
                          row: "metrics_mod.EpochMetrics") -> RetrievalTrace:
        """Run one retrieval to its end: install the vouched package, or
        fetch the store copy when the community could not vouch for one."""
        trace = RetrievalTrace(retrieval=self.retrieval_count, epoch=epoch,
                               requester=requester, app_label=app_id.label())
        self.retrieval_count += 1
        self.traces.append(trace)

        trace.reason, package = self._vouch(trace, app_id)
        if package is not None:
            trace.infected_install = package.is_tampered
            self._install(trace, package)
        elif not self.scenario.store_blocked and self.catalog.has(app_id):
            self.log.append(EV_STORE_FETCH, {"node": requester, "app": trace.app_label,
                                             "reason": trace.reason}, trace=trace)
            self._install(trace, self.catalog.clean_package(app_id))
        metrics_mod.tally(row, trace)
        return trace

    def _vouch(self, trace: RetrievalTrace, app_id: AppId) -> tuple[str, AppPackage | None]:
        """Call-out, vote, delivery and verification. Returns why the
        retrieval ended and the package to install, or None if there is none."""
        sc = self.scenario
        requester = trace.requester

        self.rounds[requester] = self.rounds.get(requester, 0) + 1
        polled, replies = broadcast_call_out(
            requester, app_id, self.graph, self.installs,
            width_bits=self.width, hop_limit=sc.protocol.hop_limit,
            interceptor=self._interceptor)
        self.log.append(EV_CALL_OUT, {"requester": requester, "app": trace.app_label,
                                      "round": self.rounds[requester]}, trace=trace)
        for reply in replies:
            self.log.append(EV_REPLY, {"responder": reply.responder,
                                       "digest": reply.digest.hex()}, trace=trace)
        trace.responders = len(replies)

        responded = {r.responder for r in replies}
        ledger = self.ledgers[requester]
        for node in polled:
            update_response(ledger, node, node in responded)

        kept = filter_old_devices(replies, sc.protocol.min_key_bits)
        kept_ids = {r.responder for r in kept}
        for reply in replies:
            if reply.responder not in kept_ids:
                self.log.append(EV_OLD_FILTERED, {"responder": reply.responder,
                                                  "key_bits": reply.key_length_bits}, trace=trace)

        if not kept:
            return REASON_NO_REPLIES, None
        outcome = majority_vote(kept)
        if outcome is None:
            return REASON_VOTE_TIE, None

        self.log.append(EV_VOTE, {"app": trace.app_label,
                                  "majority": outcome.majority_digest.hex(),
                                  "supporters": _ids_csv(outcome.supporters),
                                  "dissenters": _ids_csv(outcome.dissenters),
                                  "unanimous": outcome.unanimous}, trace=trace)

        for responder in outcome.supporters:
            update_correctness(ledger, responder, True)
        for responder in outcome.dissenters:
            update_correctness(ledger, responder, False)

        for notice in notify_dissenters(outcome, requester):
            self.log.append(EV_NOTICE, {"target": notice.target,
                                        "suspected": notice.suspected_digest.hex(),
                                        "majority": notice.majority_digest.hex()}, trace=trace)
            self.flagged.add((notice.target, trace.app_label))
            held = self.installs.get(notice.target, app_id)
            if held is not None and not held.is_tampered:
                trace.false_accusations += 1

        # Derived only here: a retrieval that ends before the source is
        # chosen never draws from its stream.
        rng = derive_rng(self.seed, "retrieval", trace.retrieval)
        source = choose_source(outcome, rng)
        self.log.append(EV_SOURCE, {"source": source}, trace=trace)

        package = self.installs.get(source, app_id)
        assert package is not None, "vote supporters always hold the app"
        auth = build_auth_package(source, package, self.graph,
                                  fanout=sc.protocol.mac_fanout, rng=rng,
                                  width_bits=self.width,
                                  min_key_bits=sc.protocol.min_key_bits)
        if auth is None:
            decision = AcceptanceDecision(False, REASON_NO_VERIFIERS, 0, 0)
            return self._decided(trace, decision), None

        auth = self._interceptor(source, auth)
        delivered = package
        if sc.study.delivery_substitution:
            delivered = tamper(AppPackage(app_id=app_id, payload=auth.payload,
                                          origin=package.origin, adversary=package.adversary),
                               adversary=source, rng=rng, width_bits=self.width)
            auth = auth._replace(payload=delivered.payload,
                                 claimed_digest=delivered.fingerprint(self.width))
        trace.payload_bytes = len(auth.payload)
        self.log.append(EV_DELIVERY, {"sender": auth.sender,
                                      "claimed": auth.claimed_digest.hex(),
                                      "macs": len(auth.macs),
                                      "payload_bytes": len(auth.payload)}, trace=trace)

        expected = outcome.majority_digest if sc.protocol.vote_binding else auth.claimed_digest
        if not toc_tou_check(auth, expected):
            decision = AcceptanceDecision(False, REASON_FINGERPRINT, 0, len(auth.macs))
            return self._decided(trace, decision), None

        compromise_p = sc.study.verifier_compromise_p
        if compromise_p is not None:
            lying = {v for v, _ in auth.macs if rng.random() < compromise_p}

            def verify_interceptor(node: int, message: object):
                if isinstance(message, VerifyReply) and node in lying:
                    return VerifyReply(verifier=node, verdict=True)
                return message
        else:
            verify_interceptor = self._interceptor

        polled, verdicts = verify_round(requester, auth, self.graph,
                                        interceptor=verify_interceptor,
                                        min_key_bits=sc.protocol.min_key_bits)
        replied = {v.verifier for v in verdicts}
        for verifier in polled:
            self.log.append(EV_VERIFY_REQ, {"verifier": verifier}, trace=trace)
        for verdict in verdicts:
            self.log.append(EV_VERIFY_REPLY, {"verifier": verdict.verifier,
                                              "verdict": verdict.verdict}, trace=trace)
        for verifier in polled:
            if verifier != requester:
                update_response(ledger, verifier, verifier in replied)

        decision = decide(verdicts, total_polled=len(polled),
                          quorum=sc.protocol.quorum)
        reason = self._decided(trace, decision)
        if not decision.accepted:
            return reason, None
        assert delivered.payload == auth.payload
        return reason, delivered

    # -- epochs ------------------------------------------------------------

    def _refresh_flagged(self) -> None:
        if self.scenario.store_blocked:
            return
        for node, label in sorted(self.flagged):
            self.installs.install(node, self.catalog.clean_package(AppId.parse(label)))
            self.log.append(EV_STORE_REFRESH, {"node": node, "app": label})
        self.flagged.clear()

    def _run_epoch(self, epoch: int) -> None:
        sc = self.scenario
        self.log.append(EV_EPOCH, {"epoch": epoch})
        row = metrics_mod.EpochMetrics(epoch=epoch)
        self.epoch_rows.append(row)

        self._refresh_flagged()

        turnover = sc.formation.leave_rate or sc.formation.join_rate
        summary = churn(self.graph, sc.formation,
                        derive_rng(self.seed, "churn", epoch) if turnover else None,
                        ledgers=self.ledgers, type_distribution=sc.type_distribution)
        for node in summary.left:
            self.installs.uninstall_node(node)
            self.ledgers.pop(node, None)
            self.rounds.pop(node, None)
            self.log.append(EV_LEAVE, {"node": node})
        if summary.left:
            left = set(summary.left)
            for ledger in self.ledgers.values():
                ledger.drop_peers(left)
        for node in summary.joined:
            self.ledgers[node] = Ledger(node)
            self.log.append(EV_JOIN, {"node": node, "type": self.graph.nodes[node].node_type})
        for a, b in summary.severed:
            self.log.append(EV_SEVER, {"a": a, "b": b})
        row.joins = len(summary.joined)
        row.leaves = len(summary.left)
        row.severed = len(summary.severed)

        if sc.formation.proposals_per_round:  # with no offers, nothing can form
            formed = propose_and_approve(self.graph, sc.formation, self.ledgers,
                                         derive_rng(self.seed, "formation", epoch))
            for a, b in formed:
                self.log.append(EV_LINK, {"a": a, "b": b})
            row.links_formed = len(formed)

        if sc.formation.supernode_count > 0:
            designate_supernodes(self.graph, sc.formation.supernode_count)

        requests: list[tuple[int, AppId]] = []
        for entry in sc.workload.explicit:
            if entry["epoch"] == epoch and entry["requester"] in self.graph.nodes:
                requests.append((entry["requester"], AppId.parse(entry["app"])))
        app_ids = self.catalog.app_ids()
        if sc.workload.requests_per_epoch and app_ids and len(self.graph):
            wl_rng = derive_rng(self.seed, "workload", epoch)
            node_ids = self.graph.node_ids()
            for _ in range(sc.workload.requests_per_epoch):
                requester = wl_rng.choice(node_ids)
                requests.append((requester, wl_rng.choice(app_ids)))
        for requester, app_id in requests:
            self.execute_retrieval(epoch, requester, app_id, row)

        row.nodes = len(self.graph)
        row.edges = self.graph.edge_count()
        row.infections = len(self.installs.infected_entries())
        row.homophily = homophily_index(self.graph)

        if sc.record_trust:
            samples = self.trust_samples
            for owner in self.graph.node_ids():
                ledger = self.ledgers[owner]
                records = ledger.records()
                if not records:
                    continue
                for peer, rec in sorted(records.items()):
                    samples.append(metrics_mod.TrustSample(
                        epoch, owner, peer, rec.resp_prob, rec.cond_trust,
                        combined_trust(ledger, peer)))

    def run(self) -> tuple[EventLog, "metrics_mod.MetricsReport"]:
        for epoch in range(self.scenario.epochs):
            self._run_epoch(epoch)
        report = metrics_mod.MetricsReport(
            parameters={**self.scenario.to_dict(), "seed": self.seed},
            assumptions=list(RUN_ASSUMPTIONS),
            epochs=self.epoch_rows,
            overhead=[metrics_mod.account_overhead(t) for t in self.traces],
            trust=self.trust_samples,
            log_digest=self.log.digest().hex())
        return self.log, report


def run(scenario: Scenario, seed: int | None = None) -> tuple[EventLog, "metrics_mod.MetricsReport"]:
    """Run a scenario to completion and return its log and metrics."""
    return Simulation(scenario, seed=seed).run()

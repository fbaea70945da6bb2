"""Acceptance suite: nine end-to-end criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Each criterion is self-contained and pins its own tolerances; the
statistical ones use frozen seeds, so a pass here is reproducible
bit-for-bit on any machine.
"""

import itertools
import math
import statistics
from fractions import Fraction

from vouchnet import Behavior, Simulation
from vouchnet.apps import AppId, AppPackage, tamper
from vouchnet.cli import main
from vouchnet.community import CommunityGraph, NodeProfile
from vouchnet.crypto import MacTag, fingerprint
from vouchnet.engine import run
from vouchnet.events import (
    EV_DECISION,
    EV_INSTALL,
    EV_NOTICE,
    EV_REPLY,
    EV_SOURCE,
    EV_VOTE,
)
from vouchnet.messages import FingerprintReply, VerifyReply
from vouchnet.metrics import EpochMetrics
from vouchnet.multipath import build_auth_package, decide, verify_round
from vouchnet.protocol import majority_vote
from vouchnet.rng import derive_rng
from vouchnet.scenario import AppSpec, Scenario, WorkloadSpec
from vouchnet.trust import Ledger, subjective_trust


def _verdict(num: int, name: str, failures: list[str]) -> None:
    status = "FAIL" if failures else "PASS"
    print(f"\n[criterion {num}] {name}: {status}")
    assert not failures, f"criterion {num} ({name}): " + "; ".join(failures)


def _check(failures: list[str], ok: bool, label: str) -> None:
    if not ok:
        failures.append(label)


# -- 1: wire-cost arithmetic ---------------------------------------------------


def test_criterion_1_bandwidth_reproduction(capsys):
    failures: list[str] = []

    assert main(["verify-bandwidth", "--peers", "10", "--width", "224"]) == 0
    out = capsys.readouterr().out.splitlines()
    for line in ("reply_bits 2240", "mac_bits 2240",
                 "verify_bits 4480", "total_bits 8960"):
        _check(failures, line in out, f"cli missing {line!r}")

    # simulated counterpart: 11-node complete graph gives exactly 10
    # responders and 10 answering verifiers
    sc = Scenario(seed=7, epochs=1, node_count=11, topology="complete",
                  apps=[AppSpec(name="maps", payload_bytes=64)],
                  workload=WorkloadSpec(explicit=[
                      {"epoch": 0, "requester": 0, "app": "maps@1"}]))
    sc.formation.max_degree = 16
    _, report = run(sc)
    rec = report.overhead[0]
    _check(failures, rec.reply_bits == 2240, f"sim reply_bits {rec.reply_bits}")
    _check(failures, rec.mac_bits == 2240, f"sim mac_bits {rec.mac_bits}")
    _check(failures, rec.verify_bits == 4480, f"sim verify_bits {rec.verify_bits}")
    _check(failures, rec.total_bits == 8960, f"sim total_bits {rec.total_bits}")
    _check(failures, rec.total_bits < 10_000, "total not under 10000 bits")

    _verdict(1, "bandwidth reproduction", failures)


# -- 2: the worked 5-node example ---------------------------------------------


def test_criterion_2_five_node_scenario():
    # ids: 0 holds a corrupted copy; 1 and 2 hold clean copies; 3 lacks the
    # app entirely; 4 requests it.
    failures: list[str] = []
    sc = Scenario(seed=2, epochs=1, node_count=5, topology="complete",
                  apps=[AppSpec(name="app", version="1", holders=[0, 1, 2],
                                tampered_holders=[0])],
                  workload=WorkloadSpec(explicit=[
                      {"epoch": 0, "requester": 4, "app": "app@1"}]))
    sim = Simulation(sc)
    log, report = sim.run()
    clean_hex = sim.catalog.clean_digest(AppId("app", "1")).hex()

    replies = log.by_kind(EV_REPLY)
    _check(failures, sorted(r.data["responder"] for r in replies) == ["0", "1", "2"],
           f"responders {[r.data['responder'] for r in replies]}")

    votes = log.by_kind(EV_VOTE)
    _check(failures, len(votes) == 1, "expected one vote")
    vote = votes[0]
    _check(failures, vote.data["supporters"] == "1+2", f"supporters {vote.data['supporters']}")
    _check(failures, vote.data["dissenters"] == "0", f"dissenters {vote.data['dissenters']}")
    _check(failures, vote.data["majority"] == clean_hex, "majority digest not the clean one")

    notices = log.by_kind(EV_NOTICE)
    _check(failures, len(notices) == 1, f"{len(notices)} notices")
    _check(failures, notices and notices[0].data["target"] == "0", "notice target")

    sources = log.by_kind(EV_SOURCE)
    _check(failures, sources and sources[0].data["source"] in ("1", "2"),
           f"source {sources[0].data['source'] if sources else None}")

    decision = log.by_kind(EV_DECISION)[-1]
    _check(failures, decision.data["accepted"] == "True", "delivery not accepted")

    install = [e for e in log.by_kind(EV_INSTALL) if e.data["node"] == "4"][-1]
    _check(failures, install.data["digest"] == clean_hex, "installed digest not clean")
    pkg = sim.installs.get(4, AppId("app", "1"))
    _check(failures, pkg is not None and not pkg.is_tampered, "requester infected")
    _check(failures, report.totals()["tampered_accepted"] == 0, "tampered accepted")

    _verdict(2, "five-node worked scenario", failures)


# -- 3: trust arithmetic against an exact oracle --------------------------------


def _oracle(records: list[tuple[Fraction, Fraction]]) -> Fraction:
    total = sum(r for r, _ in records)
    if total == 0:
        return sum(c for _, c in records) / len(records)
    return sum(c * r / total for r, c in records)


def _ledger_for(values: list[tuple[int, int]]) -> Ledger:
    ledger = Ledger(owner=999)
    for peer, (r, c) in enumerate(values):
        rec = ledger._touch(peer)
        rec.resp_prob = r / 10
        rec.cond_trust = c / 10
    return ledger


def test_criterion_3_trust_oracle_equivalence():
    # Exhaustive over the 0.1-step grid for 1 and 2 responders; the full
    # grid is astronomically large for 3..6, so those sizes are covered by
    # dense seeded sampling from the same grid at the same tolerance.
    failures: list[str] = []
    tol = Fraction(1, 10**12)
    grid = list(itertools.product(range(11), repeat=2))
    checked = 0

    def check(values: list[tuple[int, int]]) -> None:
        nonlocal checked
        ledger = _ledger_for(values)
        got = Fraction(subjective_trust(ledger, list(range(len(values)))))
        want = _oracle([(Fraction(r, 10), Fraction(c, 10)) for r, c in values])
        if abs(got - want) >= tol:
            failures.append(f"mismatch at {values}: {float(got)} vs {float(want)}")
        checked += 1

    for point in grid:
        check([point])
    for pair in itertools.product(grid, repeat=2):
        check(list(pair))

    rng = derive_rng(31, "trust-grid")
    for n in (3, 4, 5, 6):
        for _ in range(2500):
            check([grid[rng.randrange(len(grid))] for _ in range(n)])

    _check(failures, checked == 121 + 121**2 + 4 * 2500, f"only {checked} checks ran")
    _verdict(3, "trust oracle equivalence", failures[:5])


# -- 4: exhaustive vote correctness ---------------------------------------------


def test_criterion_4_vote_exhaustion():
    failures: list[str] = []
    app_id = AppId("v", "1")
    clean = fingerprint(b"clean payload")
    patterns = 0
    for n in range(1, 8):
        for t in range(0, (n - 1) // 2 + 1):  # strict clean majority
            for bad in itertools.combinations(range(n), t):
                tampered = fingerprint(b"bad:" + bytes(bad))
                replies = [FingerprintReply(responder=i, app_id=app_id,
                                            digest=tampered if i in bad else clean,
                                            key_length_bits=256)
                           for i in range(n)]
                outcome = majority_vote(replies)
                good = tuple(sorted(set(range(n)) - set(bad)))
                if outcome.majority_digest != clean:
                    failures.append(f"n={n} bad={bad}: wrong majority")
                elif outcome.supporters != good or outcome.dissenters != tuple(sorted(bad)):
                    failures.append(f"n={n} bad={bad}: wrong partition")
                patterns += 1
    _check(failures, patterns == 113, f"{patterns} patterns enumerated")
    _verdict(4, "vote correctness by exhaustion", failures[:5])


# -- 5: Monte Carlo security bound ----------------------------------------------


def _forged_delivery(k: int) -> tuple[CommunityGraph, object]:
    """A digest-consistent tampered package whose MACs are forgeries."""
    g = CommunityGraph()
    g.add_node(NodeProfile(id=0, node_type="t", key_length_bits=256, max_degree=64))
    for v in range(1, k + 1):
        g.add_node(NodeProfile(id=v, node_type="t", key_length_bits=256, max_degree=64))
        g.add_edge(0, v, derive_rng(1, "mc-key", v))
    pkg = AppPackage(app_id=AppId("x", "1"), payload=b"tampered-bytes",
                     origin="tampered", adversary=0)
    auth = build_auth_package(0, pkg, g, fanout=k, width_bits=224)
    forged = tuple((v, MacTag(key_id=t.key_id, tag=bytes(len(t.tag)),
                              width_bits=t.width_bits))
                   for v, t in auth.macs)
    return g, type(auth)(sender=auth.sender, app_id=auth.app_id,
                         payload=auth.payload,
                         claimed_digest=auth.claimed_digest, macs=forged)


def test_criterion_5_monte_carlo_security_bound():
    # Each of the k polled verifiers is independently compromised with
    # probability p and then lies positive; honest ones reject the forged
    # tag. Acceptance should match Pr[Bin(k, p) > k/2] within 3 standard
    # errors over 1e5 trials per combination. Runtime is dominated by the
    # 6e6 constant-time tag comparisons against 30 computed tags: each
    # pairwise key keeps the tag computed when the package was MAC'd, the
    # delivery's digest keeps the binding encoded then, and every
    # verification round reuses both (about 7 s on a 2-vCPU host, Python
    # 3.11.7).
    failures: list[str] = []
    trials = 100_000
    for k in (5, 10, 15):
        graph, auth = _forged_delivery(k)
        for p in (0.1, 0.3):
            rng = derive_rng(2024, "mc", k, str(p))
            hits = 0
            for _ in range(trials):
                lying = {v for v, _ in auth.macs if rng.random() < p}

                def lie(node, msg, lying=lying):
                    if isinstance(msg, VerifyReply) and node in lying:
                        return VerifyReply(verifier=node, verdict=True)
                    return msg

                _, replies = verify_round(99, auth, graph, interceptor=lie)
                if decide(replies, total_polled=k, quorum=0.5).accepted:
                    hits += 1
            exact = sum(math.comb(k, i) * p**i * (1 - p)**(k - i)
                        for i in range(k + 1) if i > k / 2)
            se = math.sqrt(exact * (1 - exact) / trials)
            rate = hits / trials
            _check(failures, abs(rate - exact) <= 3 * se,
                   f"k={k} p={p}: rate {rate:.6f} vs exact {exact:.6f} (3se {3*se:.6f})")
    _verdict(5, "Monte Carlo security bound", failures)


# -- 6: swapped payloads never land ----------------------------------------------


def test_criterion_6_tocttou_impossibility():
    # Exhaustive over every 4-node world containing one digest swapper:
    # all 64 edge subsets, all swapper positions, all holder sets
    # containing the swapper, all requesters. The swapper starts with a
    # corrupted copy and rewrites its protocol messages; no retrieval may
    # end with an accepted corrupted install.
    failures: list[str] = []
    runs = 0
    possible_edges = list(itertools.combinations(range(4), 2))
    for mask in range(64):
        edges = [list(e) for i, e in enumerate(possible_edges) if mask >> i & 1]
        for swapper in range(4):
            for holder_mask in range(16):
                holders = [h for h in range(4) if holder_mask >> h & 1]
                if swapper not in holders:
                    continue
                sc = Scenario(seed=17, epochs=0, node_count=4, topology="none",
                              initial_edges=edges, store_blocked=True,
                              apps=[AppSpec(name="x", holders=holders)])
                sc.formation.proposals_per_round = 0
                sim = Simulation(sc)
                sim.behaviors[swapper] = Behavior.TOCTTOU_SWAPPER
                clean = sim.catalog.clean_package(AppId("x", "1"))
                sim.installs.install(swapper, tamper(
                    clean, adversary=swapper, rng=derive_rng(17, "seed-copy"),
                    width_bits=224))
                for requester in range(4):
                    row = EpochMetrics(epoch=0)
                    trace = sim.execute_retrieval(0, requester, AppId("x", "1"), row)
                    runs += 1
                    if trace.accepted and trace.infected_install:
                        failures.append(
                            f"edges={edges} swapper={swapper} "
                            f"holders={holders} requester={requester}")
    _check(failures, runs == 8192, f"{runs} retrievals exercised")
    _verdict(6, "TOCTTOU impossibility", failures[:5])


# -- 7: homophily emerges ---------------------------------------------------------


def test_criterion_7_homophily_emergence():
    failures: list[str] = []
    positive = 0
    for seed in range(100):
        sc = Scenario(seed=seed, epochs=30, node_count=50,
                      type_distribution={"a": 0.5, "b": 0.5}, topology="none")
        sc.formation.beta_same = 1.0
        sc.formation.beta_diff = 0.2
        sc.formation.link_cost = 0.5
        sc.formation.max_degree = 6
        _, report = run(sc)
        h = report.epochs[-1].homophily
        if h is not None and h > 0:
            positive += 1
    _check(failures, positive >= 95, f"homophily positive in only {positive}/100 seeds")
    _verdict(7, "homophily emergence", failures)


# -- 8: free riders end up isolated ------------------------------------------------


def test_criterion_8_free_rider_isolation():
    failures: list[str] = []
    n = 30
    ok_seeds = 0
    for seed in range(100):
        sc = Scenario(seed=seed, epochs=20, node_count=n, topology="none",
                      initial_edges=[[i, (i + 1) % n] for i in range(n)],
                      apps=[AppSpec(name="x", payload_bytes=16)],
                      workload=WorkloadSpec(requests_per_epoch=6))
        sc.compromise.fraction = 0.1
        sc.compromise.mix = {"free_rider": 1.0}
        sc.formation.trust_weight = 1.0
        sc.formation.link_cost = 1.3
        sc.formation.max_degree = 5
        sim = Simulation(sc)
        sim.run()
        riders = {p for p, b in sim.behaviors.items() if b is Behavior.FREE_RIDER}
        about_riders: list[float] = []
        about_honest: list[float] = []
        for owner, ledger in sim.ledgers.items():
            if owner in riders:
                continue
            for peer in ledger.known_peers():
                rec = ledger.get_record(peer)
                (about_riders if peer in riders else about_honest).append(rec.resp_prob)
        trust_ok = bool(about_riders and about_honest and
                        statistics.mean(about_riders) < statistics.mean(about_honest))
        rider_deg = [sim.graph.degree(v) for v in sim.graph.node_ids() if v in riders]
        honest_deg = [sim.graph.degree(v) for v in sim.graph.node_ids() if v not in riders]
        degree_ok = bool(rider_deg and
                         statistics.median(rider_deg) <= statistics.median(honest_deg))
        if trust_ok and degree_ok:
            ok_seeds += 1
    _check(failures, ok_seeds >= 95, f"isolation held in only {ok_seeds}/100 seeds")
    _verdict(8, "free-rider isolation", failures)


# -- 9: determinism -----------------------------------------------------------------


def test_criterion_9_determinism():
    failures: list[str] = []
    rich = Scenario(seed=99, epochs=4, node_count=12, topology="complete",
                    type_distribution={"phone": 0.5, "hub": 0.5},
                    apps=[AppSpec(name="maps", payload_bytes=64),
                          AppSpec(name="cam", payload_bytes=32,
                                  holders={"fraction": 0.75})])
    rich.formation.max_degree = 24
    rich.formation.join_rate = 0.5
    rich.formation.leave_rate = 0.1
    rich.compromise.fraction = 0.25
    rich.compromise.mix = {"free_rider": 0.5, "tampered_server": 0.5}
    rich.old_devices.fraction = 0.2
    rich.workload.requests_per_epoch = 3

    micro = Scenario(seed=2, epochs=1, node_count=5, topology="complete",
                     apps=[AppSpec(name="app", holders=[0, 1, 2],
                                   tampered_holders=[0])],
                     workload=WorkloadSpec(explicit=[
                         {"epoch": 0, "requester": 4, "app": "app@1"}]))

    for name, sc in (("rich", rich), ("micro", micro)):
        log_a, _ = run(sc)
        log_b, _ = run(sc)
        _check(failures, log_a.canonical_bytes() == log_b.canonical_bytes(),
               f"{name}: canonical bytes differ")
        _check(failures, log_a.digest() == log_b.digest(), f"{name}: digests differ")
    _verdict(9, "determinism", failures)

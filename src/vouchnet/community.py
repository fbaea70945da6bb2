"""The device community: profiles, links, and incentive-driven formation.

Links are symmetric and carry exactly one shared MAC key, installed when
the link forms and destroyed when it is severed. Link formation is a
utility game: same-type neighbors are worth more than cross-type ones,
accumulated trust adds value, and every link has a maintenance cost.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass, field
from typing import Annotated

from .crypto import MacKey
from .errors import ConfigurationError
from .trust import STRANGER_TRUST, Ledger, combined_trust

DEFAULT_MAX_DEGREE = 8
SUPERNODE_DEGREE_MULTIPLIER = 4


@dataclass(slots=True)
class NodeProfile:
    id: int
    node_type: str
    key_length_bits: int = 256
    max_degree: int = DEFAULT_MAX_DEGREE
    is_hub: bool = False
    base_max_degree: int = field(default=0)

    def __post_init__(self) -> None:
        if self.base_max_degree <= 0:
            self.base_max_degree = self.max_degree


@dataclass
class FormationParams:
    """The formation game's parameters. An ``Annotated`` field carries its
    closed bounds ``(low, high)``, None for no top, which scenario
    validation checks."""

    beta_same: float = 1.0          # benefit of a same-type link
    beta_diff: float = 0.2          # benefit of a cross-type link
    link_cost: Annotated[float, 0.0, None] = 0.5
    trust_weight: float = 0.0
    join_rate: Annotated[float, 0.0, 1.0] = 0.0
    leave_rate: Annotated[float, 0.0, 1.0] = 0.0
    proposals_per_round: Annotated[int, 0, None] = 3
    severance_threshold: Annotated[float, 0.0, 1.0] = 0.2
    max_degree: Annotated[int, 1, None] = DEFAULT_MAX_DEGREE
    supernode_count: Annotated[int, 0, None] = 0


class CommunityGraph:
    """Undirected community graph with one pairwise key per edge."""

    def __init__(self) -> None:
        self.nodes: dict[int, NodeProfile] = {}
        # A node's key store is its adjacency: one key per live link.
        self.keystores: dict[int, dict[int, MacKey]] = {}
        self._next_id = 0

    # -- nodes ---------------------------------------------------------

    def add_node(self, profile: NodeProfile) -> NodeProfile:
        if profile.id in self.nodes:
            raise ConfigurationError(f"node {profile.id} already exists")
        self.nodes[profile.id] = profile
        self.keystores[profile.id] = {}
        self._next_id = max(self._next_id, profile.id + 1)
        return profile

    def allocate_id(self) -> int:
        nid = self._next_id
        self._next_id += 1
        return nid

    def remove_node(self, node: int) -> None:
        for neighbor in self.keystores.pop(node):
            self.keystores[neighbor].pop(node, None)
        del self.nodes[node]

    def node_ids(self) -> list[int]:
        return sorted(self.nodes)

    def __len__(self) -> int:
        return len(self.nodes)

    # -- edges ---------------------------------------------------------

    def has_edge(self, a: int, b: int) -> bool:
        return b in self.keystores.get(a, ())

    def add_edge(self, a: int, b: int, rng: random.Random) -> None:
        """Link two nodes and mint their shared key from ``rng``.

        A fixed seed gives the same key material. A key held on one side
        only still counts as a link, so it is refused as a duplicate.
        """
        if a == b:
            raise ConfigurationError("self-links are not allowed")
        store_a, store_b = self.keystores[a], self.keystores[b]
        if b in store_a or a in store_b:
            raise ConfigurationError(f"link {a}-{b} already exists")
        pa, pb = self.nodes[a], self.nodes[b]
        if len(store_a) >= pa.max_degree or len(store_b) >= pb.max_degree:
            raise ConfigurationError(f"link {a}-{b} would exceed a degree cap")
        # The shared key can only be as strong as the weaker device allows.
        bits = min(pa.key_length_bits, pb.key_length_bits)
        if bits % 8 != 0 or bits <= 0:
            raise ConfigurationError(f"key length {bits} is not a positive byte multiple")
        lo, hi = min(a, b), max(a, b)
        key = MacKey(key_id=f"pair:{lo}:{hi}", material=rng.randbytes(bits // 8),
                     length_bits=bits)
        store_a[b] = key
        store_b[a] = key

    def remove_edge(self, a: int, b: int) -> None:
        self.keystores[a].pop(b, None)
        self.keystores[b].pop(a, None)

    def neighbors(self, node: int) -> list[int]:
        return sorted(self.keystores[node])

    def degree(self, node: int) -> int:
        return len(self.keystores[node])

    def edges(self) -> list[tuple[int, int]]:
        return sorted((a, b) for a, store in self.keystores.items() for b in store if a < b)

    def edge_count(self) -> int:
        return sum(len(store) for store in self.keystores.values()) // 2

    def reachable_from(self, start: int, hop_limit: int | None = None) -> list[int]:
        """Nodes reachable from ``start`` (excluded) within the hop limit."""
        seen = {start}
        frontier = [start]
        hops = 0
        out: list[int] = []
        while frontier and (hop_limit is None or hops < hop_limit):
            hops += 1
            nxt: list[int] = []
            for node in frontier:
                for nb in self.keystores[node]:
                    if nb not in seen:
                        seen.add(nb)
                        out.append(nb)
                        nxt.append(nb)
            frontier = nxt
        return sorted(out)


# -- formation game ------------------------------------------------------


def marginal_utility(i: NodeProfile, j: NodeProfile, params: FormationParams,
                     ledger: Ledger | None = None) -> float:
    """Value to ``i`` of linking with ``j``: type benefit, plus weighted
    trust, minus the link cost. Without a ledger ``j`` is a stranger."""
    benefit = params.beta_same if i.node_type == j.node_type else params.beta_diff
    tau = STRANGER_TRUST if ledger is None else combined_trust(ledger, j.id)
    return benefit + params.trust_weight * tau - params.link_cost


def propose_and_approve(graph: CommunityGraph, params: FormationParams,
                        ledgers: dict[int, Ledger], rng: random.Random) -> list[tuple[int, int]]:
    """One formation round. Each node, in seeded random order, offers links
    to its best few strangers; a link forms only if both sides gain and
    neither is at its degree cap. Returns the edges formed.

    A proposer ranks every unlinked node with positive utility by
    (-utility, id) and offers links to the top ``proposals_per_round``.
    The ranking is computed without scoring every node: a peer missing
    from the proposer's ledger reads as ``STRANGER_TRUST``, so its utility
    depends only on the two types, and only the lowest eligible ids of a
    type can make the cut. Those utilities are scored once per round for
    each pair of types, and membership does not change within a round, so
    the ids are bucketed by type once. Known peers are scored one by one; each
    type contributes its first ``proposals_per_round`` eligible ids. That
    is O(known peers + types x proposals) per proposer, plus the
    neighbours skipped on the way, and gives exactly the all-pairs list,
    ties included. A proposer already at its cap is skipped unscored: it
    can form nothing, and only a formed link draws from ``rng``.
    """
    nodes, stores = graph.nodes, graph.keystores
    order = graph.node_ids()
    by_type: dict[str, list[int]] = {}
    for nid in order:
        by_type.setdefault(nodes[nid].node_type, []).append(nid)
    # Per proposer type: (-utility, ids) of each stranger type worth an offer.
    stranger_offers: dict[str, list[tuple[float, list[int]]]] = {}
    for own, own_ids in by_type.items():
        offers = stranger_offers[own] = []
        for ids in by_type.values():
            # Scored without a ledger, as every stranger of this type is.
            util = marginal_utility(nodes[own_ids[0]], nodes[ids[0]], params)
            if util > 0.0:
                offers.append((-util, ids))
    rng.shuffle(order)
    cut = params.proposals_per_round
    formed: list[tuple[int, int]] = []
    for proposer_id in order:
        proposer = nodes[proposer_id]
        store = stores[proposer_id]
        if len(store) >= proposer.max_degree:
            continue
        ledger = ledgers.get(proposer_id)
        known = ledger.records() if ledger is not None else {}
        candidates: list[tuple[float, int]] = []
        for peer in known:
            if peer == proposer_id or peer in store or peer not in nodes:
                continue  # a caller's ledgers may still name departed peers
            util = marginal_utility(proposer, nodes[peer], params, ledger)
            if util > 0.0:
                candidates.append((-util, peer))
        for neg_util, ids in stranger_offers[proposer.node_type]:
            taken = 0
            for other_id in ids:
                if taken == cut:
                    break
                if other_id == proposer_id or other_id in known or other_id in store:
                    continue
                candidates.append((neg_util, other_id))
                taken += 1
        candidates.sort()
        for _, target_id in candidates[:cut]:
            if len(store) >= proposer.max_degree:
                break
            target = nodes[target_id]
            if len(stores[target_id]) >= target.max_degree:
                continue
            back = marginal_utility(target, proposer, params, ledgers.get(target_id))
            if back > 0.0:
                graph.add_edge(proposer_id, target_id, rng)
                formed.append((min(proposer_id, target_id), max(proposer_id, target_id)))
    return formed


@dataclass
class ChurnSummary:
    joined: list[int]
    left: list[int]
    severed: list[tuple[int, int]]


def churn(graph: CommunityGraph, params: FormationParams, rng: random.Random | None,
          ledgers: dict[int, Ledger] | None = None,
          type_distribution: dict[str, float] | None = None) -> ChurnSummary:
    """Apply one epoch of membership turnover.

    Each node leaves with ``leave_rate``; with ``join_rate`` one new node
    of seeded random type joins. Existing links whose accumulated trust
    fell below the severance threshold are cut (key destroyed with them).
    With both rates 0 no draw could change anything, so ``rng`` is not
    drawn from and may be None; severance still runs.
    """
    left: list[int] = []
    joined: list[int] = []
    if params.leave_rate or params.join_rate:
        left = [n for n in graph.node_ids() if rng.random() < params.leave_rate]
        for node in left:
            graph.remove_node(node)

        if rng.random() < params.join_rate:
            types = sorted(type_distribution) if type_distribution else ["default"]
            weights = [type_distribution[t] for t in types] if type_distribution else [1.0]
            node_type = rng.choices(types, weights=weights, k=1)[0]
            nid = graph.allocate_id()
            graph.add_node(NodeProfile(id=nid, node_type=node_type,
                                       max_degree=params.max_degree))
            joined.append(nid)

    severed: list[tuple[int, int]] = []
    if ledgers is not None:
        for a, b in graph.edges():
            la, lb = ledgers.get(a), ledgers.get(b)
            cut = ((la is not None and combined_trust(la, b) < params.severance_threshold)
                   or (lb is not None and combined_trust(lb, a) < params.severance_threshold))
            if cut:
                graph.remove_edge(a, b)
                severed.append((a, b))
    return ChurnSummary(joined=joined, left=left, severed=severed)


def homophily_index(graph: CommunityGraph) -> float | None:
    """Same-type edge fraction minus its expectation under random mixing.

    Positive values mean devices cluster with their own kind more than
    chance would produce. Returns None without edges, where the index is
    undefined.
    """
    nodes = graph.nodes
    edges = same = 0
    for a, store in graph.keystores.items():
        for b in store:
            if a < b:
                edges += 1
                same += nodes[a].node_type == nodes[b].node_type
    if not edges:
        return None
    observed = same / edges
    counts: dict[str, int] = {}
    for profile in graph.nodes.values():
        counts[profile.node_type] = counts.get(profile.node_type, 0) + 1
    n = len(graph.nodes)
    total_pairs = math.comb(n, 2)
    expected = sum(math.comb(c, 2) for c in counts.values()) / total_pairs
    return observed - expected


def designate_supernodes(graph: CommunityGraph, count: int,
                         multiplier: int = SUPERNODE_DEGREE_MULTIPLIER) -> list[int]:
    """Mark the ``count`` highest-degree nodes as hubs with a raised cap.

    Ties go to the smaller id. Previously designated hubs that fall out of
    the top set revert to their base cap.
    """
    if count < 0:
        raise ConfigurationError("supernode count cannot be negative")
    chosen = heapq.nsmallest(count, graph.nodes, key=lambda n: (-graph.degree(n), n))
    chosen_set = set(chosen)
    for nid, profile in graph.nodes.items():
        if nid in chosen_set:
            profile.is_hub = True
            profile.max_degree = profile.base_max_degree * multiplier
        elif profile.is_hub:
            profile.is_hub = False
            profile.max_degree = max(profile.base_max_degree, graph.degree(nid))
    return chosen

"""Graph structure, utility arithmetic, formation, churn, and hubs."""

import random

import pytest

from vouchnet.community import (
    CommunityGraph,
    FormationParams,
    NodeProfile,
    churn,
    designate_supernodes,
    homophily_index,
    marginal_utility,
    propose_and_approve,
)
from vouchnet.errors import ConfigurationError
from vouchnet.trust import Ledger


def build_graph(n, node_type="sensor", max_degree=10, types=None):
    g = CommunityGraph()
    for i in range(n):
        t = types[i] if types else node_type
        g.add_node(NodeProfile(id=i, node_type=t, max_degree=max_degree))
    return g


def empty_ledgers(g):
    return {i: Ledger(i) for i in g.node_ids()}


# -- graph basics ----------------------------------------------------------


def test_edge_carries_exactly_one_key():
    g = build_graph(3)
    g.add_edge(0, 1, random.Random(0))
    assert g.keystores[0][1] is g.keystores[1][0]
    assert 2 not in g.keystores[0]
    g.remove_edge(0, 1)
    assert 1 not in g.keystores[0]
    assert 0 not in g.keystores[1]


def test_edge_key_strength_limited_by_weaker_device():
    g = CommunityGraph()
    g.add_node(NodeProfile(id=0, node_type="a", key_length_bits=256))
    g.add_node(NodeProfile(id=1, node_type="a", key_length_bits=64))
    g.add_edge(0, 1, random.Random(0))
    assert g.keystores[0][1].length_bits == 64


def test_self_edge_and_duplicate_edge_rejected():
    g = build_graph(2)
    with pytest.raises(ConfigurationError):
        g.add_edge(0, 0, random.Random(0))
    g.add_edge(0, 1, random.Random(0))
    with pytest.raises(ConfigurationError):
        g.add_edge(1, 0, random.Random(0))


def test_degree_cap_enforced_on_add():
    g = build_graph(4, max_degree=1)
    g.add_edge(0, 1, random.Random(0))
    with pytest.raises(ConfigurationError):
        g.add_edge(0, 2, random.Random(0))


def test_remove_node_cleans_neighbors_keystores():
    g = build_graph(3)
    g.add_edge(0, 1, random.Random(0))
    g.add_edge(1, 2, random.Random(0))
    g.remove_node(1)
    assert 1 not in g.keystores[0]
    assert 1 not in g.keystores[2]
    assert g.edges() == []


def test_reachability_with_hop_limit():
    g = build_graph(4)
    rng = random.Random(0)
    g.add_edge(0, 1, rng)
    g.add_edge(1, 2, rng)
    g.add_edge(2, 3, rng)
    assert g.reachable_from(0) == [1, 2, 3]
    assert g.reachable_from(0, hop_limit=1) == [1]
    assert g.reachable_from(0, hop_limit=2) == [1, 2]


# -- marginal utility --------------------------------------------------------


def test_same_type_stranger_gains_half():
    params = FormationParams(beta_same=1.0, beta_diff=0.2, link_cost=0.5,
                             trust_weight=0.0)
    a = NodeProfile(id=0, node_type="cam")
    b = NodeProfile(id=1, node_type="cam")
    assert marginal_utility(a, b, params) == pytest.approx(0.5)


def test_cross_type_stranger_loses():
    params = FormationParams(beta_same=1.0, beta_diff=0.2, link_cost=0.5,
                             trust_weight=0.0)
    a = NodeProfile(id=0, node_type="cam")
    b = NodeProfile(id=1, node_type="hub")
    assert marginal_utility(a, b, params) == pytest.approx(-0.3)


def test_trust_weight_adds_prior_for_strangers():
    params = FormationParams(beta_same=1.0, beta_diff=0.2, link_cost=0.5,
                             trust_weight=1.0)
    a = NodeProfile(id=0, node_type="cam")
    b = NodeProfile(id=1, node_type="cam")
    assert marginal_utility(a, b, params, Ledger(0)) == pytest.approx(1.0)


def test_accumulated_trust_raises_utility():
    params = FormationParams(beta_same=1.0, beta_diff=0.2, link_cost=0.5,
                             trust_weight=1.0)
    a = NodeProfile(id=0, node_type="cam")
    b = NodeProfile(id=1, node_type="cam")
    ledger = Ledger(0)
    ledger._touch(1).cond_trust = 0.9
    assert marginal_utility(a, b, params, ledger) == pytest.approx(1.4)


# -- formation ---------------------------------------------------------------


def test_two_nodes_with_mutual_gain_link():
    g = build_graph(2)
    params = FormationParams(beta_same=1.0, link_cost=0.5)
    propose_and_approve(g, params, empty_ledgers(g), random.Random(0))
    assert g.has_edge(0, 1)


def test_negative_utility_never_links():
    g = build_graph(4, types=["a", "b", "a", "b"])
    params = FormationParams(beta_same=1.0, beta_diff=0.2, link_cost=0.5)
    for _ in range(10):
        propose_and_approve(g, params, empty_ledgers(g), random.Random(0))
    assert all(g.nodes[a].node_type == g.nodes[b].node_type for a, b in g.edges())


def test_target_at_capacity_refuses():
    g = build_graph(3, max_degree=10)
    g.nodes[2].max_degree = 1
    params = FormationParams(beta_same=1.0, link_cost=0.5)
    rng = random.Random(0)
    g.add_edge(1, 2, rng)
    propose_and_approve(g, params, empty_ledgers(g), rng)
    assert not g.has_edge(0, 2)
    assert g.has_edge(0, 1)


def test_proposals_per_round_limits_new_links():
    g = build_graph(6)
    params = FormationParams(beta_same=1.0, link_cost=0.5, proposals_per_round=1)
    # Only node 0 has spare capacity for proposals to land on; each round
    # every node proposes at most once.
    formed = propose_and_approve(g, params, empty_ledgers(g), random.Random(1))
    assert len(formed) <= 6
    per_node = {i: 0 for i in g.node_ids()}
    for a, b in formed:
        per_node[a] += 1
        per_node[b] += 1
    # A node can appear more than once only as a proposal target.
    assert all(g.degree(i) <= g.nodes[i].max_degree for i in g.node_ids())


def test_formation_is_deterministic():
    def run_once():
        g = build_graph(8, types=["a", "b"] * 4)
        params = FormationParams(beta_same=1.0, beta_diff=0.4, link_cost=0.3)
        propose_and_approve(g, params, empty_ledgers(g), random.Random(7))
        return g.edges()

    assert run_once() == run_once()


def test_degree_cap_and_key_bijection_over_random_operations():
    rng = random.Random(11)
    g = build_graph(10, max_degree=3)
    params = FormationParams(beta_same=1.0, link_cost=0.5, proposals_per_round=2)
    ledgers = empty_ledgers(g)
    for _ in range(30):
        action = rng.randrange(3)
        if action == 0:
            propose_and_approve(g, params, ledgers, rng)
        elif action == 1 and g.edges():
            a, b = rng.choice(g.edges())
            g.remove_edge(a, b)
        elif action == 2 and len(g) > 2:
            g.remove_node(rng.choice(g.node_ids()))
            ledgers = {i: ledgers.get(i, Ledger(i)) for i in g.node_ids()}
        for i in g.node_ids():
            assert g.degree(i) <= g.nodes[i].max_degree
            assert all(i in g.keystores[j] for j in g.keystores[i])


def all_pairs_propose_and_approve(graph, params, ledgers, rng):
    """The formation round scored over every pair: the reference that the
    bucketed candidate search must reproduce exactly."""
    order = graph.node_ids()
    rng.shuffle(order)
    formed = []
    for proposer_id in order:
        proposer = graph.nodes[proposer_id]
        candidates = []
        for other_id in graph.node_ids():
            if other_id == proposer_id or graph.has_edge(proposer_id, other_id):
                continue
            util = marginal_utility(proposer, graph.nodes[other_id], params,
                                    ledgers.get(proposer_id))
            if util > 0.0:
                candidates.append((util, other_id))
        candidates.sort(key=lambda c: (-c[0], c[1]))
        for _, target_id in candidates[:params.proposals_per_round]:
            if graph.degree(proposer_id) >= proposer.max_degree:
                break
            target = graph.nodes[target_id]
            if graph.degree(target_id) >= target.max_degree:
                continue
            back = marginal_utility(target, proposer, params, ledgers.get(target_id))
            if back > 0.0:
                graph.add_edge(proposer_id, target_id, rng)
                formed.append((min(proposer_id, target_id), max(proposer_id, target_id)))
    return formed


def random_world(seed, trust_weight, proposals):
    """A seeded graph with mixed types, pre-existing links (some nodes at
    their cap), ledgers at varied trust that still hold departed peers, and
    one node without a ledger."""
    rng = random.Random(seed)
    types = ["cam", "lock", "hub"][:rng.randint(1, 3)]
    n = rng.randint(2, 30)
    g = CommunityGraph()
    for i in range(n):
        g.add_node(NodeProfile(id=i, node_type=rng.choice(types),
                               max_degree=rng.randint(1, 6)))
    key_rng = random.Random(seed)
    for _ in range(rng.randint(0, 2 * n)):
        a, b = rng.sample(range(n), 2)
        if (not g.has_edge(a, b) and g.degree(a) < g.nodes[a].max_degree
                and g.degree(b) < g.nodes[b].max_degree):
            g.add_edge(a, b, key_rng)
    ledgers = {}
    for i in range(n):
        ledger = Ledger(i)
        for peer in rng.sample(range(n), rng.randint(0, min(n, 10))):
            # (0.5, 0.5) and (1.0, 0.25) both read as exactly 0.5, like a stranger.
            resp, cond = rng.choice([(0.5, 0.5), (1.0, 0.25), (1.0, 1.0), (0.0, 0.9),
                                     (rng.random(), rng.random())])
            rec = ledger._touch(peer)
            rec.resp_prob, rec.cond_trust = resp, cond
        ledgers[i] = ledger
    for node in rng.sample(range(n), rng.randint(0, n // 4)):
        g.remove_node(node)          # its id stays in other nodes' ledgers
        del ledgers[node]
    if len(g) > 1:
        del ledgers[rng.choice(g.node_ids())]
    params = FormationParams(beta_same=rng.choice([1.0, 0.6]),
                             beta_diff=rng.choice([0.0, 0.2, 0.5, 0.8]),
                             link_cost=0.5, trust_weight=trust_weight,
                             proposals_per_round=proposals)
    return g, ledgers, params


@pytest.mark.parametrize("proposals", range(5))
@pytest.mark.parametrize("trust_weight", [0.0, 1.0])
def test_bucketed_formation_matches_all_pairs_scan(trust_weight, proposals):
    capped = 0
    for seed in range(60):
        g_ref, ledgers_ref, params = random_world(seed, trust_weight, proposals)
        g_new, ledgers_new, _ = random_world(seed, trust_weight, proposals)
        rng_ref, rng_new = random.Random(seed), random.Random(seed)
        for _ in range(3):
            expected = all_pairs_propose_and_approve(g_ref, params, ledgers_ref, rng_ref)
            assert propose_and_approve(g_new, params, ledgers_new, rng_new) == expected
            assert g_new.edges() == g_ref.edges()
            assert rng_new.getstate() == rng_ref.getstate()
        capped += sum(g_new.degree(i) == g_new.nodes[i].max_degree for i in g_new.node_ids())
    assert capped > 0


@pytest.mark.parametrize("seed", range(8))
def test_capped_proposers_and_hubs_match_all_pairs_scan(seed):
    # Hubs carry raised caps, many proposers start a round at their cap,
    # and ledgers still name departed peers; rounds alternate with hub
    # designation, as in an epoch.
    proposals = 1 + seed % 4
    g_ref, ledgers_ref, params = random_world(100 + seed, 1.0, proposals)
    g_new, ledgers_new, _ = random_world(100 + seed, 1.0, proposals)
    assert any(peer not in g_new.nodes
               for ledger in ledgers_new.values() for peer in ledger.known_peers())
    rng_ref, rng_new = random.Random(seed), random.Random(seed)
    at_cap = hubs = 0
    for _ in range(4):
        assert designate_supernodes(g_new, 3) == designate_supernodes(g_ref, 3)
        hubs += sum(g_new.nodes[i].is_hub for i in g_new.node_ids())
        at_cap += sum(g_new.degree(i) >= g_new.nodes[i].max_degree for i in g_new.node_ids())
        expected = all_pairs_propose_and_approve(g_ref, params, ledgers_ref, rng_ref)
        assert propose_and_approve(g_new, params, ledgers_new, rng_new) == expected
        assert g_new.edges() == g_ref.edges()
        assert rng_new.getstate() == rng_ref.getstate()
    assert at_cap > 0 and hubs > 0


# -- churn ---------------------------------------------------------------


def test_everyone_leaves_at_rate_one():
    g = build_graph(6)
    params = FormationParams(leave_rate=1.0)
    summary = churn(g, params, random.Random(0))
    assert len(g) == 0
    assert len(summary.left) == 6


def test_join_rate_one_adds_one_node_per_epoch():
    g = build_graph(2)
    params = FormationParams(join_rate=1.0)
    for _ in range(5):
        churn(g, params, random.Random(len(g)), type_distribution={"a": 1.0})
    assert len(g) == 7


def test_joined_ids_never_reuse_old_ids():
    g = build_graph(3)
    g.remove_node(2)
    params = FormationParams(join_rate=1.0)
    summary = churn(g, params, random.Random(0), type_distribution={"a": 1.0})
    assert summary.joined == [3]


def test_low_trust_edge_severed():
    g = build_graph(2)
    g.add_edge(0, 1, random.Random(0))
    ledgers = empty_ledgers(g)
    ledgers[0]._touch(1).cond_trust = 0.0
    params = FormationParams(severance_threshold=0.2)
    summary = churn(g, params, random.Random(0), ledgers=ledgers)
    assert summary.severed == [(0, 1)]
    assert not g.has_edge(0, 1)
    assert 1 not in g.keystores[0]


def test_churn_without_turnover_draws_nothing_and_still_severs():
    g = build_graph(3)
    g.add_edge(0, 1, random.Random(0))
    ledgers = empty_ledgers(g)
    ledgers[0]._touch(1).cond_trust = 0.0
    params = FormationParams(join_rate=0.0, leave_rate=0.0, severance_threshold=0.2)
    summary = churn(g, params, None, ledgers=ledgers)  # None: any draw would raise
    assert (summary.left, summary.joined, summary.severed) == ([], [], [(0, 1)])
    assert not g.has_edge(0, 1)
    assert len(g) == 3


def test_default_trust_is_above_severance_threshold():
    g = build_graph(2)
    g.add_edge(0, 1, random.Random(0))
    summary = churn(g, FormationParams(), random.Random(0), ledgers=empty_ledgers(g))
    assert summary.severed == []
    assert g.has_edge(0, 1)


# -- mixing index ------------------------------------------------------------


def test_homophily_undefined_without_edges():
    g = build_graph(4)
    assert homophily_index(g) is None


def test_homophily_zero_on_complete_balanced_graph():
    g = build_graph(10, types=["a"] * 5 + ["b"] * 5, max_degree=9)
    rng = random.Random(0)
    for a in range(10):
        for b in range(a + 1, 10):
            g.add_edge(a, b, rng)
    assert abs(homophily_index(g)) < 0.05


def test_homophily_positive_when_types_cluster():
    g = build_graph(6, types=["a", "a", "a", "b", "b", "b"])
    rng = random.Random(0)
    g.add_edge(0, 1, rng)
    g.add_edge(1, 2, rng)
    g.add_edge(3, 4, rng)
    g.add_edge(4, 5, rng)
    assert homophily_index(g) > 0


def test_homophily_negative_for_pure_cross_linking():
    g = build_graph(4, types=["a", "a", "b", "b"])
    rng = random.Random(0)
    g.add_edge(0, 2, rng)
    g.add_edge(1, 3, rng)
    assert homophily_index(g) < 0


# -- supernodes ------------------------------------------------------------


def test_supernode_tie_goes_to_smaller_id():
    g = build_graph(4)
    rng = random.Random(0)
    g.add_edge(1, 0, rng)
    g.add_edge(1, 2, rng)
    g.add_edge(2, 3, rng)
    # Nodes 1 and 2 are tied at the top degree.
    chosen = designate_supernodes(g, 1)
    assert chosen == [1]


def test_supernodes_match_a_full_sort_on_tied_degrees():
    rng = random.Random(28)
    for trial in range(40):
        n = rng.randint(2, 30)
        ids = rng.sample(range(100), n)  # sparse ids, inserted out of order
        g = CommunityGraph()
        for i in ids:
            g.add_node(NodeProfile(id=i, node_type="sensor", max_degree=4))
        for _ in range(rng.randint(0, 2 * n)):
            a, b = rng.sample(ids, 2)
            if not g.has_edge(a, b) and g.degree(a) < 4 and g.degree(b) < 4:
                g.add_edge(a, b, rng)
        count = rng.randint(0, n + 2)
        expected = sorted(ids, key=lambda i: (-g.degree(i), i))[:count]
        assert designate_supernodes(g, count) == expected, trial
        assert {i for i, p in g.nodes.items() if p.is_hub} == set(expected)


def test_supernode_cap_multiplied():
    g = build_graph(3, max_degree=4)
    chosen = designate_supernodes(g, 1, multiplier=4)
    assert chosen == [0]
    assert g.nodes[0].max_degree == 16
    assert g.nodes[0].is_hub
    assert g.nodes[1].max_degree == 4


def test_supernode_redesignation_reverts_old_hub():
    g = build_graph(3, max_degree=4)
    designate_supernodes(g, 1)
    rng = random.Random(0)
    g.add_edge(1, 2, rng)
    chosen = designate_supernodes(g, 1)
    assert chosen == [1]
    assert not g.nodes[0].is_hub
    assert g.nodes[0].max_degree == 4


def test_supernode_count_zero_changes_nothing():
    g = build_graph(3, max_degree=4)
    assert designate_supernodes(g, 0) == []
    assert all(not p.is_hub for p in g.nodes.values())


def test_supernode_negative_count_rejected():
    g = build_graph(3)
    with pytest.raises(ConfigurationError):
        designate_supernodes(g, -1)

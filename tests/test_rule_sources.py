"""Each model rule has one statement, and every reader of the rule agrees
with it: the stranger prior in ``trust``, each event kind's tick and price
in ``events.KINDS``, the app label format in ``apps``, and the seed of a
label path in ``rng``."""

import hashlib
import itertools
import random

import pytest

from vouchnet.apps import AppId
from vouchnet.community import FormationParams, NodeProfile, marginal_utility
from vouchnet.errors import ScenarioError
from vouchnet.events import (
    EV_DELIVERY,
    EV_REPLY,
    EV_VERIFY_REPLY,
    EV_VERIFY_REQ,
    EVENT_KINDS,
    KINDS,
    MESSAGE_KINDS,
)
from vouchnet.rng import derive_seed
from vouchnet.scenario import AppSpec, Scenario
from vouchnet.trust import STRANGER_TRUST, Ledger, combined_trust

TYPES = ("cam", "hub", "lamp")


def test_a_peer_without_a_record_reads_as_the_stranger_trust():
    ledger = Ledger(0)
    assert combined_trust(ledger, 5) == STRANGER_TRUST
    ledger._touch(5)  # a record at the prior, combined by the general formula
    assert combined_trust(ledger, 5) == STRANGER_TRUST
    assert ledger.known_peers() == [5]


@pytest.mark.parametrize("own, other", list(itertools.product(TYPES, repeat=2)))
def test_marginal_utility_without_a_ledger_is_the_stranger_utility(own, other):
    params = FormationParams(beta_same=1.0, beta_diff=0.25, link_cost=0.5, trust_weight=0.75)
    i, j = NodeProfile(id=0, node_type=own), NodeProfile(id=1, node_type=other)
    benefit = params.beta_same if own == other else params.beta_diff
    stranger = benefit + params.trust_weight * STRANGER_TRUST - params.link_cost
    assert marginal_utility(i, j, params) == stranger
    assert marginal_utility(i, j, params, Ledger(0)) == stranger


def test_kinds_table_covers_every_kind_and_ticks_the_message_kinds():
    assert list(KINDS) == list(EVENT_KINDS)
    for kind, (_, _, ticks, _) in KINDS.items():
        assert ticks is (kind in MESSAGE_KINDS), kind


def test_kinds_table_prices_each_kind_in_digest_units():
    priced = {EV_REPLY: 1, EV_VERIFY_REQ: 1, EV_VERIFY_REPLY: 1, EV_DELIVERY: "macs"}
    for kind, (_, _, _, units) in KINDS.items():
        assert units == priced.get(kind, 0), kind


@pytest.mark.parametrize("name, version", [("lamp", "1.2"), ("caméra", "2"), ("x", "1@b"),
                                           ("日本", "β")])
def test_app_spec_label_is_the_app_id_label(name, version):
    label = AppSpec(name=name, version=version).label()
    assert label == AppId(name, version).label() == f"{name}@{version}"
    assert AppId.parse(label) == AppId(name, version)


def reference_seed(root_seed, *labels):
    """The seed of a label path, hashed piece by piece."""
    h = hashlib.sha256()
    h.update(str(int(root_seed)).encode("ascii"))
    for label in labels:
        h.update(b"/")
        h.update(str(label).encode("utf-8"))
    return int.from_bytes(h.digest()[:8], "big")


def random_label(rng):
    return rng.choice([
        lambda: rng.randrange(-2**70, 2**70),
        lambda: rng.randrange(-5, 5),
        lambda: "".join(rng.choice("ab/é日😀 0") for _ in range(rng.randrange(6))),
        lambda: None,
        lambda: rng.uniform(-1e6, 1e6),
        lambda: rng.choice([0.1, -0.0, float("inf"), 1e-300]),
    ])()


def test_derive_seed_matches_the_piecewise_reference():
    rng = random.Random(0)
    for _ in range(20_000):
        root = rng.randrange(-2**64, 2**64)
        labels = [random_label(rng) for _ in range(rng.randrange(5))]
        assert derive_seed(root, *labels) == reference_seed(root, *labels), (root, labels)
    assert derive_seed(7) == reference_seed(7)


@pytest.mark.parametrize("edge", [[0, 3], [-1, 0], [0, "1"], [1, 1], [0, 1, 2], "01", [0.0, 1]])
def test_a_bad_initial_edge_is_named_in_one_message(edge):
    scenario = Scenario(node_count=3, initial_edges=[edge])
    with pytest.raises(ScenarioError) as err:
        scenario.validate()
    assert f"initial_edges: bad entry {edge!r}" in str(err.value)

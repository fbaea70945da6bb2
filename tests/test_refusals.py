"""Library refusals that a caller's mistake reaches, and the acceptance
rate that README's library example prints."""

from pathlib import Path

import pytest

from vouchnet import Simulation
from vouchnet.community import CommunityGraph, NodeProfile
from vouchnet.errors import ConfigurationError, UnknownParameterError
from vouchnet.scenario import Scenario, apply_overrides
from vouchnet.wire import encode_fields

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def test_acceptance_rate_is_accepted_over_retrievals():
    _, report = Simulation(Scenario.from_file(SCENARIOS / "smoke.json")).run()
    totals = report.totals()
    assert totals["retrievals"] > 0
    assert report.acceptance_rate() == totals["accepted"] / totals["retrievals"]


@pytest.mark.parametrize("path", ["seed.x", "seed.x.y", "nope.quorum"])
def test_override_path_through_a_scalar_or_missing_section_is_refused(path):
    with pytest.raises(UnknownParameterError):
        apply_overrides(Scenario(), {path: 1})


@pytest.mark.parametrize("value", [1.5, None])
def test_encode_fields_refuses_an_unsupported_type(value):
    with pytest.raises(TypeError):
        encode_fields(value)


def test_add_node_refuses_an_existing_id():
    graph = CommunityGraph()
    graph.add_node(NodeProfile(id=0, node_type="default"))
    with pytest.raises(ConfigurationError):
        graph.add_node(NodeProfile(id=0, node_type="default"))

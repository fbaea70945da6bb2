"""Compact layout of what a run keeps in bulk: the value types are slotted
dataclasses, and equal event values share one interned string."""

import dataclasses
from pathlib import Path

import pytest

from vouchnet.apps import AppId, AppPackage
from vouchnet.community import NodeProfile
from vouchnet.crypto import Digest, MacKey, MacTag
from vouchnet.engine import run
from vouchnet.events import EV_EPOCH, EventLog, RetrievalTrace
from vouchnet.metrics import EpochMetrics, OverheadRecord, TrustSample
from vouchnet.scenario import Scenario
from vouchnet.trust import TrustRecord

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

DIGEST = Digest(bits=bytes(28), width_bits=224)
VALUES = [
    DIGEST,
    MacKey(key_id="pair:1:2", material=bytes(32), length_bits=256),
    MacTag(key_id="pair:1:2", tag=bytes(28), width_bits=224),
    AppId("maps", "1"),
    AppPackage(app_id=AppId("maps", "1"), payload=b"payload"),
    NodeProfile(id=3, node_type="cam"),
    TrustRecord(),
    RetrievalTrace(retrieval=0, epoch=0, requester=3, app_label="maps@1"),
    EpochMetrics(epoch=0),
    TrustSample(0, 3, 4, 0.5, 0.5, 0.5),
    OverheadRecord(0, 0, 3, "maps@1", 2, 448, 448, 896, 1792, 7),
]


@pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
def test_bulk_value_types_are_slotted_dataclasses(value):
    assert dataclasses.is_dataclass(value)
    assert not hasattr(value, "__dict__")
    # Python 3.11 refuses a non-field name on a frozen slotted dataclass
    # with TypeError rather than FrozenInstanceError; either way it is refused.
    with pytest.raises((AttributeError, TypeError)):
        value.ad_hoc = 1
    assert set(dataclasses.asdict(value)) == {f.name for f in dataclasses.fields(value)}


def test_replace_still_works_on_frozen_and_mutable_slotted_types():
    wider = dataclasses.replace(DIGEST, width_bits=256)
    assert (wider.bits, wider.width_bits) == (DIGEST.bits, 256)
    with pytest.raises(dataclasses.FrozenInstanceError):
        DIGEST.width_bits = 256

    profile = NodeProfile(id=3, node_type="cam", max_degree=4)
    hub = dataclasses.replace(profile, max_degree=16, is_hub=True)
    assert (hub.id, hub.max_degree, hub.base_max_degree, hub.is_hub) == (3, 16, 4, True)
    profile.max_degree = 5
    assert profile.max_degree == 5 and hub.max_degree == 16


def test_equal_event_values_are_one_string_within_and_across_logs():
    first, second = EventLog(), EventLog()
    records = [log.append(EV_EPOCH, {"epoch": 12345, "label": "".join(["maps", "@", "1"])})
               for log in (first, first, second)]
    for key in ("epoch", "label"):
        values = [record.data[key] for record in records]
        assert values[0] == values[1] == values[2]
        assert values[0] is values[1] is values[2]


def test_two_runs_hold_one_string_per_distinct_event_value():
    scenario = Scenario.from_file(SCENARIOS / "smoke.json")
    seen: dict[str, str] = {}
    for _ in range(2):
        log, _ = run(scenario)
        for record in log.records:
            for value in record.data.values():
                assert seen.setdefault(value, value) is value

"""The settable scenario fields: retired ones are rejected, and README's
knob block names exactly the ones that exist."""

import json
import re
from dataclasses import fields, is_dataclass
from pathlib import Path

import pytest

from vouchnet.errors import ScenarioError
from vouchnet.scenario import AppSpec, Scenario

README = Path(__file__).resolve().parent.parent / "README.md"

RETIRED = [
    ({"default_key_bits": 256}, "scenario", "default_key_bits"),
    ({"trust": {"smoothing_alpha": 0.1}}, "scenario", "trust"),
    ({"compromise": {"shared_payload": True}}, "compromise", "shared_payload"),
    ({"formation": {"joiner_key_bits": 256}}, "formation", "joiner_key_bits"),
    ({"formation": {"supernode_multiplier": 4}}, "formation", "supernode_multiplier"),
]


@pytest.mark.parametrize("data,where,name", RETIRED, ids=[r[2] for r in RETIRED])
def test_retired_field_rejected_by_name(data, where, name):
    with pytest.raises(ScenarioError) as exc:
        Scenario.from_dict(data)
    assert exc.value.fields == [f"{where}: unknown fields [{name!r}]"]


def knob_names(scenario: dict, app_fields) -> set[str]:
    """Dotted names of the settable fields: one per field of a section,
    one per field of an app entry, one per other top-level field."""
    sections = {f.name for f in fields(Scenario)
                if is_dataclass(getattr(Scenario(), f.name))}
    names = {f"apps[].{k}" for k in app_fields}
    for key, value in scenario.items():
        if key in sections:
            names |= {f"{key}.{k}" for k in value}
        elif key != "apps":
            names.add(key)
    return names


def test_readme_knob_block_names_every_field():
    block = re.search(r"```jsonc\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    knobs = json.loads(block.group(1))
    documented = knob_names(knobs, {k for app in knobs["apps"] for k in app})
    expected = knob_names(Scenario().to_dict(), [f.name for f in fields(AppSpec)])
    assert documented == expected - {"schema"}

"""Scenario definition, validation, and file round-tripping.

Scenarios are plain JSON with a versioned ``schema`` field. Validation
collects every offending field instead of stopping at the first, so a
broken file is diagnosed in one pass.
"""

from __future__ import annotations

import copy
import json
import math
from collections import Counter
from dataclasses import dataclass, field, is_dataclass
from functools import cache
from pathlib import Path
from types import NoneType, UnionType
from typing import Annotated, get_args, get_origin, get_type_hints

from .adversary import CompromiseSpec
from .apps import app_label
from .community import FormationParams
from .crypto import DEFAULT_WIDTH_BITS, MIN_KEY_BITS, SUPPORTED_WIDTHS
from .errors import ScenarioError, UnknownParameterError
from .multipath import DEFAULT_MAC_FANOUT, DEFAULT_QUORUM

SCHEMA_VERSION = 1

# A spec field's ``Annotated`` metadata is its closed bounds ``(low, high)``,
# None for no top; for a map they bound its values. ``_walk`` checks them.

@dataclass
class ProtocolParams:
    digest_width_bits: int = DEFAULT_WIDTH_BITS
    mac_fanout: Annotated[int, 1, None] = DEFAULT_MAC_FANOUT
    quorum: float = DEFAULT_QUORUM
    min_key_bits: Annotated[int, 8, None] = MIN_KEY_BITS
    hop_limit: Annotated[int | None, 1, None] = None
    # When False the requester accepts the claimed digest as the reference
    # instead of binding the delivery to a prior vote. Used by studies that
    # measure what the verifier quorum achieves on its own.
    vote_binding: bool = True


@dataclass
class AppSpec:
    # Empty until set: validation refuses an app without a name.
    name: str = ""
    version: str = "1"
    payload_bytes: Annotated[int, 0, None] = 256
    # "all", an explicit id list, or {"fraction": f} resolved at setup.
    holders: object = "all"
    # Explicit id list or {"fraction": f}; these holders start with a
    # corrupted copy instead of the store package.
    tampered_holders: object = field(default_factory=list)

    label = app_label


@dataclass
class WorkloadSpec:
    requests_per_epoch: Annotated[int, 0, None] = 0
    # Explicit entries: {"epoch": e, "requester": node, "app": "name@ver"}.
    explicit: list[dict] = field(default_factory=list)


_ENTRY_FIELDS = ("epoch", "requester", "app")


@dataclass
class OldDeviceSpec:
    fraction: Annotated[float, 0.0, 1.0] = 0.0
    key_bits: Annotated[int, 8, None] = 64


@dataclass
class StudySpec:
    # In-flight payload substitution after MAC computation; exercises the
    # path where the delivered bytes no longer match what was authenticated.
    delivery_substitution: bool = False
    # When set, each polled verifier independently lies positive with this
    # probability, overriding node behaviors for the verification step.
    verifier_compromise_p: Annotated[float | None, 0.0, 1.0] = None


@dataclass
class Scenario:
    seed: int = 0
    epochs: Annotated[int, 0, None] = 1
    node_count: Annotated[int, 0, None] = 10
    type_distribution: dict[str, Annotated[float, 0.0, None]] = field(
        default_factory=lambda: {"default": 1.0})
    topology: str = "none"                 # "none" | "complete"
    initial_edges: list[list[int]] = field(default_factory=list)
    formation: FormationParams = field(default_factory=FormationParams)
    protocol: ProtocolParams = field(default_factory=ProtocolParams)
    apps: list[AppSpec] = field(default_factory=list)
    compromise: CompromiseSpec = field(default_factory=CompromiseSpec)
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    old_devices: OldDeviceSpec = field(default_factory=OldDeviceSpec)
    study: StudySpec = field(default_factory=StudySpec)
    store_blocked: bool = False
    record_trust: bool = False
    schema: int = SCHEMA_VERSION

    # -- validation ----------------------------------------------------

    def validate(self) -> None:
        problems: list[str] = []
        type_problems = _walk(self, "", [], problems)
        if type_problems:
            raise ScenarioError(type_problems)

        def check(ok: bool, message: str) -> None:
            if not ok:
                problems.append(message)

        check(self.schema == SCHEMA_VERSION,
              f"schema: expected {SCHEMA_VERSION}, got {self.schema!r}")
        check(bool(self.type_distribution), "type_distribution: must not be empty")
        total = sum(self.type_distribution.values())
        check(total > 0, "type_distribution: weights sum to zero")
        check(_fits(total, (float,)), "type_distribution: weights sum to infinity")
        check(self.topology in ("none", "complete"),
              f"topology: must be 'none' or 'complete', got {self.topology!r}")
        if self.topology == "complete" and self.node_count > 1:
            check(self.formation.max_degree >= self.node_count - 1,
                  "formation.max_degree: too small for a complete initial topology")
        links = set()
        for e in self.initial_edges:
            ok = (isinstance(e, (list, tuple)) and len(e) == 2 and self._ids_in_range(e)
                  and e[0] != e[1])
            check(ok, f"initial_edges: bad entry {e!r}")
            if ok:
                links.add((min(e), max(e)))
        if self.topology == "none":
            degree = Counter(node for link in links for node in link)
            over = sorted(node for node, d in degree.items() if d > self.formation.max_degree)
            check(not over, f"initial_edges: nodes {over} would exceed "
                            f"formation.max_degree {self.formation.max_degree}")

        p = self.protocol
        check(p.digest_width_bits in SUPPORTED_WIDTHS,
              f"protocol.digest_width_bits: {p.digest_width_bits} unsupported")
        check(0.0 < p.quorum < 1.0, f"protocol.quorum: {p.quorum} outside (0, 1)")

        labels = set()
        for a in self.apps:
            check(bool(a.name), "apps: empty name")
            check(a.label() not in labels, f"apps: duplicate app {a.label()}")
            labels.add(a.label())
            for name in ("holders", "tampered_holders"):
                selector, where = getattr(a, name), f"apps.{a.name}.{name}"
                if isinstance(selector, dict):
                    problems += _unknown_fields(where, selector, ("fraction",))
                    frac = selector.get("fraction")
                    check(_fits(frac, (int, float)) and 0.0 <= frac <= 1.0,
                          f"{where}: bad fraction {selector!r}")
                elif isinstance(selector, list):
                    check(self._ids_in_range(selector), f"{where}: ids out of range")
                elif name == "tampered_holders":
                    problems.append(f"{where}: expected list or fraction")
                else:
                    check(selector == "all", f"{where}: expected 'all', list, or fraction")

        problems += self.compromise.problems()

        for i, entry in enumerate(self.workload.explicit):
            if isinstance(entry, dict):
                problems += _unknown_fields(f"workload.explicit[{i}]", entry, _ENTRY_FIELDS)
            ok = (isinstance(entry, dict) and _fits(entry.get("epoch"), (int,))
                  and _fits(entry.get("requester"), (int,)) and isinstance(entry.get("app"), str))
            check(ok, f"workload.explicit: bad entry {entry!r}")
            if ok:
                check(entry["app"] in labels,
                      f"workload.explicit: unknown app {entry['app']!r}")
                check(0 <= entry["requester"] < self.node_count,
                      f"workload.explicit: requester {entry['requester']} out of range")
                check(0 <= entry["epoch"] < max(self.epochs, 1),
                      f"workload.explicit: epoch {entry['epoch']} out of range")

        bits = self.old_devices.key_bits  # the field's bound reports a value below 8
        check(bits < 8 or bits % 8 == 0, "old_devices.key_bits: not a multiple of 8")

        if problems:
            raise ScenarioError(problems)

    def _ids_in_range(self, ids: list) -> bool:
        return all(_fits(i, (int,)) and 0 <= i < self.node_count for i in ids)

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        return _plain(self)

    @staticmethod
    def from_dict(data: object) -> "Scenario":
        problems: list[str] = []
        scenario = _build(Scenario, copy.deepcopy(data), "", problems)
        if problems:
            raise ScenarioError(_walk(scenario, "", problems, []))
        scenario.validate()
        return scenario

    @staticmethod
    def from_file(path: str | Path) -> "Scenario":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ScenarioError([f"file: not valid JSON ({exc})"]) from None
        return Scenario.from_dict(data)

    def to_file(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def _fits(value, accepted: tuple[type, ...]) -> bool:
    """``isinstance``, except that a bool fits only an annotation naming
    bool, and a number one naming float only when it is a finite float:
    JSON ``true``, ``NaN``, ``Infinity`` and an integer too large for a
    float are no count, size, rate or cost."""
    if isinstance(value, bool):
        return bool in accepted
    if isinstance(value, (int, float)) and float in accepted:
        try:
            return math.isfinite(value)
        except OverflowError:
            return False
    return isinstance(value, accepted)


def _accepts(hint) -> tuple[tuple[type, ...], tuple[float, float] | None]:
    """The types ``hint`` admits (an int fits a float, None an optional
    field), and the bounds its ``Annotated`` metadata states, with an
    infinite top for None (None when it states none)."""
    bounds = None
    if get_origin(hint) is Annotated:
        hint, low, high = get_args(hint)
        bounds = (low, math.inf if high is None else high)
    members = get_args(hint) if isinstance(hint, UnionType) else (hint,)
    accepted = tuple(get_origin(m) or m for m in members)
    return (accepted + (int,) if float in accepted else accepted), bounds


def _plain(value):
    """``dataclasses.asdict`` for a scenario's values: sections become
    dicts and lists and maps are copied, while scalars and tuples, all
    immutable, are shared rather than deep-copied."""
    schema = _field_types(type(value))
    if schema is not None:
        return {name: _plain(getattr(value, name)) for name in schema}
    if isinstance(value, list):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    return value


@cache
def _field_types(cls) -> dict[str, tuple[tuple[type, ...], tuple[type, ...] | None,
                                         type | None, tuple[float, float] | None]] | None:
    """The schema of a spec class, or None for a class that is not a spec.

    Per field: the types its annotation admits (an int fits a float, None
    an optional field), for a map those of its values, the spec class of a
    section or of a list's entries (None when they are no spec), and the
    bounds on the value, or on a map's values (None when unbounded).
    """
    if not is_dataclass(cls):
        return None
    schema = {}
    for name, hint in get_type_hints(cls, include_extras=True).items():
        accepted, bounds = _accepts(hint)
        items = None
        if get_origin(hint) is dict:
            items, bounds = _accepts(get_args(hint)[1])
        spec = get_args(hint)[0] if get_origin(hint) is list else hint
        schema[name] = (accepted, items, spec if is_dataclass(spec) else None, bounds)
    return schema


def _unknown_fields(where: str, data: dict, known) -> list[str]:
    unknown = data.keys() - known
    return [f"{where}: unknown fields {sorted(unknown, key=str)}"] if unknown else []


def _build(cls, data: object, prefix: str, problems: list[str]):
    """An instance of spec ``cls`` from its JSON object, each section and
    entry built the same way. A value that is no object, a list of entries
    that is no list, and unknown fields go into ``problems`` by path, and
    what they stood for keeps its default."""
    where = prefix[:-1] or "scenario"
    if not isinstance(data, dict):
        problems.append(f"{where}: expected an object, got {type(data).__name__}")
        return cls()
    schema = _field_types(cls)
    problems += _unknown_fields(where, data, schema.keys())
    values = {k: v for k, v in data.items() if k in schema}
    nested = [(name, accepted, spec) for name, (accepted, _, spec, _) in schema.items()
              if spec is not None and name in values]
    # Sections before lists of entries, as ``_walk`` lists them.
    for name, accepted, spec in sorted(nested, key=lambda f: list in f[1]):
        if list not in accepted:
            values[name] = _build(spec, values[name], f"{prefix}{name}.", problems)
        elif isinstance(values[name], list):
            values[name] = [_build(spec, v, f"{prefix}{name}[{i}].", problems)
                            for i, v in enumerate(values[name])]
        else:
            problems.append(f"{prefix}{name}: expected a list")
            values[name] = []
    return cls(**values)


def _mismatch(path: str, value: object, accepted: tuple[type, ...]) -> str:
    if float in accepted and isinstance(value, (int, float)) and not isinstance(value, bool):
        shown = value if isinstance(value, float) else "an int too large for a float"
        return f"{path}: expected a finite number, got {shown}"
    names = " or ".join(sorted("None" if t is NoneType else t.__name__ for t in accepted))
    return f"{path}: expected {names}, got {type(value).__name__}"


def _walk(spec, prefix: str, problems: list[str], range_problems: list[str]) -> list[str]:
    """Append by path each value whose type its field does not admit to
    ``problems``, and each value outside its field's bounds to
    ``range_problems``: the spec's own fields and map values, then each
    section, then each entry of a list of specs, walked the same way.
    Returns ``problems``."""
    sections, entries = [], []
    for name, (accepted, items, cls, bounds) in _field_types(type(spec)).items():
        value = getattr(spec, name)
        if not _fits(value, accepted):
            problems.append(_mismatch(prefix + name, value, accepted))
        elif items is not None:
            for k, v in value.items():
                if not _fits(v, items):
                    problems.append(_mismatch(f"{prefix}{name}.{k}", v, items))
                elif bounds is not None and not bounds[0] <= v <= bounds[1]:
                    range_problems.append(_outside(f"{prefix}{name}.{k}", v, bounds))
        elif cls is not None and list in accepted:
            entries += [(f"{prefix}{name}[{i}]", v, cls) for i, v in enumerate(value)]
        elif cls is not None:
            sections.append((prefix + name, value, cls))
        elif bounds is not None and value is not None and not bounds[0] <= value <= bounds[1]:
            range_problems.append(_outside(prefix + name, value, bounds))
    for path, value, cls in sections + entries:
        if isinstance(value, cls):
            _walk(value, path + ".", problems, range_problems)
        else:
            problems.append(_mismatch(path, value, (cls,)))
    return problems


def _outside(path: str, value: float, bounds: tuple[float, float]) -> str:
    return f"{path}: {value} outside [{bounds[0]}, {bounds[1]}]"


def apply_overrides(base: Scenario, overrides: dict[str, object]) -> Scenario:
    """Rebuild a scenario with dotted-path parameter overrides.

    Paths must name existing scalar parameters ("compromise.fraction",
    "protocol.quorum", "seed"); anything else is rejected so sweeps cannot
    silently fall through to defaults.
    """
    data = base.to_dict()
    for path, value in overrides.items():
        parts = path.split(".")
        node = data
        for part in parts[:-1]:
            if not isinstance(node, dict) or part not in node:
                raise UnknownParameterError(f"unknown parameter path {path!r}")
            node = node[part]
        leaf = parts[-1]
        if not isinstance(node, dict) or leaf not in node:
            raise UnknownParameterError(f"unknown parameter path {path!r}")
        node[leaf] = value
    return Scenario.from_dict(data)

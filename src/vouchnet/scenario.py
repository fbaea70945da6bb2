"""Scenario definition, validation, and file round-tripping.

Scenarios are plain JSON with a versioned ``schema`` field. Validation
collects every offending field instead of stopping at the first, so a
broken file is diagnosed in one pass.
"""

from __future__ import annotations

import copy
import json
from collections import Counter
from dataclasses import dataclass, field, fields, is_dataclass
from functools import cache
from pathlib import Path
from types import NoneType, UnionType
from typing import get_args, get_origin, get_type_hints

from .adversary import CompromiseSpec
from .apps import app_label
from .community import FormationParams
from .crypto import DEFAULT_WIDTH_BITS, MIN_KEY_BITS, SUPPORTED_WIDTHS
from .errors import ScenarioError, UnknownParameterError
from .multipath import DEFAULT_MAC_FANOUT, DEFAULT_QUORUM

SCHEMA_VERSION = 1

@dataclass
class ProtocolParams:
    digest_width_bits: int = DEFAULT_WIDTH_BITS
    mac_fanout: int = DEFAULT_MAC_FANOUT
    quorum: float = DEFAULT_QUORUM
    min_key_bits: int = MIN_KEY_BITS
    hop_limit: int | None = None
    # When False the requester accepts the claimed digest as the reference
    # instead of binding the delivery to a prior vote. Used by studies that
    # measure what the verifier quorum achieves on its own.
    vote_binding: bool = True


@dataclass
class AppSpec:
    name: str
    version: str = "1"
    payload_bytes: int = 256
    # "all", an explicit id list, or {"fraction": f} resolved at setup.
    holders: object = "all"
    # Explicit id list or {"fraction": f}; these holders start with a
    # corrupted copy instead of the store package.
    tampered_holders: object = field(default_factory=list)

    label = app_label


@dataclass
class WorkloadSpec:
    requests_per_epoch: int = 0
    # Explicit entries: {"epoch": e, "requester": node, "app": "name@ver"}.
    explicit: list[dict] = field(default_factory=list)


@dataclass
class OldDeviceSpec:
    fraction: float = 0.0
    key_bits: int = 64


@dataclass
class StudySpec:
    # In-flight payload substitution after MAC computation; exercises the
    # path where the delivered bytes no longer match what was authenticated.
    delivery_substitution: bool = False
    # When set, each polled verifier independently lies positive with this
    # probability, overriding node behaviors for the verification step.
    verifier_compromise_p: float | None = None


@dataclass
class Scenario:
    seed: int = 0
    epochs: int = 1
    node_count: int = 10
    type_distribution: dict[str, float] = field(default_factory=lambda: {"default": 1.0})
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
        problems = self._type_problems()
        if problems:
            raise ScenarioError(problems)

        def check(ok: bool, message: str) -> None:
            if not ok:
                problems.append(message)

        check(self.schema == SCHEMA_VERSION,
              f"schema: expected {SCHEMA_VERSION}, got {self.schema!r}")
        check(self.epochs >= 0, f"epochs: must be a non-negative integer, got {self.epochs!r}")
        check(self.node_count >= 0,
              f"node_count: must be a non-negative integer, got {self.node_count!r}")
        check(bool(self.type_distribution), "type_distribution: must not be empty")
        for t, w in self.type_distribution.items():
            check(w >= 0, f"type_distribution.{t}: negative weight {w}")
        check(sum(self.type_distribution.values()) > 0,
              "type_distribution: weights sum to zero")
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

        f = self.formation
        for name in ("join_rate", "leave_rate"):
            v = getattr(f, name)
            check(0.0 <= v <= 1.0, f"formation.{name}: {v} outside [0, 1]")
        check(f.proposals_per_round >= 0, "formation.proposals_per_round: negative")
        check(f.max_degree >= 1, "formation.max_degree: must be at least 1")
        check(f.supernode_count >= 0, "formation.supernode_count: negative")
        check(f.link_cost >= 0.0, f"formation.link_cost: {f.link_cost} negative")
        check(0.0 <= f.severance_threshold <= 1.0,
              f"formation.severance_threshold: {f.severance_threshold} outside [0, 1]")

        p = self.protocol
        check(p.digest_width_bits in SUPPORTED_WIDTHS,
              f"protocol.digest_width_bits: {p.digest_width_bits} unsupported")
        check(p.mac_fanout >= 1, f"protocol.mac_fanout: {p.mac_fanout} below 1")
        check(0.0 < p.quorum < 1.0, f"protocol.quorum: {p.quorum} outside (0, 1)")
        check(p.min_key_bits >= 8, "protocol.min_key_bits: below 8")
        check(p.hop_limit is None or p.hop_limit >= 1,
              f"protocol.hop_limit: {p.hop_limit} invalid")

        labels = set()
        for a in self.apps:
            check(bool(a.name), "apps: empty name")
            check(a.payload_bytes >= 0, f"apps.{a.name}: negative payload_bytes")
            check(a.label() not in labels, f"apps: duplicate app {a.label()}")
            labels.add(a.label())
            for name in ("holders", "tampered_holders"):
                selector, where = getattr(a, name), f"apps.{a.name}.{name}"
                if isinstance(selector, dict):
                    frac = selector.get("fraction")
                    check(isinstance(frac, (int, float)) and 0.0 <= frac <= 1.0,
                          f"{where}: bad fraction {selector!r}")
                elif isinstance(selector, list):
                    check(self._ids_in_range(selector), f"{where}: ids out of range")
                elif name == "tampered_holders":
                    problems.append(f"{where}: expected list or fraction")
                else:
                    check(selector == "all", f"{where}: expected 'all', list, or fraction")

        problems += self.compromise.problems()

        w = self.workload
        check(w.requests_per_epoch >= 0, "workload.requests_per_epoch: negative")
        for entry in w.explicit:
            ok = (isinstance(entry, dict) and _is_int(entry.get("epoch"))
                  and _is_int(entry.get("requester"))
                  and isinstance(entry.get("app"), str))
            check(ok, f"workload.explicit: bad entry {entry!r}")
            if ok:
                check(entry["app"] in labels,
                      f"workload.explicit: unknown app {entry['app']!r}")
                check(0 <= entry["requester"] < self.node_count,
                      f"workload.explicit: requester {entry['requester']} out of range")
                check(0 <= entry["epoch"] < max(self.epochs, 1),
                      f"workload.explicit: epoch {entry['epoch']} out of range")

        check(0.0 <= self.old_devices.fraction <= 1.0,
              f"old_devices.fraction: {self.old_devices.fraction} outside [0, 1]")
        check(self.old_devices.key_bits >= 8 and self.old_devices.key_bits % 8 == 0,
              "old_devices.key_bits: must be a positive byte multiple")

        s = self.study
        check(s.verifier_compromise_p is None or 0.0 <= s.verifier_compromise_p <= 1.0,
              "study.verifier_compromise_p: outside [0, 1]")

        if problems:
            raise ScenarioError(problems)

    def _ids_in_range(self, ids: list) -> bool:
        return all(_is_int(i) and 0 <= i < self.node_count for i in ids)

    def _type_problems(self) -> list[str]:
        """Values whose type their field does not admit: at the top level,
        in each section that is itself of the right type, and in each app."""
        problems = _spec_type_problems(self, "")
        for f in fields(self):
            section = getattr(self, f.name)
            if is_dataclass(f.default_factory) and isinstance(section, f.default_factory):
                problems += _spec_type_problems(section, f"{f.name}.")
        if isinstance(self.apps, list):
            for i, app in enumerate(self.apps):
                if isinstance(app, AppSpec):
                    problems += _spec_type_problems(app, f"apps[{i}].")
                else:
                    problems.append(f"apps[{i}]: expected AppSpec, got {type(app).__name__}")
        return problems

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        return _plain(self)

    @staticmethod
    def from_dict(data: dict) -> "Scenario":
        data = copy.deepcopy(data)
        problems: list[str] = []

        def build(cls, sub: object, where: str):
            if not isinstance(sub, dict):
                problems.append(f"{where}: expected an object, got {type(sub).__name__}")
                return cls()
            known = {f.name for f in fields(cls)}
            unknown = set(sub) - known
            if unknown:
                problems.append(f"{where}: unknown fields {sorted(unknown)}")
            return cls(**{k: v for k, v in sub.items() if k in known})

        top_known = {f.name for f in fields(Scenario)}
        unknown = set(data) - top_known
        if unknown:
            problems.append(f"scenario: unknown fields {sorted(unknown)}")
            for k in unknown:
                data.pop(k)

        for f in fields(Scenario):
            if is_dataclass(f.default_factory) and f.name in data:
                data[f.name] = build(f.default_factory, data[f.name], f.name)
        if "apps" in data:
            apps = data["apps"]
            if not isinstance(apps, list):
                problems.append("apps: expected a list")
                data["apps"] = []
            else:
                data["apps"] = [build(AppSpec, a, f"apps[{i}]") for i, a in enumerate(apps)]
        scenario = Scenario(**data)
        if problems:
            raise ScenarioError(problems + scenario._type_problems())
        scenario.validate()
        return scenario

    @staticmethod
    def from_file(path: str | Path) -> "Scenario":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ScenarioError([f"file: not valid JSON ({exc})"]) from None
        if not isinstance(data, dict):
            raise ScenarioError(["file: top level must be an object"])
        return Scenario.from_dict(data)

    def to_file(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def _is_int(value) -> bool:
    """An int that is not a bool: JSON ``true`` is no node id or epoch."""
    return isinstance(value, int) and not isinstance(value, bool)


def _fits(value, accepted: tuple[type, ...]) -> bool:
    """``isinstance``, except that a bool fits only an annotation naming
    bool: JSON ``true`` is no count, size or cost."""
    return isinstance(value, accepted) and (bool in accepted or not isinstance(value, bool))


def _accepts(hint) -> tuple[type, ...]:
    members = get_args(hint) if isinstance(hint, UnionType) else (hint,)
    accepted = tuple(get_origin(m) or m for m in members)
    return accepted + (int,) if float in accepted else accepted


@cache
def _field_names(cls) -> tuple[str, ...] | None:
    return tuple(f.name for f in fields(cls)) if is_dataclass(cls) else None


def _plain(value):
    """``dataclasses.asdict`` for a scenario's values: sections become
    dicts and containers are copied, while scalars, all immutable, are
    shared rather than deep-copied."""
    names = _field_names(type(value))
    if names is not None:
        return {name: _plain(getattr(value, name)) for name in names}
    if isinstance(value, list):
        return [_plain(v) for v in value]
    if isinstance(value, tuple):
        return tuple(_plain(v) for v in value)
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    return value


@cache
def _field_types(cls) -> dict[str, tuple[tuple[type, ...], tuple[type, ...] | None]]:
    """Per field of a spec, the types its annotation admits (an int fits a
    float, None an optional field), and for a map those of its values."""
    return {name: (_accepts(hint),
                   _accepts(get_args(hint)[1]) if get_origin(hint) is dict else None)
            for name, hint in get_type_hints(cls).items()}


def _spec_type_problems(spec, prefix: str) -> list[str]:
    def mismatch(path: str, value: object, accepted: tuple[type, ...]) -> str:
        names = " or ".join(sorted("None" if t is NoneType else t.__name__ for t in accepted))
        return f"{path}: expected {names}, got {type(value).__name__}"

    problems = []
    for name, (accepted, items) in _field_types(type(spec)).items():
        value = getattr(spec, name)
        if not _fits(value, accepted):
            problems.append(mismatch(prefix + name, value, accepted))
        elif items is not None:
            problems += [mismatch(f"{prefix}{name}.{k}", v, items)
                         for k, v in value.items() if not _fits(v, items)]
    return problems


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

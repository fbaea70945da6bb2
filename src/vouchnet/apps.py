"""App packages, the trusted store catalog, and per-device install state."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

from .crypto import DEFAULT_WIDTH_BITS, Digest, Memo, fingerprint
from .errors import DuplicateAppError

ORIGIN_STORE = "store"
ORIGIN_TAMPERED = "tampered"


def app_label(app) -> str:
    """The ``name@version`` label of an app's ``name`` and ``version``;
    ``AppId.parse`` reads it back. It is the ``label`` method of ``AppId``
    and of ``scenario.AppSpec``."""
    return f"{app.name}@{app.version}"


@dataclass(frozen=True, slots=True)
class AppId:
    name: str
    version: str

    label = app_label

    @staticmethod
    def parse(label: str) -> "AppId":
        name, _, version = label.partition("@")
        if not name or not version:
            raise ValueError(f"app label {label!r} is not of the form name@version")
        return AppId(name=name, version=version)


@dataclass(frozen=True, slots=True)
class AppPackage(Memo):
    """An installable payload plus where it came from.

    ``adversary`` is the id of the device (or campaign) that produced a
    tampered variant; it is None for store-published packages. Its memo
    is the payload's digest at the width it was last asked for.
    """

    app_id: AppId
    payload: bytes
    origin: str = ORIGIN_STORE
    adversary: int | None = None

    def fingerprint(self, width_bits: int = DEFAULT_WIDTH_BITS) -> Digest:
        try:
            digest = self._memo
        except AttributeError:  # not fingerprinted yet
            digest = None
        if digest is None or digest.width_bits != width_bits:
            digest = fingerprint(self.payload, width_bits)
            object.__setattr__(self, "_memo", digest)
        return digest

    @property
    def is_tampered(self) -> bool:
        return self.origin == ORIGIN_TAMPERED


class AppCatalog:
    """The store's registry of clean packages, one per app id."""

    def __init__(self, width_bits: int = DEFAULT_WIDTH_BITS) -> None:
        self.width_bits = width_bits
        self._clean: dict[AppId, AppPackage] = {}

    def publish_clean(self, app_id: AppId, payload: bytes) -> AppPackage:
        if app_id in self._clean:
            raise DuplicateAppError(f"{app_id.label()} is already published")
        package = AppPackage(app_id=app_id, payload=payload, origin=ORIGIN_STORE)
        self._clean[app_id] = package
        return package

    def clean_package(self, app_id: AppId) -> AppPackage:
        return self._clean[app_id]

    def clean_digest(self, app_id: AppId) -> Digest:
        return self._clean[app_id].fingerprint(self.width_bits)

    def has(self, app_id: AppId) -> bool:
        return app_id in self._clean

    def app_ids(self) -> list[AppId]:
        return sorted(self._clean, key=lambda a: a.label())


def tamper(package: AppPackage, adversary: int, rng: random.Random,
           width_bits: int = DEFAULT_WIDTH_BITS) -> AppPackage:
    """Produce a corrupted variant whose fingerprint differs from the input.

    Mutation is drawn from the given generator, so one adversary seed maps
    to one tampered payload. Re-tampering an already tampered package is
    allowed; the fingerprint still has to change.
    """
    original = package.fingerprint(width_bits)
    payload = package.payload
    while True:
        if payload:
            pos = rng.randrange(len(payload))
            delta = rng.randrange(1, 256)
            mutated = bytes(payload[:pos]) + bytes([payload[pos] ^ delta]) + bytes(payload[pos + 1:])
        else:
            mutated = rng.randbytes(1)
        variant = AppPackage(app_id=package.app_id, payload=mutated,
                             origin=ORIGIN_TAMPERED, adversary=adversary)
        if variant.fingerprint(width_bits) != original:
            return variant
        payload = mutated  # collision is astronomically unlikely; mutate again


class InstallState:
    """What every device currently has installed."""

    def __init__(self) -> None:
        self._installed: dict[int, dict[AppId, AppPackage]] = {}

    def install(self, node: int, package: AppPackage) -> None:
        """Install or replace; a device holds at most one copy per app id."""
        self._installed.setdefault(node, {})[package.app_id] = package

    def uninstall_node(self, node: int) -> None:
        self._installed.pop(node, None)

    def get(self, node: int, app_id: AppId) -> AppPackage | None:
        return self._installed.get(node, {}).get(app_id)

    def entries(self) -> Iterator[tuple[int, AppPackage]]:
        for node in sorted(self._installed):
            for app_id in sorted(self._installed[node], key=lambda a: a.label()):
                yield node, self._installed[node][app_id]

    def infected_entries(self) -> list[tuple[int, AppId]]:
        """Tampered installs in ``entries`` order; only these are sorted."""
        infected = [(n, p.app_id) for n, apps in self._installed.items()
                    for p in apps.values() if p.is_tampered]
        return sorted(infected, key=lambda e: (e[0], e[1].label()))

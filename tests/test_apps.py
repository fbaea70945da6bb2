"""Package catalog, tampering, and install-state behavior."""

import random

import pytest

from vouchnet import crypto
from vouchnet.apps import AppCatalog, AppId, AppPackage, InstallState, tamper
from vouchnet.errors import DuplicateAppError


def test_app_id_label_roundtrip():
    app = AppId("lamp", "1.2")
    assert app.label() == "lamp@1.2"
    assert AppId.parse("lamp@1.2") == app


def test_app_id_parse_rejects_garbage():
    with pytest.raises(ValueError):
        AppId.parse("noversion")


def test_publish_clean_and_lookup():
    catalog = AppCatalog()
    app = AppId("lamp", "1")
    package = catalog.publish_clean(app, b"payload")
    assert not package.is_tampered
    assert catalog.clean_digest(app) == package.fingerprint()


def test_publish_duplicate_raises():
    catalog = AppCatalog()
    app = AppId("lamp", "1")
    catalog.publish_clean(app, b"payload")
    with pytest.raises(DuplicateAppError):
        catalog.publish_clean(app, b"other")


def test_tamper_changes_fingerprint():
    catalog = AppCatalog()
    clean = catalog.publish_clean(AppId("lamp", "1"), b"some payload bytes")
    bad = tamper(clean, adversary=3, rng=random.Random(0))
    assert bad.is_tampered
    assert bad.adversary == 3
    assert bad.fingerprint() != clean.fingerprint()
    assert bad.app_id == clean.app_id


def test_tamper_deterministic_per_seed():
    catalog = AppCatalog()
    clean = catalog.publish_clean(AppId("lamp", "1"), b"some payload bytes")
    a = tamper(clean, adversary=1, rng=random.Random(9))
    b = tamper(clean, adversary=1, rng=random.Random(9))
    assert a.payload == b.payload


def test_tamper_with_different_seeds_can_differ():
    catalog = AppCatalog()
    clean = catalog.publish_clean(AppId("lamp", "1"), b"some payload bytes")
    variants = {tamper(clean, adversary=1, rng=random.Random(s)).payload
                for s in range(8)}
    assert len(variants) > 1
    assert all(v != clean.payload for v in variants)


def test_retamper_still_changes_fingerprint():
    catalog = AppCatalog()
    clean = catalog.publish_clean(AppId("lamp", "1"), b"some payload bytes")
    once = tamper(clean, adversary=1, rng=random.Random(0))
    twice = tamper(once, adversary=2, rng=random.Random(1))
    assert twice.fingerprint() != once.fingerprint()
    assert twice.adversary == 2


def test_tamper_empty_payload():
    catalog = AppCatalog()
    clean = catalog.publish_clean(AppId("null", "1"), b"")
    bad = tamper(clean, adversary=1, rng=random.Random(0))
    assert bad.fingerprint() != clean.fingerprint()


def test_install_replaces_previous_copy():
    catalog = AppCatalog()
    clean = catalog.publish_clean(AppId("lamp", "1"), b"payload")
    bad = tamper(clean, adversary=1, rng=random.Random(0))
    state = InstallState()
    state.install(7, bad)
    assert state.infected_entries() == [(7, clean.app_id)]
    state.install(7, clean)
    assert state.get(7, clean.app_id) is clean
    assert state.infected_entries() == []



def test_package_hashes_its_payload_once_per_width(monkeypatch):
    built = []
    for width, make in list(crypto._HASHES.items()):
        def counted(*args, _make=make, _width=width):
            built.append(_width)
            return _make(*args)
        monkeypatch.setitem(crypto._HASHES, width, counted)

    package = AppPackage(app_id=AppId("lamp", "1"), payload=b"firmware")
    first = package.fingerprint(224)
    assert built == [224]
    for _ in range(10):
        assert package.fingerprint(224) == first
        assert package.fingerprint() == first
    assert built == [224]
    wide = package.fingerprint(256)
    assert built == [224, 256]
    assert package.fingerprint(256) == wide == crypto.fingerprint(b"firmware", 256)
    assert first == crypto.fingerprint(b"firmware", 224)

    fresh = AppPackage(app_id=AppId("lamp", "1"), payload=b"firmware")
    assert package == fresh
    assert hash(package) == hash(fresh)
    assert repr(package) == repr(fresh)

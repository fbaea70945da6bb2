"""What a key, a package or a digest keeps for speed is not part of its
value: a key that has tagged, a package that has been fingerprinted and a
digest that has been bound to an app still copy, pickle and convert to a
dict, and the copy starts with nothing kept."""

import copy
import dataclasses
import pickle

import pytest

from vouchnet.apps import AppId, AppPackage
from vouchnet.crypto import MacKey, fingerprint, mac, verify_mac
from vouchnet.messages import mac_message

DUPLICATES = {
    "deepcopy": copy.deepcopy,
    "copy": copy.copy,
    "pickle": lambda value: pickle.loads(pickle.dumps(value)),
}


def used_key():
    key = MacKey(key_id="pair:1:2", material=bytes(range(32)), length_bits=256)
    return key, mac(key, b"app:lamp:1")


@pytest.mark.parametrize("how", DUPLICATES)
def test_a_key_that_has_tagged_copies_and_still_verifies(how):
    key, tag = used_key()
    duplicate = DUPLICATES[how](key)
    assert duplicate == key and hash(duplicate) == hash(key)
    assert not hasattr(duplicate, "_memo")
    assert verify_mac(duplicate, b"app:lamp:1", tag)
    assert not verify_mac(duplicate, b"app:lamp:2", tag)
    assert verify_mac(key, b"app:lamp:1", tag)


@pytest.mark.parametrize("how", DUPLICATES)
def test_a_fingerprinted_package_copies_with_its_digest(how):
    package = AppPackage(app_id=AppId("lamp", "1"), payload=b"firmware")
    digest = package.fingerprint(256)
    duplicate = DUPLICATES[how](package)
    assert duplicate == package and hash(duplicate) == hash(package)
    assert not hasattr(duplicate, "_memo")
    assert duplicate.fingerprint(256) == digest
    assert duplicate.fingerprint(224) == package.fingerprint(224) != digest


@pytest.mark.parametrize("how", DUPLICATES)
def test_a_bound_digest_copies_without_its_binding(how):
    digest = fingerprint(b"firmware")
    plain = (digest, hash(digest), repr(digest))
    bound = mac_message(AppId("lamp", "1"), digest)
    assert (digest, hash(digest), repr(digest)) == plain
    duplicate = DUPLICATES[how](digest)
    assert duplicate == digest and hash(duplicate) == hash(digest)
    assert repr(duplicate) == repr(digest)
    assert not hasattr(duplicate, "_memo")
    assert mac_message(AppId("lamp", "1"), duplicate) == bound


def test_asdict_lists_exactly_the_fields_of_used_values():
    key, _ = used_key()
    package = AppPackage(app_id=AppId("lamp", "1"), payload=b"firmware")
    digest = package.fingerprint()
    mac_message(package.app_id, digest)
    assert dataclasses.asdict(digest) == {"bits": digest.bits, "width_bits": 224}
    assert dataclasses.asdict(key) == {"key_id": "pair:1:2", "material": bytes(range(32)),
                                       "length_bits": 256}
    assert dataclasses.asdict(package) == {"app_id": {"name": "lamp", "version": "1"},
                                           "payload": b"firmware", "origin": "store",
                                           "adversary": None}


def test_a_package_keeps_the_digest_of_the_width_last_asked_for():
    package = AppPackage(app_id=AppId("lamp", "1"), payload=b"firmware")
    narrow = package.fingerprint(224)
    assert package._memo is narrow
    wide = package.fingerprint(256)
    assert package._memo is wide and wide.width_bits == 256
    assert package.fingerprint(256) is wide

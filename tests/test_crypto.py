"""Fingerprint, MAC, and key pairing behavior."""

import hashlib
import hmac
import random

import pytest

from vouchnet.crypto import (
    Digest,
    KeyStore,
    MacKey,
    fingerprint,
    mac,
    pair,
    verify_mac,
)
from vouchnet.errors import (
    ConfigurationError,
    KeyMismatchError,
    KeyStrengthError,
    PairingError,
)

# Reference values for the empty payload, pinned from the standard
# published test vectors for the two supported widths.
SHA3_224_EMPTY = "6b4e03423667dbb73b6e15454f0eb1abd4597f9a1b078e3f5b5a6bc7"
SHA3_256_EMPTY = "a7ffc6f8bf1ed76651c14756a061d662f580ff4de43b49fa82d80a4b80f8434a"


def make_key(key_id="k", bits=128, seed=0):
    rng = random.Random(seed)
    return MacKey(key_id=key_id, material=rng.randbytes(bits // 8), length_bits=bits)


def test_fingerprint_golden_empty_224():
    d = fingerprint(b"", 224)
    assert d.hex() == SHA3_224_EMPTY
    assert d.width_bits == 224
    assert len(d.bits) * 8 == 224


def test_fingerprint_golden_empty_256():
    assert fingerprint(b"", 256).hex() == SHA3_256_EMPTY


def test_fingerprint_default_width_is_224():
    assert fingerprint(b"abc").width_bits == 224


def test_fingerprint_deterministic():
    assert fingerprint(b"payload") == fingerprint(b"payload")


def test_fingerprint_unsupported_width():
    with pytest.raises(ConfigurationError):
        fingerprint(b"x", 512)
    with pytest.raises(ConfigurationError):
        fingerprint(b"x", 160)


def test_bit_flip_changes_fingerprint():
    rng = random.Random(42)
    for _ in range(50):
        payload = bytearray(rng.randbytes(rng.randrange(1, 64)))
        original = fingerprint(bytes(payload))
        pos = rng.randrange(len(payload))
        payload[pos] ^= 1 << rng.randrange(8)
        assert fingerprint(bytes(payload)) != original


def test_mac_roundtrip():
    key = make_key()
    tag = mac(key, b"message")
    assert tag.key_id == key.key_id
    assert len(tag.tag) * 8 == 224
    assert verify_mac(key, b"message", tag) is True


def test_mac_tag_width_matches_digest_width():
    key = make_key()
    assert len(mac(key, b"m", width_bits=256).tag) * 8 == 256


def test_mac_rejects_modified_message():
    key = make_key()
    tag = mac(key, b"message")
    assert verify_mac(key, b"messagf", tag) is False


def test_mac_differs_across_keys():
    k1, k2 = make_key("k1", seed=1), make_key("k2", seed=2)
    assert mac(k1, b"m").tag != mac(k2, b"m").tag


def test_random_tag_bitflip_fails_verification():
    rng = random.Random(7)
    key = make_key()
    for _ in range(30):
        message = rng.randbytes(rng.randrange(1, 40))
        tag = mac(key, message)
        flipped = bytearray(tag.tag)
        flipped[rng.randrange(len(flipped))] ^= 1 << rng.randrange(8)
        bad = type(tag)(key_id=tag.key_id, tag=bytes(flipped), width_bits=tag.width_bits)
        assert verify_mac(key, message, bad) is False


def test_key_id_mismatch_raises_not_false():
    k1, k2 = make_key("k1", seed=1), make_key("k2", seed=2)
    tag = mac(k1, b"m")
    with pytest.raises(KeyMismatchError):
        verify_mac(k2, b"m", tag)


def test_short_key_refused():
    weak = make_key(bits=64)
    with pytest.raises(KeyStrengthError):
        mac(weak, b"m")


def test_short_key_allowed_when_minimum_lowered():
    weak = make_key(bits=64)
    tag = mac(weak, b"m", min_key_bits=64)
    assert verify_mac(weak, b"m", tag, min_key_bits=64)


def test_verify_refuses_weak_key_under_default_minimum():
    weak = make_key(bits=64)
    tag = mac(weak, b"m", min_key_bits=64)
    with pytest.raises(KeyStrengthError):
        verify_mac(weak, b"m", tag)


def test_key_id_mismatch_is_checked_before_key_strength():
    weak, other = make_key("weak", bits=64, seed=1), make_key("other", bits=64, seed=2)
    tag = mac(other, b"m", min_key_bits=64)
    with pytest.raises(KeyMismatchError):
        verify_mac(weak, b"m", tag)


@pytest.mark.parametrize("width", [224, 256])
def test_mac_matches_reference_hmac(width):
    key = make_key(bits=256, seed=9)
    message = b"app:lamp:1"
    expected = hmac.new(key.material, message, getattr(hashlib, f"sha3_{width}")).digest()
    assert mac(key, message, width_bits=width).tag == expected


def test_key_repr_hides_material():
    key = make_key()
    assert key.material.hex() not in repr(key)
    assert key.material.hex() not in repr(mac(key, b"m"))  # tags are fine, material is not


def test_pair_installs_symmetric_key():
    sa, sb = KeyStore(), KeyStore()
    key = pair(1, 2, sa, sb, random.Random(0))
    assert sa.key_for(2) is key
    assert sb.key_for(1) is key
    assert sa.key_for(2).material == sb.key_for(1).material


def test_pair_self_raises():
    s = KeyStore()
    with pytest.raises(PairingError):
        pair(1, 1, s, s, random.Random(0))


def test_pair_twice_raises():
    sa, sb = KeyStore(), KeyStore()
    pair(1, 2, sa, sb, random.Random(0))
    with pytest.raises(PairingError):
        pair(1, 2, sa, sb, random.Random(1))


def test_pair_deterministic_under_seed():
    k1 = pair(1, 2, KeyStore(), KeyStore(), random.Random(5))
    k2 = pair(1, 2, KeyStore(), KeyStore(), random.Random(5))
    assert k1.material == k2.material


def test_pair_then_remove_allows_repairing():
    sa, sb = KeyStore(), KeyStore()
    pair(1, 2, sa, sb, random.Random(0))
    sa.remove(2)
    sb.remove(1)
    pair(1, 2, sa, sb, random.Random(1))
    assert sa.has(2) and sb.has(1)


def test_digest_equality_is_bitwise():
    a = Digest(bits=b"\x01" * 28, width_bits=224)
    b = Digest(bits=b"\x01" * 28, width_bits=224)
    c = Digest(bits=b"\x02" + b"\x01" * 27, width_bits=224)
    assert a == b
    assert a != c

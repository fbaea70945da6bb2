"""Fingerprints, MACs, and the pairwise keys that linking two devices mints."""

import hashlib
import hmac
import random
import tracemalloc

import pytest

from vouchnet.community import CommunityGraph, NodeProfile
from vouchnet import crypto
from vouchnet.crypto import (
    Digest,
    MacKey,
    MacTag,
    fingerprint,
    mac,
    verify_mac,
)
from vouchnet.errors import (
    ConfigurationError,
    KeyMismatchError,
    KeyStrengthError,
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
    assert verify_mac(weak, b"m", tag, min_key_bits=64)  # the weak key now keeps this tag
    with pytest.raises(KeyStrengthError):
        verify_mac(weak, b"m", tag)
    with pytest.raises(KeyStrengthError):
        mac(weak, b"m")


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


# 1152 bits is exactly the SHA3-224 block (144 bytes) and longer than the
# SHA3-256 block (136 bytes); 1160 and 2048 bits are longer than both, so
# the key is hashed before padding, as RFC 2104 requires.
@pytest.mark.parametrize("bits", [8, 64, 256, 1152, 1160, 2048])
@pytest.mark.parametrize("widths", [(224, 256), (256, 224)])
def test_tags_match_reference_hmac_across_key_lengths_and_widths(bits, widths):
    key = make_key(bits=bits, seed=bits)
    for width in widths:
        for message in (b"", b"app:lamp:1", bytes(range(256)) * 3):
            tag = mac(key, message, width_bits=width, min_key_bits=8)
            assert tag.tag == hmac.digest(key.material, message,
                                          getattr(hashlib, f"sha3_{width}"))
            assert verify_mac(key, message, tag, min_key_bits=8)
    if bits < 128:  # the cached states never bypass the strength check
        with pytest.raises(KeyStrengthError):
            mac(key, b"m", width_bits=widths[0])
        with pytest.raises(KeyStrengthError):
            verify_mac(key, b"m", tag)


def test_key_derives_its_hmac_states_once_per_width(monkeypatch):
    built = []
    for width, make in list(crypto._HASHES.items()):
        def counted(*args, _make=make):
            built.append(1)
            return _make(*args)
        monkeypatch.setitem(crypto._HASHES, width, counted)

    key = make_key(bits=256, seed=3)
    tag = mac(key, b"m", width_bits=224)
    before = len(built)
    for _ in range(100):
        assert verify_mac(key, b"m", tag)
    assert len(built) == before
    mac(key, b"m", width_bits=256)
    assert len(built) == before + 2

    fresh = MacKey(key_id=key.key_id, material=key.material, length_bits=key.length_bits)
    assert key == fresh
    assert hash(key) == hash(fresh)
    assert repr(key) == repr(fresh)
    assert key.material.hex() not in repr(key)


# Two messages of one length, so a memo that told them apart by length
# alone would hand one the other's tag.
M1, M2 = b"app:lamp:1", b"app:lamp:2"


def test_kept_tag_is_the_reference_hmac_as_messages_and_widths_alternate():
    key = make_key(bits=256, seed=4)
    last = last_tag = None
    for width in (224, 256, 224):
        for message in (M1, M1, M2, M1):
            tag = mac(key, message, width_bits=width).tag
            assert tag == hmac.digest(key.material, message, getattr(hashlib, f"sha3_{width}"))
            assert verify_mac(key, message, MacTag(key.key_id, tag, width))
            if last == (message, width):
                assert tag is last_tag  # the kept tag, not hashed again
            last, last_tag = (message, width), tag


def test_kept_tag_does_not_accept_a_zeroed_tag():
    key = make_key()
    genuine = mac(key, M1)
    assert verify_mac(key, M1, genuine)
    zeroed = MacTag(genuine.key_id, bytes(len(genuine.tag)), genuine.width_bits)
    assert verify_mac(key, M1, zeroed) is False


def test_kept_tag_does_not_vouch_for_another_message():
    key = make_key()
    tag = mac(key, M1)
    assert verify_mac(key, M2, tag) is False
    assert verify_mac(key, M1, tag)


def test_key_keeps_one_tag_whatever_the_number_of_messages():
    key = make_key()
    messages = [b"app:lamp:%04d" % i for i in range(1000)]
    mac(key, b"warm-up")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for message in messages:
            assert verify_mac(key, message, mac(key, message))
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < 4096  # 1000 kept tags alone would be over 60 kB


def test_key_repr_hides_material():
    key = make_key()
    assert key.material.hex() not in repr(key)
    assert key.material.hex() not in repr(mac(key, b"m"))  # tags are fine, material is not


def linked_pair(seed=0, bits=(256, 256)):
    """Devices 1 and 2, linked with device 2 proposing."""
    g = CommunityGraph()
    for node, key_bits in zip((1, 2), bits):
        g.add_node(NodeProfile(id=node, node_type="cam", key_length_bits=key_bits))
    g.add_edge(2, 1, random.Random(seed))
    return g


def test_link_installs_one_key_on_both_sides():
    g = linked_pair()
    key = g.keystores[1][2]
    assert g.keystores[2][1] is key
    assert key.key_id == "pair:1:2"  # lower id first, whichever side proposed
    assert key.length_bits == 256
    assert key.material == random.Random(0).randbytes(32)  # one draw of the key's bytes


def test_link_key_deterministic_under_seed():
    def material(seed):
        return linked_pair(seed=seed).keystores[1][2].material

    assert material(5) == material(5)
    assert material(5) != material(6)


def test_relink_after_remove_mints_fresh_key():
    g = linked_pair()
    first = g.keystores[1][2]
    g.remove_edge(1, 2)
    g.add_edge(1, 2, random.Random(1))
    second = g.keystores[1][2]
    assert g.keystores[2][1] is second
    assert second.key_id == first.key_id
    assert second.material != first.material


def test_key_held_on_one_side_is_refused():
    g = linked_pair()
    g.keystores[1].pop(2)  # device 2 still holds the key
    for a, b in [(1, 2), (2, 1)]:
        with pytest.raises(ConfigurationError):
            g.add_edge(a, b, random.Random(1))
    assert 2 not in g.keystores[1]


def test_pair_self_raises():
    g = linked_pair()
    rng = random.Random(1)
    with pytest.raises(ConfigurationError):
        g.add_edge(1, 1, rng)
    assert 1 not in g.keystores[1]
    assert rng.getstate() == random.Random(1).getstate()  # no key material was drawn


def test_key_length_not_a_byte_multiple_is_refused():
    with pytest.raises(ConfigurationError):
        linked_pair(bits=(256, 100))


def test_digest_equality_is_bitwise():
    a = Digest(bits=b"\x01" * 28, width_bits=224)
    b = Digest(bits=b"\x01" * 28, width_bits=224)
    c = Digest(bits=b"\x02" + b"\x01" * 27, width_bits=224)
    assert a == b
    assert a != c

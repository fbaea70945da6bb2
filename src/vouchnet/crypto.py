"""Fingerprints and pairwise message authentication.

Fingerprints are SHA-3 digests at a configurable width (224 or 256 bits).
MACs are HMAC over the same SHA-3 function, so a tag occupies exactly one
fingerprint-width unit on the wire and both primitives are priced alike by
the bandwidth model. ``mac`` and ``verify_mac`` each compute the HMAC in one
``hmac.digest`` call, and verifying compares the raw bytes.
"""

from __future__ import annotations

import hashlib
import hmac as _hmac
import random
from dataclasses import dataclass, field

from .errors import ConfigurationError, KeyMismatchError, KeyStrengthError, PairingError

DEFAULT_WIDTH_BITS = 224
SUPPORTED_WIDTHS = (224, 256)

# Keys shorter than this are considered legacy material and refused.
MIN_KEY_BITS = 128

_HASHES = {224: hashlib.sha3_224, 256: hashlib.sha3_256}


@dataclass(frozen=True)
class Digest:
    """A fixed-width fingerprint. Equality is bitwise."""

    bits: bytes
    width_bits: int

    def hex(self) -> str:
        return self.bits.hex()

    def __repr__(self) -> str:  # short form keeps logs readable
        return f"Digest({self.width_bits}, {self.bits.hex()[:12]}..)"


@dataclass(frozen=True)
class MacKey:
    """Shared symmetric key material for one pair of devices.

    ``repr`` omits the material so keys never leak through logs or
    serialized metrics.
    """

    key_id: str
    material: bytes = field(repr=False)
    length_bits: int

    def __repr__(self) -> str:
        return f"MacKey(id={self.key_id!r}, bits={self.length_bits})"


@dataclass(frozen=True)
class MacTag:
    key_id: str
    tag: bytes
    width_bits: int


def _hash_for(width_bits: int):
    try:
        return _HASHES[width_bits]
    except KeyError:
        raise ConfigurationError(
            f"unsupported digest width {width_bits}; choose one of {SUPPORTED_WIDTHS}"
        ) from None


def fingerprint(payload: bytes, width_bits: int = DEFAULT_WIDTH_BITS) -> Digest:
    """Hash a payload down to a fixed-width fingerprint."""
    h = _hash_for(width_bits)
    return Digest(bits=h(payload).digest(), width_bits=width_bits)


def _check_strength(key: MacKey, min_key_bits: int) -> None:
    if key.length_bits < min_key_bits:
        raise KeyStrengthError(
            f"key {key.key_id!r} is {key.length_bits} bits; minimum is {min_key_bits}"
        )


def mac(key: MacKey, message: bytes, width_bits: int = DEFAULT_WIDTH_BITS,
        min_key_bits: int = MIN_KEY_BITS) -> MacTag:
    """Authenticate a message under a pairwise key.

    The tag is emitted at the digest width, so MACs and fingerprints cost
    the same number of bits on the wire.
    """
    _check_strength(key, min_key_bits)
    raw = _hmac.digest(key.material, message, _hash_for(width_bits))
    return MacTag(key_id=key.key_id, tag=raw, width_bits=width_bits)


def verify_mac(key: MacKey, message: bytes, tag: MacTag,
               min_key_bits: int = MIN_KEY_BITS) -> bool:
    """Check a tag in constant time.

    A key-id mismatch raises rather than returning False: it indicates the
    caller presented the tag against the wrong pairwise key, which must not
    be conflated with a forged message. A key below the minimum raises
    ``KeyStrengthError`` whatever minimum the tag was made under. The
    expected tag is recomputed in full on every call.
    """
    if tag.key_id != key.key_id:
        raise KeyMismatchError(f"tag was made under {tag.key_id!r}, not {key.key_id!r}")
    _check_strength(key, min_key_bits)
    expected = _hmac.digest(key.material, message, _hash_for(tag.width_bits))
    return _hmac.compare_digest(expected, tag.tag)


class KeyStore(dict[int, MacKey]):
    """Per-device map of neighbor id to the shared pairwise key.

    A plain dict underneath, so ``neighbor in store`` and ``len(store)``
    cost one C-level lookup: the community graph reads its links from here.
    """

    def install(self, neighbor: int, key: MacKey) -> None:
        self[neighbor] = key

    def key_for(self, neighbor: int) -> MacKey:
        return self[neighbor]

    def has(self, neighbor: int) -> bool:
        return neighbor in self

    def remove(self, neighbor: int) -> None:
        self.pop(neighbor, None)

    def neighbors(self) -> list[int]:
        return sorted(self)


def pair(a: int, b: int, store_a: KeyStore, store_b: KeyStore,
         rng: random.Random, length_bits: int = 256) -> MacKey:
    """Install a fresh shared key on both sides of a new link.

    Key material comes from the supplied generator, so pairing is
    reproducible under a fixed seed.
    """
    if a == b:
        raise PairingError(f"device {a} cannot pair with itself")
    if store_a.has(b) or store_b.has(a):
        raise PairingError(f"devices {a} and {b} already share a key")
    if length_bits % 8 != 0 or length_bits <= 0:
        raise ConfigurationError(f"key length {length_bits} is not a positive byte multiple")
    lo, hi = min(a, b), max(a, b)
    material = rng.randbytes(length_bits // 8)
    key = MacKey(key_id=f"pair:{lo}:{hi}", material=material, length_bits=length_bits)
    store_a.install(b, key)
    store_b.install(a, key)
    return key

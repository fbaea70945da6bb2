"""Fingerprints and pairwise message authentication.

Fingerprints are SHA-3 digests at a configurable width (224 or 256 bits).
MACs are HMAC over the same SHA-3 function, so a tag occupies exactly one
fingerprint-width unit on the wire and both primitives are priced alike by
the bandwidth model. ``mac`` and ``verify_mac`` each compute the HMAC in one
``hmac.digest`` call, and verifying compares the raw bytes. Keys are
minted only when two devices link (``CommunityGraph.add_edge``), and each
device's key store is a plain ``dict`` of neighbor id to ``MacKey``.
"""

from __future__ import annotations

import hashlib
import hmac as _hmac
from dataclasses import dataclass, field

from .errors import ConfigurationError, KeyMismatchError, KeyStrengthError

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

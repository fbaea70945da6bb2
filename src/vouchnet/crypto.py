"""Fingerprints and pairwise message authentication.

Fingerprints are SHA-3 digests at a configurable width (224 or 256 bits).
MACs are HMAC over the same SHA-3 function, so a tag occupies exactly one
fingerprint-width unit on the wire and both primitives are priced alike by
the bandwidth model. ``mac`` and ``verify_mac`` share one HMAC routine
(RFC 2104): on a key's first use at a width it absorbs the keyed inner and
outer pads into two SHA-3 states and keeps them on the key, and a new tag
after that copies the two states and hashes only the message and the inner
digest. The key also keeps the last message it tagged with that tag, so
tagging or verifying the same binding again under the same key costs one
bytes comparison. Only the expected tag is kept, never a verdict: every
presented tag is still compared in constant time against it. A digest
likewise keeps the last app binding ``messages.mac_message`` encoded for
it, so a delivery's binding is encoded once and every verification round
over it hands each key the very bytes object it tagged. What a key or a
digest keeps lives in a ``Memo`` slot outside its fields, so a copy or a
pickle carries none of it and starts afresh. Keys are minted only when two
devices link (``CommunityGraph.add_edge``), and each device's key store is
a plain ``dict`` of neighbor id to ``MacKey``.
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


class Memo:
    """Base of a frozen slotted dataclass that keeps one value derived from
    its fields in the ``_memo`` slot. The slot is not a field, so it takes
    no part in equality, hashing, ``repr`` or ``dataclasses.asdict``, and the
    generated ``__getstate__``/``__setstate__`` leave it out: a copy or an
    unpickled instance starts with the slot unset. Reading an unset slot
    raises ``AttributeError``."""

    __slots__ = ("_memo",)


@dataclass(frozen=True, slots=True)
class Digest(Memo):
    """A fixed-width fingerprint. Equality is bitwise.

    Once ``messages.mac_message`` has bound the digest to an app, its memo
    is the tuple ``(app_id, bytes)``: the app object and the binding last
    encoded for it, so a sender and every verifier of one delivery share
    one bytes object.
    """

    bits: bytes
    width_bits: int

    def hex(self) -> str:
        return self.bits.hex()

    def __repr__(self) -> str:  # short form keeps logs readable
        return f"Digest({self.width_bits}, {self.bits.hex()[:12]}..)"


@dataclass(frozen=True, slots=True)
class MacKey(Memo):
    """Shared symmetric key material for one pair of devices.

    ``repr`` omits the material so keys never leak through logs or
    serialized metrics. From the key's first use its memo is one tuple
    ``(width_bits, inner, outer, message, tag)``: the keyed HMAC states at
    the width last used and the last message tagged at it, with its tag.
    """

    key_id: str
    material: bytes = field(repr=False)
    length_bits: int

    def __repr__(self) -> str:
        return f"MacKey(id={self.key_id!r}, bits={self.length_bits})"


@dataclass(frozen=True, slots=True)
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


def new_hash(width_bits: int = DEFAULT_WIDTH_BITS):
    """An empty SHA-3 object at ``width_bits``, for hashing a stream in
    pieces: its digest equals ``fingerprint`` over the concatenation."""
    return _hash_for(width_bits)()


def _hmac_tag(key: MacKey, message: bytes, width_bits: int) -> bytes:
    """HMAC-SHA3 of ``message`` under ``key``, byte for byte as RFC 2104.

    The last message tagged at ``width_bits`` gets its kept tag back
    without hashing. Any other message is hashed from the key's pad states,
    which are derived on its first use at ``width_bits`` (again after a
    width change; a run uses one width), and its tag replaces the kept
    one. Message, tag and states live in one tuple, replaced whole, so a
    message is never read with another message's tag.
    """
    try:
        kept_width, inner, outer, kept_message, kept_tag = key._memo
    except AttributeError:  # the key's first use
        kept_width = None
    if kept_width == width_bits:
        if kept_message == message:
            return kept_tag
    else:
        h = _hash_for(width_bits)
        inner = h()
        block = inner.block_size
        material = key.material
        if len(material) > block:
            material = h(material).digest()
        material = material.ljust(block, b"\0")
        inner.update(material.translate(_hmac.trans_36))
        outer = h(material.translate(_hmac.trans_5C))
    inner_hash = inner.copy()
    inner_hash.update(message)
    outer_hash = outer.copy()
    outer_hash.update(inner_hash.digest())
    tag = outer_hash.digest()
    object.__setattr__(key, "_memo", (width_bits, inner, outer, bytes(message), tag))
    return tag


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
    return MacTag(key_id=key.key_id, tag=_hmac_tag(key, message, width_bits),
                  width_bits=width_bits)


def verify_mac(key: MacKey, message: bytes, tag: MacTag,
               min_key_bits: int = MIN_KEY_BITS) -> bool:
    """Check a tag in constant time.

    A key-id mismatch raises rather than returning False: it indicates the
    caller presented the tag against the wrong pairwise key, which must not
    be conflated with a forged message. A key below the minimum raises
    ``KeyStrengthError`` whatever minimum the tag was made under. Both
    checks run on every call, before the key's HMAC state is touched. The
    expected tag is the genuine HMAC of the message under the key: the
    kept one when the key last tagged this message at this width,
    otherwise computed. The presented tag is compared against it in
    constant time either way.
    """
    if tag.key_id != key.key_id:
        raise KeyMismatchError(f"tag was made under {tag.key_id!r}, not {key.key_id!r}")
    if key.length_bits < min_key_bits:  # one comparison on the hot path
        _check_strength(key, min_key_bits)
    return _hmac.compare_digest(_hmac_tag(key, message, tag.width_bits), tag.tag)

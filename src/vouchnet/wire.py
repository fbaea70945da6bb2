"""Canonical byte encoding for protocol messages.

Fixed field order, one-byte type tag, 4-byte big-endian length prefix per
field. Two distinct field sequences can never encode to the same bytes,
which makes the encoding safe to feed into MACs and log digests.
"""

import struct

_TAG_BYTES = b"b"
_TAG_INT = b"i"
_TAG_STR = b"s"


def encode_fields(*fields: bytes | int | str) -> bytes:
    out = bytearray()
    for field in fields:
        if isinstance(field, int):
            raw = struct.pack(">q", field)
            tag = _TAG_INT
        elif isinstance(field, bytes):
            raw = field
            tag = _TAG_BYTES
        elif isinstance(field, str):
            raw = field.encode("utf-8")
            tag = _TAG_STR
        else:
            raise TypeError(f"unsupported wire field type: {type(field)!r}")
        out += tag
        out += struct.pack(">I", len(raw))
        out += raw
    return bytes(out)

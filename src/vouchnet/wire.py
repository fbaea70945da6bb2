"""Canonical byte encoding for protocol messages.

Fixed field order, one-byte type tag, 4-byte big-endian length prefix per
field. Two distinct field sequences can never encode to the same bytes,
which makes the encoding safe to feed into MACs and log digests.
"""

import struct

TAG_BYTES = b"b"
TAG_INT = b"i"
TAG_STR = b"s"

# Every field starts with its tag and its length; an int is 8 bytes.
HEADER = struct.Struct(">cI")
INT = struct.Struct(">q")


def encode_fields(*fields: bytes | int | str) -> bytes:
    out = bytearray()
    for field in fields:
        if isinstance(field, int):
            raw = INT.pack(field)
            tag = TAG_INT
        elif isinstance(field, bytes):
            raw = field
            tag = TAG_BYTES
        elif isinstance(field, str):
            raw = field.encode("utf-8")
            tag = TAG_STR
        else:
            raise TypeError(f"unsupported wire field type: {type(field)!r}")
        out += HEADER.pack(tag, len(raw))
        out += raw
    return bytes(out)

"""Deterministic random-stream derivation.

Every random decision in a run is drawn from a sub-generator derived from
the single root seed plus a label path, so independent subsystems never
share or reorder each other's streams.
"""

import hashlib
import random


def derive_seed(root_seed: int, *labels: object) -> int:
    """Map (root seed, label path) to a stable 64-bit seed: the first 8
    bytes of the SHA-256 of ``root/label/label/...`` in UTF-8."""
    path = "/".join([str(int(root_seed)), *map(str, labels)])
    return int.from_bytes(hashlib.sha256(path.encode("utf-8")).digest()[:8], "big")


def derive_rng(root_seed: int, *labels: object) -> random.Random:
    """Return a generator whose stream depends only on seed and labels."""
    return random.Random(derive_seed(root_seed, *labels))

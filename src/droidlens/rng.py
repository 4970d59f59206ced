"""Deterministic seed derivation.

Every source of randomness in the toolkit draws from a stream derived
from (master seed, purpose, indices...), so results never depend on the
order in which independent units run.  A unit is whatever owns a
stream: a fold split, a k-means run, a SMOTE call, or a whole random
forest, whose trees share one stream in a fixed draw order.
"""

from __future__ import annotations

import zlib

import numpy as np


def _encode(part: int | str) -> int:
    if isinstance(part, str):
        return zlib.crc32(part.encode("utf-8"))
    return int(part) & 0xFFFFFFFFFFFFFFFF


def derive_seed(master: int, *parts: int | str) -> int:
    """Derive a child seed from a master seed and a key path."""
    ss = np.random.SeedSequence([_encode(master), *(_encode(p) for p in parts)])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def derive_rng(master: int, *parts: int | str) -> np.random.Generator:
    """Generator seeded by :func:`derive_seed` of the same key path."""
    ss = np.random.SeedSequence([_encode(master), *(_encode(p) for p in parts)])
    return np.random.default_rng(ss)

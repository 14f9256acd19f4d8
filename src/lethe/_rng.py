"""Deterministic, splittable random streams.

Every stochastic component derives its generator from a global integer seed
plus a structured key, e.g. ``substream(seed, "post", 1234)``.  The key parts
are hashed (SHA-256) into ``numpy.random.SeedSequence`` spawn words, so

* the same (seed, key) always yields the same stream,
* distinct keys yield statistically independent streams,
* per-post simulations can run in any order or thread layout without
  changing their draws.
"""

from __future__ import annotations

import hashlib

import numpy as np

_WORDS_PER_PART = 4


def _key_words(part: object) -> list[int]:
    digest = hashlib.sha256(repr(part).encode("utf-8")).digest()
    return [
        int.from_bytes(digest[4 * i : 4 * i + 4], "little")
        for i in range(_WORDS_PER_PART)
    ]


def substream(seed: int, *key: object) -> np.random.Generator:
    """Return a PCG64 generator for the given (seed, key) address."""
    words = tuple(word for part in key for word in _key_words(part))
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=words)))

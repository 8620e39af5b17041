"""Stable derivation of independent random streams from a master seed.

Seeds are derived by hashing a tag tuple, so adding protocols, sweep points,
or codebook layers never perturbs the streams of existing cells.
"""

from __future__ import annotations

import hashlib

import numpy as np


def derive_seed(master_seed: int, *tags) -> int:
    """Map (master_seed, tags...) to a 64-bit seed, stable across runs."""
    text = repr((int(master_seed),) + tags)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def derive_rng(master_seed: int, *tags) -> np.random.Generator:
    """Independent generator for the stream identified by the tag tuple.

    The generator ``np.random.default_rng`` builds from the derived seed,
    without its argument dispatch.
    """
    return np.random.Generator(np.random.PCG64(derive_seed(master_seed, *tags)))

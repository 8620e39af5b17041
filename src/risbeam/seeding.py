"""Stable derivation of independent random streams from a master seed.

Seeds are derived by hashing a tag tuple, so adding protocols, sweep points,
or codebook layers never perturbs the streams of existing cells. A sweep's
trials share every tag but the last, so ``derive_seeds`` hashes that prefix once.

``derive_rng`` builds one stream as ``PCG64(seed)``, which seeds itself from
``SeedSequence(seed).generate_state(4, np.uint64)``: a fixed run of 32-bit
hash steps, so ``stream_words`` runs them over a whole seed vector, a
fixed-size chunk at a time. ``word_streams`` hands each row of words to PCG64
through a seed sequence that returns it, so each generator draws exactly what
``derive_rng`` gives.
"""

from __future__ import annotations

import hashlib
from itertools import permutations

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# numpy's SeedSequence constants (a pool of 4 words)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _MASK32 = 0xCA01F9DD, 0x4973F715, 0xFFFFFFFF
_WORD_CHUNK = 16384  # seeds per pass of stream_words' hash steps


def derive_seed(master_seed: int, *tags) -> int:
    """Map (master_seed, tags...) to a 64-bit seed, stable across runs."""
    digest = hashlib.sha256(repr((int(master_seed),) + tags).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def derive_seeds(master_seed: int, tags: tuple, count: int) -> np.ndarray:
    """``derive_seed(master_seed, *tags, t)`` for t in ``range(count)``, as uint64: the repr
    at t = 0 less its tail ``0)`` is hashed once, and each tail ``"%d)" % t`` on a copy."""
    prefix = hashlib.sha256(repr((int(master_seed),) + tuple(tags) + (0,))[:-2].encode("utf-8"))
    heads = bytearray()
    for trial in range(count):
        state = prefix.copy()
        state.update(b"%d)" % trial)
        heads += state.digest()[:8]
    return np.frombuffer(heads, ">u8").astype(np.uint64)


def derive_rng(master_seed: int, *tags) -> np.random.Generator:
    """Independent generator for the stream identified by the tag tuple:
    ``np.random.default_rng`` of the derived seed, without its argument dispatch."""
    return np.random.Generator(np.random.PCG64(derive_seed(master_seed, *tags)))


def _hash_words(values: np.ndarray, const: int, mult: int) -> tuple[np.ndarray, int]:
    """SeedSequence's hash step on uint32 values held in uint64, and the next constant."""
    values = values ^ const  # a new array: the steps below work in place
    const = const * mult & _MASK32
    values *= np.uint64(const)
    values &= _MASK32
    values ^= values >> 16
    return values, const


def stream_words(seeds: np.ndarray) -> np.ndarray:
    """``SeedSequence(seed).generate_state(4, np.uint64)`` for every uint64 seed.

    Row s of the (seeds, 4) uint64 result holds the PCG64 seed words of
    ``seeds[s]``. A seed is one or two 32-bit entropy words; one word hashes
    as two with a zero high word. The hash steps run over ``_WORD_CHUNK``
    seeds at a time, so their transient (about 80 B a seed, 1.3 MB a chunk)
    stays a chunk's size.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    words = np.zeros((seeds.size, 4), np.uint64)
    for start in range(0, seeds.size, _WORD_CHUNK):
        part, const, pool = seeds[start:start + _WORD_CHUNK], _INIT_A, []
        for word in (part & _MASK32, part >> 32, np.zeros_like(part), np.zeros_like(part)):
            hashed, const = _hash_words(word, const, _MULT_A)
            pool.append(hashed)
        for src, dst in permutations(range(4), 2):  # every ordered pair, source-major
            hashed, const = _hash_words(pool[src], const, _MULT_A)
            mixed = (_MIX_L * pool[dst] - _MIX_R * hashed) & _MASK32
            pool[dst] = mixed ^ mixed >> 16
        const = _INIT_B
        for i in range(8):  # little-endian pairs of 32-bit outputs form each 64-bit word
            hashed, const = _hash_words(pool[i % 4], const, _MULT_B)
            words[start:start + _WORD_CHUNK, i // 2] |= hashed << 32 * (i % 2)
    return words


class _Words(ISeedSequence):
    """A seed sequence whose state is one precomputed ``stream_words`` row."""

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words, dtype=np.uint64) -> np.ndarray:
        return self.words  # PCG64 asks for its 4 uint64 words only


def word_streams(words: np.ndarray) -> list:
    """One generator per row of (rows, 4) ``stream_words``, each seeded with its row."""
    words = np.ascontiguousarray(words, np.uint64)  # PCG64 reads each row's buffer
    return [np.random.Generator(np.random.PCG64(_Words(row))) for row in words]

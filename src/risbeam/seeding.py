"""Stable derivation of independent random streams from a master seed.

Seeds are derived by hashing a tag tuple, so adding protocols, sweep points,
or codebook layers never perturbs the streams of existing cells.

``derive_rng`` builds one stream as ``PCG64(seed)``, which seeds itself from
``SeedSequence(seed).generate_state(4, np.uint64)``: a fixed run of 32-bit
hash steps, so ``stream_words`` runs them over a sweep's whole seed vector.
``load_streams`` sets reused generators to the 128-bit states PCG64 forms
from those words, and each then draws exactly what ``derive_rng`` gives.
"""

from __future__ import annotations

import hashlib
from itertools import permutations

import numpy as np

# numpy's SeedSequence constants (a pool of 4 words) and PCG64's multiplier
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _MASK32 = 0xCA01F9DD, 0x4973F715, 0xFFFFFFFF
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


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


def _hash_words(values: np.ndarray, const: int, mult: int) -> tuple[np.ndarray, int]:
    """SeedSequence's hash step on uint32 values held in uint64, and the next constant."""
    values = values ^ const  # a new array: the steps below work in place
    const = const * mult & _MASK32
    values *= np.uint64(const)
    values &= _MASK32
    values ^= values >> 16
    return values, const


def stream_words(seeds: np.ndarray) -> np.ndarray:
    """``SeedSequence(seed).generate_state(4, np.uint64)`` for every uint64 seed at once.

    Row s of the (seeds, 4) uint64 result holds the PCG64 seed words of
    ``seeds[s]``. A seed is one or two 32-bit entropy words; one word hashes
    as two with a zero high word.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    const, pool = _INIT_A, []
    for word in (seeds & _MASK32, seeds >> 32, np.zeros_like(seeds), np.zeros_like(seeds)):
        hashed, const = _hash_words(word, const, _MULT_A)
        pool.append(hashed)
    for src, dst in permutations(range(4), 2):  # every ordered pair, source-major
        hashed, const = _hash_words(pool[src], const, _MULT_A)
        mixed = (_MIX_L * pool[dst] - _MIX_R * hashed) & _MASK32
        pool[dst] = mixed ^ mixed >> 16
    const, words = _INIT_B, np.zeros((seeds.size, 4), np.uint64)
    for i in range(8):  # little-endian pairs of 32-bit outputs form each 64-bit word
        hashed, const = _hash_words(pool[i % 4], const, _MULT_B)
        words[:, i // 2] |= hashed << 32 * (i % 2)
    return words


def load_streams(pool: list, words: np.ndarray) -> list:
    """The first ``len(words)`` generators of ``pool``, set to the streams of the word rows.

    The pool grows as needed. PCG64 seeds from the words (initstate, initseq)
    as inc = initseq << 1 | 1 and state = ((inc + initstate) * MULT + inc) mod 2**128.
    """
    pool.extend(np.random.default_rng(0) for _ in range(len(words) - len(pool)))
    for rng, (w0, w1, w2, w3) in zip(pool, words.tolist()):
        inc = ((w2 << 64 | w3) << 1 | 1) % 2**128
        state = ((inc + (w0 << 64 | w1)) * _PCG_MULT + inc) % 2**128
        rng.bit_generator.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                                   "state": {"state": state, "inc": inc}}
    return pool[:len(words)]

"""Systematic [I | Q] block codes, including the dimension-split RIS encoder.

Construction is deterministic: parity rows are filled with distinct tuples of
weight at least two, enumerated by increasing weight and then by position
order, which keeps the minimum distance at 3 while making builds reproducible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

DECODE_MODES = ("none", "one_bit", "decoupled_two_bit")


@dataclass(frozen=True)
class BlockCode:
    k: int
    n: int
    q: np.ndarray  # k x (n - k)
    generator: np.ndarray  # [I_k | q]
    check: np.ndarray  # [q^T | I_{n-k}]
    split: Optional[tuple[int, int, int, int]]  # (k1, m1, k2, m2) when dimension-split
    # error position by integer syndrome, -1 where no single error gives it (always at 0)
    syndrome_lookup: np.ndarray = field(repr=False)
    # the same per RIS dimension, by its block syndrome, for a dimension-split code
    side_lookups: Optional[tuple[np.ndarray, np.ndarray]] = field(repr=False)

    @property
    def m(self) -> int:
        return self.n - self.k


def int_to_bits(value, width: int) -> np.ndarray:
    """Big-endian bits of the given width (bit 1 is the most significant) on a new last axis."""
    value = np.asarray(value)
    if (value < 0).any() or (value >= (1 << width)).any():
        raise ValueError(f"value {value} does not fit in {width} bits")
    return ((value[..., None] >> np.arange(width - 1, -1, -1)) & 1).astype(np.uint8)


def bits_to_int(bits) -> int:
    out = 0
    for b in bits:
        out = (out << 1) | int(b)
    return out


def rows_to_ints(bits: np.ndarray) -> np.ndarray:
    """``bits_to_int`` of every row of a (rows, width) bit array."""
    weights = 1 << np.arange(bits.shape[1] - 1, -1, -1, dtype=np.int64)
    return bits.astype(np.int64) @ weights


def redundancy_length(k: int) -> int:
    """Smallest m with 2**m - m - 1 >= k."""
    if k < 1:
        raise ValueError("k must be positive")
    m = 1
    while 2**m - m - 1 < k:
        m += 1
    return m


def parity_rows(m: int, count: int) -> np.ndarray:
    """First ``count`` m-bit rows of weight >= 2, by weight then position order."""
    rows = []
    for weight in range(2, m + 1):
        for positions in itertools.combinations(range(m), weight):
            row = np.zeros(m, dtype=np.uint8)
            row[list(positions)] = 1
            rows.append(row)
            if len(rows) == count:
                return np.array(rows, dtype=np.uint8)
    raise ValueError(f"{m} parity bits admit only {2**m - m - 1} rows, need {count}")


def _lookup(check: np.ndarray, positions) -> np.ndarray:
    """Error position by integer syndrome (column p of ``check`` for position p), else -1."""
    out = np.full(1 << check.shape[0], -1, dtype=np.intp)
    out[rows_to_ints(check[:, positions].T)] = positions
    out[0] = -1
    return out


def _assemble(k: int, q: np.ndarray, split) -> BlockCode:
    n = k + q.shape[1]
    generator = np.concatenate([np.eye(k, dtype=np.uint8), q], axis=1)
    check = np.concatenate([q.T, np.eye(n - k, dtype=np.uint8)], axis=1)
    side_lookups = None
    if split is not None:
        k1, m1, _, _ = split
        # a block syndrome only involves its own side: systematic bits, then parity bits
        side_lookups = (_lookup(check[:m1], np.r_[0:k1, k:k + m1]),
                        _lookup(check[m1:], np.r_[k1:k, k + m1:n]))
    return BlockCode(k=k, n=n, q=q, generator=generator, check=check, split=split,
                     syndrome_lookup=_lookup(check, np.arange(n)),
                     side_lookups=side_lookups)


def build_plain_code(k: int) -> BlockCode:
    """Single-block code with the smallest redundancy for k information bits."""
    m = redundancy_length(k)
    return _assemble(k, parity_rows(m, k), split=None)


def build_identity_code(k1: int, k2: Optional[int] = None) -> BlockCode:
    """Uncoded code [I_k] (n = k, no parity): the hierarchical basis patterns.

    With k2 it is split like the RIS code, (k1, 0, k2, 0), so every layer's
    pattern varies along one RIS dimension and its design factorizes.
    """
    k = k1 + (k2 or 0)
    split = None if k2 is None else (k1, 0, k2, 0)
    return _assemble(k, np.zeros((k, 0), dtype=np.uint8), split)


def build_reduced_code(k1: int, k2: int) -> BlockCode:
    """Dimension-split code with block-diagonal q = diag(Q_I, Q_II).

    Each RIS dimension must hold more than 4 elements (k1, k2 >= 3):
    otherwise a parity block cannot carry distinct weight->=2 rows and the
    single-error correction guarantee is lost.
    """
    if 2**k1 <= 4 or 2**k2 <= 4:
        raise ValueError(
            "dimension-split construction needs more than 4 elements per RIS "
            f"dimension (got 2**{k1} x 2**{k2})"
        )
    m1 = max(3, redundancy_length(k1))
    m2 = max(3, redundancy_length(k2))
    q = np.zeros((k1 + k2, m1 + m2), dtype=np.uint8)
    q[:k1, :m1] = parity_rows(m1, k1)
    q[k1:, m1:] = parity_rows(m2, k2)
    return _assemble(k1 + k2, q, split=(k1, m1, k2, m2))


def encode(code: BlockCode, u) -> np.ndarray:
    """The codeword of an information word, or of each word of a stack on the last axis."""
    u = np.asarray(u, dtype=np.uint8)
    if u.shape[-1:] != (code.k,):
        raise ValueError(f"information word must have length {code.k}")
    return (u @ code.generator) % 2


def syndrome(code: BlockCode, x_hat) -> np.ndarray:
    """The syndrome of a received word, or of each word of a stack on the last axis."""
    x_hat = np.asarray(x_hat, dtype=np.uint8)
    if x_hat.shape[-1:] != (code.n,):
        raise ValueError(f"codeword must have length {code.n}")
    return (x_hat @ code.check.T) % 2  # parity survives uint8 wrap-around


def decode_words(code: BlockCode, words, mode: str = "one_bit"):
    """Recover the information bits of a (trials, n) stack of received words.

    "none" returns the systematic bits unmodified. "one_bit" flips the unique
    single-bit error matching the syndrome, if any, read off
    ``syndrome_lookup``. "decoupled_two_bit" splits the syndrome at the
    dimension boundary and corrects up to one bit independently in each
    block with ``side_lookups``; it requires a dimension-split code. Returns
    (information bits (trials, k), corrected, uncorrectable, flipped), where
    flipped holds up to two corrected positions per word, -1 in unused slots.
    """
    if mode not in DECODE_MODES:
        raise ValueError(f"unknown decode mode {mode!r}")
    words = np.array(words, dtype=np.uint8)
    if words.ndim != 2 or words.shape[1] != code.n:
        raise ValueError(f"codewords must have length {code.n}")
    blocks = []
    if mode == "one_bit":
        blocks = [(syndrome(code, words), code.syndrome_lookup)]
    elif mode == "decoupled_two_bit":
        if code.split is None:
            raise ValueError("decoupled_two_bit decoding needs a dimension-split code")
        syn, m1 = syndrome(code, words), code.split[1]
        blocks = list(zip((syn[:, :m1], syn[:, m1:]), code.side_lookups))
    flipped = np.full((words.shape[0], 2), -1, dtype=np.intp)
    uncorrectable = np.zeros(words.shape[0], dtype=bool)
    for slot, (bits, lookup) in enumerate(blocks):
        syn = rows_to_ints(bits)
        flipped[:, slot] = lookup[syn]
        uncorrectable |= (syn != 0) & (flipped[:, slot] < 0)
    rows, slots = np.nonzero(flipped >= 0)
    words[rows, flipped[rows, slots]] ^= 1
    return words[:, :code.k], (flipped >= 0).any(axis=1), uncorrectable, flipped


def min_distance(code: BlockCode) -> int:
    """Minimum Hamming weight over all nonzero codewords (exhaustive, k <= 20)."""
    if code.k > 20:
        raise ValueError("exhaustive distance scan limited to k <= 20")
    words = encode(code, int_to_bits(np.arange(1, 2**code.k), code.k))
    return int(words.sum(axis=1).min())

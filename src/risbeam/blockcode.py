"""Systematic [I | Q] block codes, including the dimension-split RIS encoder.

Construction is deterministic: parity rows are filled with distinct tuples of
weight at least two, enumerated by increasing weight and then by position
order, which keeps the minimum distance at 3 while making builds reproducible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
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
    syndrome_table: dict = field(repr=False)  # syndrome bits -> error position
    side_tables: Optional[tuple[dict, dict]] = field(default=None, repr=False)

    @property
    def m(self) -> int:
        return self.n - self.k

    @cached_property
    def syndrome_lookup(self) -> np.ndarray:
        """``syndrome_table`` indexed by the integer syndrome; -1 where it has no entry."""
        return _lookup(self.syndrome_table, self.m)

    @cached_property
    def side_lookups(self) -> Optional[tuple[np.ndarray, np.ndarray]]:
        """``side_tables`` as arrays indexed by each block's integer syndrome."""
        if self.side_tables is None:
            return None
        _, m1, _, m2 = self.split
        return _lookup(self.side_tables[0], m1), _lookup(self.side_tables[1], m2)


@dataclass(frozen=True)
class CorrectionReport:
    corrected: bool
    uncorrectable: bool
    flipped: tuple[int, ...]


def int_to_bits(value: int, width: int) -> np.ndarray:
    """Big-endian bit vector of the given width (bit 1 is the most significant)."""
    if value < 0 or value >= (1 << width):
        raise ValueError(f"value {value} does not fit in {width} bits")
    return np.array([(value >> (width - 1 - i)) & 1 for i in range(width)], dtype=np.uint8)


def bits_to_int(bits) -> int:
    out = 0
    for b in bits:
        out = (out << 1) | int(b)
    return out


def rows_to_ints(bits: np.ndarray) -> np.ndarray:
    """``bits_to_int`` of every row of a (rows, width) bit array."""
    weights = 1 << np.arange(bits.shape[1] - 1, -1, -1, dtype=np.int64)
    return bits.astype(np.int64) @ weights


def _lookup(table: dict, m: int) -> np.ndarray:
    out = np.full(1 << m, -1, dtype=np.intp)
    for syn, pos in table.items():
        out[bits_to_int(syn)] = pos
    return out


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


def _single_error_syndromes(check: np.ndarray) -> dict:
    table = {}
    n = check.shape[1]
    for pos in range(n):
        error = np.zeros(n, dtype=np.uint8)
        error[pos] = 1
        table[tuple((error @ check.T) % 2)] = pos
    return table


def _assemble(k: int, q: np.ndarray, split) -> BlockCode:
    n = k + q.shape[1]
    generator = np.concatenate([np.eye(k, dtype=np.uint8), q], axis=1)
    check = np.concatenate([q.T, np.eye(n - k, dtype=np.uint8)], axis=1)
    side_tables = None
    if split is not None:
        k1, m1, k2, m2 = split
        # block syndromes only involve own-side positions: q rows, then parity units
        table1 = {tuple(q[r, :m1]): r for r in range(k1)}
        table1.update({tuple(np.eye(m1, dtype=np.uint8)[r]): k + r for r in range(m1)})
        table2 = {tuple(q[k1 + r, m1:]): k1 + r for r in range(k2)}
        table2.update({tuple(np.eye(m2, dtype=np.uint8)[r]): k + m1 + r for r in range(m2)})
        side_tables = (table1, table2)
    return BlockCode(k=k, n=n, q=q, generator=generator, check=check, split=split,
                     syndrome_table=_single_error_syndromes(check),
                     side_tables=side_tables)


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
    u = np.asarray(u, dtype=np.uint8)
    if u.shape != (code.k,):
        raise ValueError(f"information word must have length {code.k}")
    return (u @ code.generator) % 2


def syndrome(code: BlockCode, x_hat) -> np.ndarray:
    x_hat = np.asarray(x_hat, dtype=np.uint8)
    if x_hat.shape != (code.n,):
        raise ValueError(f"codeword must have length {code.n}")
    return (x_hat @ code.check.T) % 2


def decode(code: BlockCode, x_hat, mode: str = "one_bit"):
    """Recover the information bits, correcting per the requested mode.

    "none" returns the systematic bits unmodified. "one_bit" flips the unique
    single-bit error matching the syndrome, if any. "decoupled_two_bit" splits
    the syndrome at the dimension boundary and corrects up to one bit
    independently in each block; it requires a dimension-split code.
    Returns (information bits, CorrectionReport).
    """
    if mode not in DECODE_MODES:
        raise ValueError(f"unknown decode mode {mode!r}")
    x_hat = np.asarray(x_hat, dtype=np.uint8).copy()
    if x_hat.shape != (code.n,):
        raise ValueError(f"codeword must have length {code.n}")
    if mode == "none":
        return x_hat[: code.k], CorrectionReport(False, False, ())

    syn = syndrome(code, x_hat)
    if mode == "one_bit":
        if not syn.any():
            return x_hat[: code.k], CorrectionReport(False, False, ())
        pos = code.syndrome_table.get(tuple(syn))
        if pos is None:
            return x_hat[: code.k], CorrectionReport(False, True, ())
        x_hat[pos] ^= 1
        return x_hat[: code.k], CorrectionReport(True, False, (pos,))

    if code.split is None:
        raise ValueError("decoupled_two_bit decoding needs a dimension-split code")
    _, m1, _, _ = code.split
    flipped = []
    uncorrectable = False
    for block_syn, table in ((syn[:m1], code.side_tables[0]),
                             (syn[m1:], code.side_tables[1])):
        if not block_syn.any():
            continue
        pos = table.get(tuple(block_syn))
        if pos is None:
            uncorrectable = True
        else:
            x_hat[pos] ^= 1
            flipped.append(pos)
    return x_hat[: code.k], CorrectionReport(bool(flipped), uncorrectable, tuple(flipped))


def decode_words(code: BlockCode, words, mode: str = "one_bit"):
    """``decode`` for a (trials, n) stack of received words at once.

    Syndromes become integers and index ``syndrome_lookup`` (one-bit mode) or
    the two ``side_lookups`` blocks (decoupled two-bit mode). Returns
    (information bits (trials, k), corrected, uncorrectable, flipped), where
    flipped holds up to two corrected positions per word, -1 in unused slots;
    row t agrees with ``decode(code, words[t], mode)``.
    """
    if mode not in DECODE_MODES:
        raise ValueError(f"unknown decode mode {mode!r}")
    words = np.array(words, dtype=np.uint8)
    if words.ndim != 2 or words.shape[1] != code.n:
        raise ValueError(f"codewords must have length {code.n}")
    flipped = np.full((words.shape[0], 2), -1, dtype=np.intp)
    uncorrectable = np.zeros(words.shape[0], dtype=bool)
    if mode == "one_bit":
        blocks = [(code.check, code.syndrome_lookup)]
    elif mode == "decoupled_two_bit":
        if code.split is None:
            raise ValueError("decoupled_two_bit decoding needs a dimension-split code")
        m1 = code.split[1]
        blocks = list(zip((code.check[:m1], code.check[m1:]), code.side_lookups))
    else:
        blocks = []
    for slot, (check, lookup) in enumerate(blocks):
        syn = rows_to_ints((words @ check.T) % 2)  # parity survives uint8 wrap-around
        pos = lookup[syn]
        uncorrectable |= (syn != 0) & (pos < 0)
        flipped[:, slot] = np.where(syn != 0, pos, -1)
    rows, slots = np.nonzero(flipped >= 0)
    words[rows, flipped[rows, slots]] ^= 1
    return words[:, :code.k], (flipped >= 0).any(axis=1), uncorrectable, flipped


def min_distance(code: BlockCode) -> int:
    """Minimum Hamming weight over all nonzero codewords (exhaustive, k <= 20)."""
    if code.k > 20:
        raise ValueError("exhaustive distance scan limited to k <= 20")
    best = code.n
    for value in range(1, 2**code.k):
        word = encode(code, int_to_bits(value, code.k))
        best = min(best, int(word.sum()))
    return best

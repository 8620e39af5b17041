"""The beam-training protocols: exhaustive, layered and adaptive.

Every protocol is a block runner, ``runner(block, ..., snr, budget, rngs) ->
TrainingRuns``: trial t runs on row t of a ``channel.ChannelBlock`` with
noise from ``rngs[t]``, at the one SNR of ``snr`` or at its row t, and under
the one pilot budget of ``budget`` or its row t. Each sends beam tuples,
measures one noisy power per tuple in transmit order, and maps argmax
decisions to angle-index estimates.
A tuple's gain is the product of a BS and a RIS response (``beam_responses``).
A layered protocol sends one (BS, RIS) beam pair per layer as 4 tuples and
reads one decision per side: ``run_layered`` runs coded training (with
identity codes and decode mode "none", full-coverage hierarchical training),
deciding every layer of every trial in one argmax. ``run_adaptive`` runs
adaptive hierarchical training: its layers run in turn, since each layer's
beams depend on the decisions so far, and each layer gathers every trial's
beam pair from the ``codebook.prefix_beams`` matrices. Both take beams and
codes designed at set-up and end alike: the decisions become raw bits,
``decode_words`` decodes the block (the adaptive runner with identity codes
in mode "none"), and the information bits become the estimates. The runners
are tested against the per-pilot reference in ``tests/reference.py``.

Designed codewords are stored in coverage convention and conjugated at
transmit time; RIS codewords additionally de-rotate the known static RIS-BS
steering phases so the training depends only on the UE-side angle.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Optional

import numpy as np

from .arrays import AngleGrid, ArrayGeometry, ceil_log2, whole_number
from .blockcode import (
    DECODE_MODES,
    BlockCode,
    build_plain_code,
    build_reduced_code,
    decode_words,
    rows_to_ints,
)
from .channel import ChannelBlock, SnrSpec, pilot_noise, received_power
from .codebook import DesignedCodebook, bs_steering_matrix

PROTOCOL_KINDS = ("exhaustive", "hierarchical", "coded")
HIERARCHICAL_VARIANTS = ("full_coverage", "adaptive")


@dataclass(frozen=True)
class ProtocolSpec:
    """A protocol selection: kind, decode mode, pilot budget and hierarchical variant.

    decode_mode applies to coded training and hierarchical_variant to
    hierarchical training; every other kind must leave them at their defaults.
    pilot_budget None means unlimited (the protocol uses its full overhead);
    a whole-number float such as 8.0 is stored as the int 8. Layered protocols
    send whole 4-pilot layers: a remainder of 1 to 3 pilots is left unused,
    so a budget of 10 sends 2 layers and reports 8 pilots.
    """

    kind: str
    decode_mode: str = "one_bit"
    pilot_budget: Optional[int] = None
    hierarchical_variant: str = "full_coverage"

    def __post_init__(self) -> None:
        if self.kind not in PROTOCOL_KINDS:
            raise ValueError(f"unknown protocol kind {self.kind!r}")
        if self.decode_mode not in DECODE_MODES:
            raise ValueError(f"unknown decode mode {self.decode_mode!r}")
        if self.hierarchical_variant not in HIERARCHICAL_VARIANTS:
            raise ValueError(f"unknown hierarchical variant {self.hierarchical_variant!r}")
        for name, kind in (("decode_mode", "coded"), ("hierarchical_variant", "hierarchical")):
            if self.kind != kind and getattr(self, name) != getattr(ProtocolSpec, name):
                raise ValueError(f"{name} applies to {kind} training only, got "
                                 f"{getattr(self, name)!r} for {self.kind} training")
        object.__setattr__(self, "pilot_budget", check_budget(self.kind, self.pilot_budget))

    @property
    def tag(self) -> str:
        if self.kind == "coded":
            return f"coded_{self.decode_mode}"
        if self.kind == "hierarchical" and self.hierarchical_variant != "full_coverage":
            return f"hierarchical_{self.hierarchical_variant}"
        return self.kind


def check_budget(kind: str, budget) -> Optional[int]:
    """A pilot budget as an int, or None (unlimited) for None.

    Rejects a value that is not a whole number, bools included, and a budget
    below one tuple (exhaustive) or one 4-tuple layer (layered).
    """
    if budget is None:
        return None
    budget = whole_number(budget, "a pilot budget")
    least = 1 if kind == "exhaustive" else 4
    if budget < least:
        raise ValueError(f"{kind} training needs a pilot budget of at least {least}, "
                         f"got {budget}")
    return budget


def _check_constant_modulus(ris_beams: np.ndarray, n_ris: int) -> None:
    """``np.allclose(abs(ris_beams), 1/sqrt(n_ris), atol=1e-9)``, written out for speed.

    Each caller checks the RIS beams it sends, in coverage convention:
    ``run_layered`` its whole RIS codebook matrix once a call, ``run_adaptive``
    each layer's gathered pairs (one check of the whole prefix matrix is
    dearer at full size, whose 511 columns outnumber a 16-row block's pairs),
    and ``tuple_rates`` the narrow-beam columns it reads.
    """
    target = 1.0 / np.sqrt(n_ris)
    if not np.all(np.abs(np.abs(ris_beams) - target) <= 1e-9 + 1e-5 * target):
        raise ValueError("RIS vector must have constant modulus 1/sqrt(n_ris)")


def beam_responses(block: ChannelBlock, bs_cov: np.ndarray, ris_cov: np.ndarray,
                   ideal: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """The (BS, RIS) responses of a block to codeword columns, (trials, columns) each.

    Trial t's gain for BS column i and RIS column j is ``bs[t, i] * ris[t, j]``
    (see ``ChannelBlock``). A codeword matrix is shared, (n, columns), or one
    per trial, (trials, n, columns), with any leading axes. Stacked
    matrix-vector products keep a trial's responses independent of the block.
    Ideal (mask-valued) codewords read the true-index rows. The callers check
    the RIS beams' modulus.
    """
    if ideal:
        return _true_rows(bs_cov, block.bs_index), _true_rows(ris_cov, block.ris_index)
    return ((block.beta[:, None, :] @ np.conj(bs_cov))[..., 0, :],
            (block.h_r[:, None, :] @ np.conj(ris_cov))[..., 0, :])


def _true_rows(cov: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Row ``index[t] - 1`` of trial t's codeword matrix; a 2-D matrix is shared."""
    return np.broadcast_to(cov, (len(index), *cov.shape[-2:]))[np.arange(len(index)), index - 1]


def _clamp_index(value, n: int):
    return np.minimum(np.maximum(value, 1), n)


def _row_counts(kind: str, budget, rows: int, needed: int, per: int) -> np.ndarray:
    """Each row's count of units of ``per`` pilots sent, at most ``needed``, under a budget
    per row or one budget (None for unlimited) for every row; each value is checked once."""
    budgets, counts = np.empty(rows, dtype=object), np.empty(rows, dtype=np.intp)
    budgets[:] = budget
    values = budgets.tolist()
    for _, value in set(zip(map(type, values), values)):  # so True beside 1 is checked too
        counts[budgets == value] = (needed if value is None
                                    else min(needed, check_budget(kind, value) // per))
    return counts


def _layer_noise(sizes, snr: SnrSpec, budget, rngs) -> tuple[np.ndarray, int, np.ndarray]:
    """(layers each trial sends, layers needed, noise): row t's ``pilot_noise`` of its
    (sent[t], 2, 2) pilots, zero-padded to the most layers sent."""
    needed = max(sizes)
    if needed == 0:
        raise ValueError("nothing to train: both arrays have a single candidate")
    sent = _row_counts("layered", budget, len(rngs), needed, 4)
    noise = np.zeros((len(rngs), sent.max(initial=0), 2, 2, 2))
    if not snr.noiseless:  # pilot_noise's draws, made in place and scaled once
        for row, rng, layers in zip(noise, rngs, sent.tolist()):
            rng.standard_normal(out=row[:layers])
        noise /= np.sqrt(2.0)
    return sent, needed, noise


def _side_bits(winners: np.ndarray, n: int, side: str) -> np.ndarray:
    """One side's (trials, n) raw bits from the (trials, layers sent) winning tuples.

    Layer l decides bit l of a side with n > l: the high bit of the tuple for
    the BS, the low bit for the RIS. Bits of layers not sent are zero.
    """
    sent = min(n, winners.shape[1])
    bits = np.zeros((winners.shape[0], n), dtype=np.uint8)
    bits[:, :sent] = winners[:, :sent] >> 1 if side == "bs" else winners[:, :sent] & 1
    return bits


@dataclass(frozen=True)
class TrainingRuns:
    """One protocol on a block of trials; arrays run over the trials.

    ``decoded`` holds each side's (corrected, uncorrectable, flipped) arrays
    from ``decode_words`` for every layered protocol; identity codes in mode
    "none" give all-clean arrays. Exhaustive training does not decode: its
    ``decoded`` is empty and it has no raw bits. Trial t sends ``pilots[t]``
    pilots, under its own budget; one with fewer than ``needed`` is truncated.
    """

    est_bs_index: np.ndarray
    est_ris_index: np.ndarray
    raw_bits_bs: np.ndarray  # (trials, n_t)
    raw_bits_ris: np.ndarray  # (trials, n_r)
    decoded: tuple
    pilots: np.ndarray  # (trials,)
    needed: int  # the pilots of an untruncated trial

    # block totals, as perfbench/tracing.py reads them: all pilots, and any trial truncated
    pilots_used = property(lambda self: int(self.pilots.sum()))
    truncated = property(lambda self: bool((self.pilots < self.needed).any()))


def run_layered(
    block: ChannelBlock,
    books: tuple[DesignedCodebook, DesignedCodebook],
    codes: tuple[BlockCode, BlockCode],
    snr: SnrSpec,
    budget,
    rngs,
    decode_mode: str = "one_bit",
    *,
    ideal: bool = False,
) -> TrainingRuns:
    """Layered beam training of a block: trial t on row t, noise from ``rngs[t]``.

    Layer l sends the 4 tuples of BS layer l mod n_t and RIS layer l mod n_r
    in the order (0,0), (0,1), (1,0), (1,1) (BS bit, RIS bit; bit 1 is the
    mask=1 codeword); ties break toward the first and each side keeps its
    first n decisions. A budget short of 4*max(n_t, n_r) truncates its trial
    and zero-fills the missing bits. Gains come from the block's responses
    to the codebook matrices and each trial's noise from one ``pilot_noise``
    draw; powers, decisions and decoding run once for the block, over the
    most layers a trial sends. The BS side decodes with at most one-bit
    correction; the decoupled two-bit mode applies to the RIS side. Identity
    codes with decode mode "none" give full-coverage hierarchical training.
    """
    code_t, code_r = codes
    if min(code_t.n, code_r.n) == 0:
        raise ValueError("layered training needs more than one candidate on each side")
    sent, needed, noise = _layer_noise((code_t.n, code_r.n), snr, budget, rngs)
    layers = np.arange(noise.shape[1])[:, None]
    rows = (2 * (layers % code_t.n) + (0, 1))[:, :, None]
    cols = (2 * (layers % code_r.n) + (0, 1))[:, None, :]
    if not ideal:
        _check_constant_modulus(books[1].matrix, block.n_ris)
    bs, ris = beam_responses(block, books[0].matrix, books[1].matrix, ideal)
    powers = received_power(bs[:, rows] * ris[:, cols], snr, noise)
    winners = powers.reshape(len(rngs), len(layers), 4).argmax(axis=-1)

    return _decode_layers(block, winners, codes, decode_mode, sent, needed)


def _decode_layers(block, winners: np.ndarray, codes: tuple[BlockCode, BlockCode],
                   decode_mode: str, sent: np.ndarray, needed: int) -> TrainingRuns:
    """The finish of a layered protocol: winning tuples to raw bits, decoded to estimates.

    ``winners`` holds the (trials, most layers sent) winning tuples, row t's first
    ``sent[t]`` sent; ``needed`` is the number of layers an untruncated run sends.
    """
    code_t, code_r = codes
    # a layer a trial did not send reads as tuple 0, so both of its bits are zero
    winners = np.where(np.arange(winners.shape[1]) < sent[:, None], winners, 0)
    raw_t = _side_bits(winners, code_t.n, "bs")
    raw_r = _side_bits(winners, code_r.n, "ris")
    bs_mode = "one_bit" if decode_mode == "decoupled_two_bit" else decode_mode
    info_t, *decoded_t = decode_words(code_t, raw_t, bs_mode)
    info_r, *decoded_r = decode_words(code_r, raw_r, decode_mode)
    return TrainingRuns(
        est_bs_index=_clamp_index(rows_to_ints(info_t) + 1, block.n_bs),
        est_ris_index=_clamp_index(rows_to_ints(info_r) + 1, block.n_ris),
        raw_bits_bs=raw_t,
        raw_bits_ris=raw_r,
        decoded=(tuple(decoded_t), tuple(decoded_r)),
        pilots=4 * sent,
        needed=4 * needed,
    )


def _prefix_pairs(cov: np.ndarray, winners: np.ndarray, k: int, side: str) -> np.ndarray:
    """Each trial's (zero, one) beams of the next layer, a (trials, n, 2) stack.

    ``winners`` holds the winning tuples of the layers so far. A side still
    searching splits its decided prefix p of length L into the prefixes 2p
    and 2p + 1 of length L + 1; a resolved side sends its final prefix twice.
    """
    layer = winners.shape[1]
    bits = _side_bits(winners, k, side)[:, :min(layer, k)]
    if layer < k:
        cols = (2 ** (layer + 1) - 1 + 2 * rows_to_ints(bits))[:, None] + (0, 1)
    else:
        cols = (2 ** k - 1 + rows_to_ints(bits))[:, None] + (0, 0)
    # C-contiguous (n, 2) per trial, like a codebook matrix: a strided stack rounds differently
    return np.moveaxis(cov[:, cols], 0, 1).copy()


def run_adaptive(
    block: ChannelBlock,
    beams: tuple[np.ndarray, np.ndarray],
    codes: tuple[BlockCode, BlockCode],
    snr: SnrSpec,
    budget,
    rngs,
    *,
    ideal: bool = False,
) -> TrainingRuns:
    """Adaptive hierarchical training of a block: trial t on row t, noise from ``rngs[t]``.

    Each layer halves the active index interval of each side (a
    feedback-based binary search) over max(bit length) layers, 4 tuples
    each; the RIS resolves its u bits first, then its w bits. A resolved
    side repeats its final narrow beam. Tuples go out in the order (0,0),
    (0,1), (1,0), (1,1) (BS bit, RIS bit), ties break toward the first, and
    each trial's noise is one ``pilot_noise`` draw. Layers run in turn,
    because each layer's beams depend on the decisions before it; within a
    layer the block's beams, gains, powers and decisions are computed at
    once. ``beams`` are the ``codebook.prefix_beams`` matrices (mask-valued
    if ``ideal``) and ``codes`` the identity codes of the index bits, whose
    lengths set the layer counts. There is no error correction: the raw bits
    decode in mode "none", so ``decoded`` is all clean. A budget short of 4
    pilots per layer truncates its trial and zero-fills the missing bits; each
    layer runs on the trials that send it.
    """
    sizes = (codes[0].n, codes[1].n)
    sent, needed, noise = _layer_noise(sizes, snr, budget, rngs)
    winners = np.zeros(noise.shape[:2], dtype=np.intp)
    live, rows, rows_snr, stops = slice(None), block, snr, set(sent.tolist())
    for layer in range(noise.shape[1]):
        if layer in stops:  # a row has sent its last layer: the rest go on, it keeps tuple 0
            live = sent > layer
            rows = replace(block, **{f.name: getattr(block, f.name)[live] for f in fields(block)})
            rows_snr = replace(snr, snr_linear=np.broadcast_to(snr.snr_linear, len(live))[live])
        pairs = [_prefix_pairs(cov, winners[live, :layer], k, side)
                 for cov, k, side in zip(beams, sizes, ("bs", "ris"))]
        if not ideal:
            _check_constant_modulus(pairs[1], block.n_ris)
        bs, ris = beam_responses(rows, *pairs, ideal)
        powers = received_power(bs[:, :, None] * ris[:, None, :], rows_snr, noise[live, layer])
        winners[live, layer] = powers.reshape(-1, 4).argmax(axis=-1)

    return _decode_layers(block, winners, codes, "none", sent, needed)


def narrow_beam_matrices(grid: AngleGrid, geometry: ArrayGeometry
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Coverage-convention narrow-beam codebooks: (BS n_bs x n_bs, RIS n_ris x n_ris).

    The grid's steering matrices: column i is the steering vector of grid
    point i, byte-equal to the per-point ``ula_steering`` and ``upa_steering_uw``.
    """
    return bs_steering_matrix(geometry, grid), grid.ris_steering


def run_exhaustive(
    block: ChannelBlock,
    narrow_beams: tuple[np.ndarray, np.ndarray],
    snr: SnrSpec,
    budget,
    rngs,
) -> TrainingRuns:
    """Exhaustive training of a block: trial t on row t, noise from ``rngs[t]``.

    Each trial sweeps the tuples of the narrow beams (``narrow_beam_matrices``)
    in BS-major order and picks the power argmax. With a budget below
    n_bs * n_ris only the first tuples are measured; ties break toward the
    lowest tuple index. Each trial's table is formed from the block's
    responses on its own, to bound memory, and only up to the BS row of its
    last tuple sent; its noise is one draw.
    """
    total = block.n_bs * block.n_ris
    counts = _row_counts("exhaustive", budget, len(rngs), total, 1)
    rows = np.broadcast_to(snr.snr_linear, len(rngs)).tolist()
    specs = {value: SnrSpec(value, snr.noiseless) for value in set(rows)}  # one per SNR
    bs_rows = -(-counts // block.n_ris)  # the BS rows of each trial's table it sends
    winners = np.array([
        np.argmax(received_power((bs[:bs_row, None] * ris).ravel()[:count], specs[row],
                                 pilot_noise(snr, rng, (count,))))
        for bs, ris, row, count, bs_row, rng in zip(*beam_responses(block, *narrow_beams),
                                                    rows, counts.tolist(), bs_rows.tolist(), rngs)],
        dtype=np.intp)  # BS-major tuple order
    no_bits = np.empty((len(rngs), 0), dtype=np.uint8)
    return TrainingRuns(
        est_bs_index=winners // block.n_ris + 1,
        est_ris_index=winners % block.n_ris + 1,
        raw_bits_bs=no_bits,
        raw_bits_ris=no_bits,
        decoded=(),
        pilots=counts,
        needed=total,
    )


def training_overhead(kind: str, n_bs: int, ris_dims: tuple[int, int]) -> int:
    """Pilot count each framework needs: n_bs*n_ris, 4*max(bit lengths), 4*max(n_t, n_r)."""
    n1, n2 = ris_dims
    if kind == "exhaustive":
        return n_bs * n1 * n2
    if kind == "hierarchical":
        return 4 * max(ceil_log2(n_bs), ceil_log2(n1 * n2))
    if kind == "coded":
        return 4 * max(code.n for code in coded_codes(n_bs, ris_dims))
    raise ValueError(f"unknown protocol kind {kind!r}")


def coded_codes(n_bs: int, ris_dims: tuple[int, int]) -> tuple[BlockCode, BlockCode]:
    """The codes of coded training: plain for the BS, dimension-split for the RIS."""
    if n_bs < 2:
        raise ValueError(f"coded training needs at least two BS candidates, got n_bs={n_bs}")
    return (build_plain_code(ceil_log2(n_bs)),
            build_reduced_code(ceil_log2(ris_dims[0]), ceil_log2(ris_dims[1])))


def tuple_rates(
    block: ChannelBlock,
    narrow_beams: tuple[np.ndarray, np.ndarray],
    est_bs: np.ndarray,
    est_ris: np.ndarray,
    snr_eval: SnrSpec,
) -> np.ndarray:
    """log2(1 + snr * |g|^2) of the 1-based grid tuples (est_bs, est_ris)[..., t] on trial t.

    The beams are columns of ``narrow_beam_matrices`` and g is the factored
    gain that training measures, from ``beam_responses``. Each estimate's
    response is its own one-column product, so a rate depends only on its
    trial and tuple, not on the other estimates. One constant-modulus check
    covers the RIS columns read. A rate is within 1e-12 (relative) of the
    one-tuple ``h_r diag(v) G w`` on the full RIS-BS matrix G of
    ``tests/reference.py``, which rounds otherwise.
    """
    cols = [cov.T[np.reshape(est, (-1, len(block.h_r))) - 1][..., None]
            for cov, est in zip(narrow_beams, (est_bs, est_ris))]  # (estimates, trials, n, 1)
    _check_constant_modulus(cols[1], block.n_ris)
    bs, ris = beam_responses(block, *cols)
    return np.log2(1.0 + snr_eval.snr_linear * np.abs(bs * ris) ** 2).reshape(np.shape(est_bs))

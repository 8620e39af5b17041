"""The beam-training protocols: exhaustive and layered.

All protocols transmit beam tuples, measure one noisy power per tuple in
transmit order, and map argmax decisions to angle-index estimates. Noiseless
tuple gains come from factorized tables, ``gain_tables``: the outer product
of a BS response and a RIS response per channel. A layered protocol sends one
(BS, RIS) beam pair per layer as 4 tuples and reads one hard decision per
side. ``run_layered`` runs coded training on a block of trials at once: it
gathers every layer's gains from one table per channel, stacks each trial's
own noise draw, decides every layer of every trial in one argmax and decodes
the block with ``decode_words``; ``run_coded`` is its one-trial call. With
identity codes (n = k, decode mode "none") it is full-coverage hierarchical
training. The adaptive variant runs a block through ``run_adaptive``
(``run_hierarchical`` is its one-trial call): its layers run in turn, since
each layer's beams depend on the decisions so far, and each layer gathers
every trial's beam pair from the prefix-beam matrices of
``HierarchicalBeamProvider`` and decides the whole block at once.

Designed codewords are stored in coverage convention and conjugated at
transmit time; RIS codewords additionally de-rotate the known static RIS-BS
steering phases so the training depends only on the UE-side angle.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Optional

import numpy as np

from .arrays import AngleGrid, ArrayGeometry, u_axis, ula_steering, upa_steering_uw, w_axis
from .blockcode import (
    DECODE_MODES,
    BlockCode,
    CorrectionReport,
    bits_to_int,
    build_plain_code,
    build_reduced_code,
    decode_words,
    rows_to_ints,
)
from .channel import (
    ChannelRealization,
    SnrSpec,
    effective_gain,
    pilot_noise,
    received_power,
    ris_phase_compensation,
)
from .codebook import (
    DesignedCodebook,
    GsConfig,
    axis_sampling_matrix,
    bs_steering_matrix,
    design_bs_codeword,
    flat_codeword,
    relaxed_gs_batch,
    ris_steering_matrix,
)
from .seeding import derive_rng

PROTOCOL_KINDS = ("exhaustive", "hierarchical", "coded")
HIERARCHICAL_VARIANTS = ("full_coverage", "adaptive")


@dataclass(frozen=True)
class ProtocolSpec:
    """A protocol selection: kind, decode mode (coded only), and pilot budget.

    pilot_budget None means unlimited (the protocol uses its full overhead).
    Layered protocols send whole 4-pilot layers: a remainder of 1 to 3 pilots
    is left unused, so a budget of 10 sends 2 layers and reports 8 pilots.
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
        check_budget(self.kind, self.pilot_budget)

    @property
    def tag(self) -> str:
        if self.kind == "coded":
            return f"coded_{self.decode_mode}"
        if self.kind == "hierarchical" and self.hierarchical_variant != "full_coverage":
            return f"hierarchical_{self.hierarchical_variant}"
        return self.kind


@dataclass(frozen=True)
class TrainingOutcome:
    est_bs_index: int
    est_ris_index: int
    raw_bits_bs: np.ndarray
    raw_bits_ris: np.ndarray
    corrected_bs: Optional[CorrectionReport]
    corrected_ris: Optional[CorrectionReport]
    pilots_used: int
    truncated: bool = False


def ceil_log2(n: int) -> int:
    if n < 1:
        raise ValueError("n must be positive")
    return (n - 1).bit_length() if n > 1 else 0


def check_budget(kind: str, budget: Optional[int]) -> None:
    """Reject a budget below one tuple (exhaustive) or one 4-tuple layer (layered)."""
    least = 1 if kind == "exhaustive" else 4
    if budget is not None and budget < least:
        raise ValueError(f"{kind} training needs a pilot budget of at least {least}, "
                         f"got {budget}")


def bs_transmit(w_cov: np.ndarray) -> np.ndarray:
    """Transmit beamformer for a coverage-convention BS codeword."""
    return np.conj(w_cov)


def ris_transmit(ch: ChannelRealization, v_cov: np.ndarray) -> np.ndarray:
    """Applied RIS reflecting vector: conjugate plus static BS-side de-rotation."""
    return np.conj(v_cov) * ris_phase_compensation(ch)


def _check_constant_modulus(v_tx: np.ndarray, n_ris: int) -> None:
    """``np.allclose(abs(v_tx), 1/sqrt(n_ris), atol=1e-9)``, written out for speed."""
    target = 1.0 / np.sqrt(n_ris)
    if not np.all(np.abs(np.abs(v_tx) - target) <= 1e-9 + 1e-5 * target):
        raise ValueError("RIS vector must have constant modulus 1/sqrt(n_ris)")


def gain_tables(channels, bs_cov: np.ndarray, ris_cov: np.ndarray, ideal: bool = False,
                *, check_modulus: bool = False) -> np.ndarray:
    """Noiseless gains of a block of channels, shape (trials, BS columns, RIS columns).

    Entry [t, i, j] pairs BS codeword column i with RIS column j on
    ``channels[t]``. A codeword matrix is either shared by the block,
    (n, columns), or one per trial, (trials, n, columns). The static
    de-rotation cancels the RIS-BS steering phases: every row of
    ``comp * g_mat`` is the same vector ``beta`` (|a_gr|^2 = 1/n_ris), so a
    table is the outer product of a BS response ``beta @ conj(W)`` and a RIS
    response ``h_r @ conj(V)``. Both are stacked matrix-vector products, so a
    trial's table does not depend on the block around it. Ideal
    (mask-valued) codewords read their gains off the true-index rows.
    ``check_modulus`` applies the constant-modulus test of ``effective_gain``
    to every transmitted RIS vector at once.
    """
    return _block_gains(channels, ideal)(bs_cov, ris_cov, check_modulus)


def _block_gains(channels, ideal: bool = False):
    """``gain_tables`` of a fixed block as a function (bs_cov, ris_cov, check_modulus).

    The channels are read once, for runners that build tables of the same
    block from many codeword matrices. Ideal codewords skip the modulus check.
    """
    if ideal:
        bs_rows = [ch.bs_index - 1 for ch in channels]
        ris_rows = [ch.ue_ris_index - 1 for ch in channels]

        def tables(bs_cov, ris_cov, check_modulus=False):
            return (_true_rows(bs_cov, bs_rows)[:, :, None]
                    * _true_rows(ris_cov, ris_rows)[:, None, :])
        return tables

    comp = np.array([ris_phase_compensation(ch) for ch in channels])
    beta = comp[:, :1] * np.array([ch.g_mat[0] for ch in channels])
    h_r = np.array([ch.h_r for ch in channels])

    def tables(bs_cov, ris_cov, check_modulus=False):
        if check_modulus:
            _check_constant_modulus(np.conj(ris_cov) * comp[:, :, None], comp.shape[1])
        bs_resp = (beta[:, None, :] @ np.conj(bs_cov))[:, 0, :]
        ris_resp = (h_r[:, None, :] @ np.conj(ris_cov))[:, 0, :]
        return bs_resp[:, :, None] * ris_resp[:, None, :]
    return tables


def _true_rows(cov: np.ndarray, rows: list) -> np.ndarray:
    """Row ``rows[t]`` of trial t's codeword matrix; a 2-D matrix is shared."""
    return np.broadcast_to(cov, (len(rows), *cov.shape[-2:]))[np.arange(len(rows)), rows]


def gain_table(ch: ChannelRealization, bs_cov: np.ndarray, ris_cov: np.ndarray,
               ideal: bool = False, *, check_modulus: bool = False) -> np.ndarray:
    """``gain_tables`` of one channel: entry [i, j] pairs BS column i with RIS column j."""
    return gain_tables([ch], bs_cov, ris_cov, ideal, check_modulus=check_modulus)[0]


def _clamp_index(value, n: int):
    return np.minimum(np.maximum(value, 1), n)


def _layer_count(sizes, budget: Optional[int]) -> tuple[int, int]:
    """(layers sent, layers needed); a budget short of 4 pilots per layer truncates."""
    n_layers = max(sizes)
    if n_layers == 0:
        raise ValueError("nothing to train: both arrays have a single candidate")
    check_budget("layered", budget)
    return (n_layers if budget is None else min(n_layers, budget // 4)), n_layers


def _side_bits(winners: np.ndarray, n: int, side: str, inject_flips) -> np.ndarray:
    """One side's (trials, n) raw bits from the (trials, layers sent) winning tuples.

    Layer l decides bit l of a side with n > l: the high bit of the tuple for
    the BS, the low bit for the RIS. Injected flips invert a decision; bits of
    layers not sent are zero.
    """
    sent = min(n, winners.shape[1])
    flips = np.zeros(sent, dtype=np.intp)
    for layer, flip_side in set(inject_flips):
        if flip_side == side and 0 <= layer < sent:
            flips[layer] = 1
    bits = np.zeros((winners.shape[0], n), dtype=np.uint8)
    own = winners[:, :sent] >> 1 if side == "bs" else winners[:, :sent] & 1
    bits[:, :sent] = own ^ flips
    return bits


@dataclass(frozen=True)
class LayeredRuns:
    """One layered protocol on a block of trials; arrays run over the trials.

    ``decoded`` holds each side's (corrected, uncorrectable, flipped) arrays
    from ``decode_words``; it is empty for adaptive training, which does not
    decode. Every trial sends the same layers, so the pilot count and the
    truncation flag are shared.
    """

    est_bs_index: np.ndarray
    est_ris_index: np.ndarray
    raw_bits_bs: np.ndarray  # (trials, n_t)
    raw_bits_ris: np.ndarray  # (trials, n_r)
    decoded: tuple
    pilots_used: int
    truncated: bool

    def outcome(self, trial: int) -> TrainingOutcome:
        reports = [CorrectionReport(bool(corrected[trial]), bool(uncorrectable[trial]),
                                    tuple(int(pos) for pos in flipped[trial] if pos >= 0))
                   for corrected, uncorrectable, flipped in self.decoded] or [None, None]
        return TrainingOutcome(
            est_bs_index=int(self.est_bs_index[trial]),
            est_ris_index=int(self.est_ris_index[trial]),
            raw_bits_bs=self.raw_bits_bs[trial],
            raw_bits_ris=self.raw_bits_ris[trial],
            corrected_bs=reports[0],
            corrected_ris=reports[1],
            pilots_used=self.pilots_used,
            truncated=self.truncated,
        )


def run_layered(
    channels,
    books: tuple[DesignedCodebook, DesignedCodebook],
    codes: tuple[BlockCode, BlockCode],
    snr: SnrSpec,
    budget: Optional[int],
    rngs,
    decode_mode: str = "one_bit",
    *,
    ideal: bool = False,
    inject_flips=(),
) -> LayeredRuns:
    """Layered beam training of a block: trial t on ``channels[t]``, noise from ``rngs[t]``.

    Layer l sends the 4 tuples of BS layer l mod n_t and RIS layer l mod n_r
    in the order (0,0), (0,1), (1,0), (1,1) (BS bit, RIS bit; bit 1 is the
    mask=1 codeword); ties break toward the first and each side keeps its
    first n decisions. A budget short of 4*max(n_t, n_r) truncates every
    trial and zero-fills the missing bits. ``inject_flips`` lists (layer,
    "bs" | "ris") decisions to invert. Gains come from one table per channel
    and each trial's noise from one ``pilot_noise`` draw; powers, decisions
    and decoding run once for the block. The BS side decodes with at most
    one-bit correction; the decoupled two-bit mode applies to the RIS side.
    Identity codes with decode mode "none" give full-coverage hierarchical
    training.
    """
    code_t, code_r = codes
    if min(code_t.n, code_r.n) == 0:
        raise ValueError("layered training needs more than one candidate on each side")
    sent, needed = _layer_count((code_t.n, code_r.n), budget)
    layers = np.arange(sent)[:, None]
    rows = (2 * (layers % code_t.n) + (0, 1))[:, :, None]
    cols = (2 * (layers % code_r.n) + (0, 1))[:, None, :]
    tables = gain_tables(channels, books[0].matrix, books[1].matrix, ideal,
                         check_modulus=True)
    noise = np.stack([pilot_noise(snr, rng, (sent, 2, 2)) for rng in rngs])
    powers = received_power(tables[:, rows, cols], snr, noise)
    winners = powers.reshape(len(channels), sent, 4).argmax(axis=-1)

    raw_t = _side_bits(winners, code_t.n, "bs", inject_flips)
    raw_r = _side_bits(winners, code_r.n, "ris", inject_flips)
    bs_mode = "one_bit" if decode_mode == "decoupled_two_bit" else decode_mode
    info_t, *decoded_t = decode_words(code_t, raw_t, bs_mode)
    info_r, *decoded_r = decode_words(code_r, raw_r, decode_mode)
    return LayeredRuns(
        est_bs_index=_clamp_index(rows_to_ints(info_t) + 1, channels[0].n_bs),
        est_ris_index=_clamp_index(rows_to_ints(info_r) + 1, channels[0].n_ris),
        raw_bits_bs=raw_t,
        raw_bits_ris=raw_r,
        decoded=(tuple(decoded_t), tuple(decoded_r)),
        pilots_used=4 * sent,
        truncated=sent < needed,
    )


def run_coded(
    ch: ChannelRealization,
    books: tuple[DesignedCodebook, DesignedCodebook],
    codes: tuple[BlockCode, BlockCode],
    snr: SnrSpec,
    budget: Optional[int],
    rng: np.random.Generator,
    decode_mode: str = "one_bit",
    *,
    ideal: bool = False,
    inject_flips=(),
) -> TrainingOutcome:
    """Layered beam training of one channel: ``run_layered`` on a one-trial block."""
    return run_layered([ch], books, codes, snr, budget, [rng], decode_mode,
                       ideal=ideal, inject_flips=inject_flips).outcome(0)


class HierarchicalBeamProvider:
    """Designs the prefix beams of adaptive hierarchical training.

    A prefix beam covers the indices whose leading bits equal a decided bit
    prefix. The first ``prefix_matrices`` call designs every prefix beam of
    each side once, as a coverage-convention matrix: column
    ``2**L - 1 + value`` holds the beam of the prefix of length L (0 to the
    side's bit count) that reads as the integer ``value``. Each RIS axis (u
    and w) designs its nonempty prefixes in one GS batch, BS beams come from
    ``design_bs_codeword``, and ideal beams are the coverage masks. A RIS
    prefix is the u bits followed by the w bits, and its beam is the
    Kronecker product of its two axis beams. Every array size must be a power
    of two, so that each prefix covers a nonempty index interval.
    """

    def __init__(
        self,
        geometry: ArrayGeometry,
        grid: AngleGrid,
        gs_cfg: GsConfig,
        ideal: bool = False,
    ) -> None:
        self._sizes = {"bs": geometry.n_bs, "u": geometry.n_ris_rows,
                      "w": geometry.n_ris_cols}
        for name, n in zip(("n_bs", "n_ris_rows", "n_ris_cols"), self._sizes.values()):
            if n & (n - 1):
                raise ValueError(
                    f"{name}={n} is not a power of two: adaptive hierarchical "
                    "training halves every index interval")
        self.geometry = geometry
        self.grid = grid
        self.cfg = gs_cfg
        self.ideal = ideal
        self.k_bs = ceil_log2(geometry.n_bs)
        self.k_u = ceil_log2(geometry.n_ris_rows)
        self.k_ris = self.k_u + ceil_log2(geometry.n_ris_cols)
        self._matrices: Optional[tuple[np.ndarray, np.ndarray]] = None

    def prefix_matrices(self) -> tuple[np.ndarray, np.ndarray]:
        """The (BS, RIS) prefix-beam matrices, designed at the first call."""
        if self._matrices is None:
            u, w = self._side_matrix("u"), self._side_matrix("w")
            prefixes = _prefixes(self.k_ris)
            u_rows = u.T[[_column(bits[:self.k_u]) for bits in prefixes]]
            w_rows = w.T[[_column(bits[self.k_u:]) for bits in prefixes]]
            ris = (u_rows[:, :, None] * w_rows[:, None, :]).reshape(len(prefixes), -1)
            self._matrices = (self._side_matrix("bs"), ris.T)
        return self._matrices

    def _mask(self, side: str, prefix: tuple) -> np.ndarray:
        n = self._sizes[side]
        return np.arange(n) >> (ceil_log2(n) - len(prefix)) == bits_to_int(prefix)

    def _side_matrix(self, side: str) -> np.ndarray:
        """Every prefix beam of the BS or of a RIS axis, one column per prefix."""
        n = self._sizes[side]
        prefixes = _prefixes(ceil_log2(n))
        masks = np.array([self._mask(side, bits) for bits in prefixes])
        if self.ideal:
            return masks.T.astype(float)
        if side == "bs":
            return np.column_stack([design_bs_codeword(np.flatnonzero(mask), self.grid,
                                                       self.geometry) for mask in masks])
        beams = [flat_codeword(n)]
        if len(prefixes) > 1:
            freqs = (u_axis if side == "u" else w_axis)(n)
            matrix = axis_sampling_matrix(n, freqs, self.geometry.spacing_over_wavelength)
            rngs = [derive_rng(self.cfg.seed, "hier", side, bits) for bits in prefixes[1:]]
            designed, _ = relaxed_gs_batch(matrix, masks[1:], self.cfg, rngs)
            beams.extend(designed)
        return np.column_stack(beams)


def _prefixes(k: int) -> list[tuple]:
    """Every bit prefix of length 0 to k in column order: by length, then by value."""
    return [bits for length in range(k + 1) for bits in product((0, 1), repeat=length)]


def _column(prefix: tuple) -> int:
    """The prefix-matrix column of a bit prefix."""
    return 2 ** len(prefix) - 1 + bits_to_int(prefix)


def _prefix_pairs(cov: np.ndarray, winners: np.ndarray, k: int, side: str,
                  inject_flips) -> np.ndarray:
    """Each trial's (zero, one) beams of the next layer, a (trials, n, 2) stack.

    ``winners`` holds the winning tuples of the layers so far. A side still
    searching splits its decided prefix p of length L into the prefixes 2p
    and 2p + 1 of length L + 1; a resolved side sends its final prefix twice.
    """
    layer = winners.shape[1]
    bits = _side_bits(winners, k, side, inject_flips)[:, :min(layer, k)]
    if layer < k:
        cols = (2 ** (layer + 1) - 1 + 2 * rows_to_ints(bits))[:, None] + (0, 1)
    else:
        cols = (2 ** k - 1 + rows_to_ints(bits))[:, None] + (0, 0)
    # C-contiguous (n, 2) per trial, like BeamPair.columns: a strided stack rounds differently
    return np.moveaxis(cov[:, cols], 0, 1).copy()


def run_adaptive(
    channels,
    provider: HierarchicalBeamProvider,
    snr: SnrSpec,
    budget: Optional[int],
    rngs,
    *,
    inject_flips=(),
) -> LayeredRuns:
    """Adaptive hierarchical training of a block: trial t on ``channels[t]``, noise from ``rngs[t]``.

    Each layer halves the active index interval of each side (a
    feedback-based binary search) over max(bit length) layers, 4 tuples
    each; the RIS resolves its u bits first, then its w bits. A resolved
    side repeats its final narrow beam. Tuples go out in the order (0,0),
    (0,1), (1,0), (1,1) (BS bit, RIS bit), ties break toward the first, and
    each trial's noise is one ``pilot_noise`` draw. Layers run in turn,
    because each layer's beams depend on the decisions before it; within a
    layer the block's beams, gains, powers and decisions are computed at
    once. There is no error correction, so ``decoded`` is empty. A budget
    short of 4 pilots per layer truncates every trial and zero-fills the
    missing bits. ``inject_flips`` lists (layer, "bs" | "ris") decisions to
    invert; later layers follow the inverted decision.
    """
    sizes = (provider.k_bs, provider.k_ris)
    sent, needed = _layer_count(sizes, budget)
    matrices = provider.prefix_matrices()
    noise = np.stack([pilot_noise(snr, rng, (sent, 2, 2)) for rng in rngs])
    tables = _block_gains(channels, provider.ideal)
    winners = np.zeros((len(channels), sent), dtype=np.intp)
    for layer in range(sent):
        pairs = [_prefix_pairs(cov, winners[:, :layer], k, side, inject_flips)
                 for cov, k, side in zip(matrices, sizes, ("bs", "ris"))]
        powers = received_power(tables(*pairs, check_modulus=True), snr, noise[:, layer])
        winners[:, layer] = powers.reshape(len(channels), 4).argmax(axis=-1)

    raw_t = _side_bits(winners, sizes[0], "bs", inject_flips)
    raw_r = _side_bits(winners, sizes[1], "ris", inject_flips)
    return LayeredRuns(
        est_bs_index=_clamp_index(rows_to_ints(raw_t) + 1, channels[0].n_bs),
        est_ris_index=_clamp_index(rows_to_ints(raw_r) + 1, channels[0].n_ris),
        raw_bits_bs=raw_t,
        raw_bits_ris=raw_r,
        decoded=(),
        pilots_used=4 * sent,
        truncated=sent < needed,
    )


def run_hierarchical(
    ch: ChannelRealization,
    designers: HierarchicalBeamProvider,
    snr: SnrSpec,
    budget: Optional[int],
    rng: np.random.Generator,
    *,
    inject_flips=(),
) -> TrainingOutcome:
    """Adaptive hierarchical training of one channel: ``run_adaptive`` on a one-trial block."""
    return run_adaptive([ch], designers, snr, budget, [rng],
                        inject_flips=inject_flips).outcome(0)


def narrow_beam_matrices(grid: AngleGrid, geometry: ArrayGeometry
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Coverage-convention narrow-beam codebooks: (BS n_bs x n_bs, RIS n_ris x n_ris).

    Column i is the steering vector of grid point i, byte-equal to the beams
    of ``grid_transmit_pair``.
    """
    return bs_steering_matrix(geometry, grid), ris_steering_matrix(geometry, grid)


def run_exhaustive(
    ch: ChannelRealization,
    grid: AngleGrid,
    geometry: ArrayGeometry,
    snr: SnrSpec,
    budget: Optional[int],
    rng: np.random.Generator,
    *,
    narrow_beams: Optional[tuple[np.ndarray, np.ndarray]] = None,
) -> TrainingOutcome:
    """Sweep narrow beam tuples in BS-major order and pick the power argmax.

    With a budget below n_bs * n_ris only the first tuples are measured; ties
    break toward the lowest tuple index.
    """
    bs_cov, ris_cov = narrow_beams or narrow_beam_matrices(grid, geometry)
    total = geometry.n_bs * geometry.n_ris
    check_budget("exhaustive", budget)
    count = total if budget is None else min(budget, total)

    gains = gain_table(ch, bs_cov, ris_cov).ravel()[:count]  # BS-major tuple order
    winner = int(np.argmax(received_power(gains, snr, pilot_noise(snr, rng, (count,)))))
    return TrainingOutcome(
        est_bs_index=winner // geometry.n_ris + 1,
        est_ris_index=winner % geometry.n_ris + 1,
        raw_bits_bs=np.empty(0, dtype=np.uint8),
        raw_bits_ris=np.empty(0, dtype=np.uint8),
        corrected_bs=None,
        corrected_ris=None,
        pilots_used=count,
        truncated=count < total,
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


def grid_transmit_pair(
    ch: ChannelRealization,
    grid: AngleGrid,
    geometry: ArrayGeometry,
    bs_index: int,
    ris_index: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Transmit-ready narrow beams (v, w) pointing at the given grid tuple."""
    sp = geometry.spacing_over_wavelength
    w_cov = ula_steering(geometry.n_bs, grid.bs_angles[bs_index - 1], sp)
    v_cov = upa_steering_uw(
        geometry.n_ris_rows, geometry.n_ris_cols,
        grid.ris_u[ris_index - 1], grid.ris_w[ris_index - 1], sp,
    )
    return ris_transmit(ch, v_cov), bs_transmit(w_cov)


def achievable_rate(
    ch: ChannelRealization, v: np.ndarray, w: np.ndarray, snr_eval: SnrSpec
) -> float:
    """Spectral efficiency log2(1 + snr * |h_r diag(v) g_mat w|^2), transmit beams."""
    gain = effective_gain(ch, v, w)
    return float(np.log2(1.0 + snr_eval.snr_linear * abs(gain) ** 2))


def tuple_rates(
    ch: ChannelRealization,
    narrow_beams: tuple[np.ndarray, np.ndarray],
    tuples,
    snr_eval: SnrSpec,
) -> list[float]:
    """``achievable_rate`` of the narrow beams of each (BS, RIS) grid tuple.

    The beams are columns of ``narrow_beam_matrices``, byte-equal to those of
    ``grid_transmit_pair``. The constant-modulus check runs once over all of
    them, and the gains are stacked matrix-vector products, which round like
    ``effective_gain``. |g|^2 and log2 stay scalar per tuple: their vectorized
    forms round differently.
    """
    bs_cov, ris_cov = narrow_beams
    bs_index, ris_index = np.array(tuples, dtype=np.intp).T - 1
    v = np.conj(ris_cov.T[ris_index]) * ris_phase_compensation(ch)
    w = np.conj(bs_cov.T[bs_index])
    _check_constant_modulus(v, ch.n_ris)
    through_ris = ((ch.h_r * v)[:, None, :] @ ch.g_mat)[:, 0, :]
    gains = (through_ris[:, None, :] @ w[:, :, None])[:, 0, 0]
    return [float(np.log2(1.0 + snr_eval.snr_linear * abs(complex(g)) ** 2))
            for g in gains]


def noiseless_best_tuple(
    ch: ChannelRealization,
    grid: AngleGrid,
    geometry: ArrayGeometry,
    *,
    narrow_beams: Optional[tuple[np.ndarray, np.ndarray]] = None,
) -> tuple[int, int]:
    """Ground-truth best tuple by a noiseless exhaustive sweep."""
    outcome = run_exhaustive(
        ch, grid, geometry, SnrSpec(1.0, noiseless=True), None,
        np.random.default_rng(0), narrow_beams=narrow_beams,
    )
    return outcome.est_bs_index, outcome.est_ris_index

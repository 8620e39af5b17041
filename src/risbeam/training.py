"""The beam-training protocols: exhaustive and layered.

All protocols transmit beam tuples, measure one noisy power per tuple in
transmit order, and map argmax decisions to angle-index estimates. A layered
protocol sends one (BS, RIS) beam pair per layer as 4 tuples and reads one
hard decision per side, in ``_send_layers``. ``run_coded`` takes the pairs
from a block-coded codebook pair and decodes; with identity codes (n = k,
decode mode "none") it is full-coverage hierarchical training. The adaptive
hierarchical variant, ``run_hierarchical``, takes the pairs from
``HierarchicalBeamProvider``, which designs them from the decisions so far.

Designed codewords are stored in coverage convention and conjugated at
transmit time; RIS codewords additionally de-rotate the known static RIS-BS
steering phases so the training depends only on the UE-side angle.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    decode,
)
from .channel import (
    ChannelRealization,
    SnrSpec,
    effective_gain,
    measure_power,
    ris_phase_compensation,
)
from .codebook import (
    BeamPair,
    DesignedCodebook,
    GsConfig,
    axis_sampling_matrix,
    design_bs_codeword,
    flat_codeword,
    relaxed_gs,
    ris_sampling_matrix,
)
from .seeding import derive_rng

PROTOCOL_KINDS = ("exhaustive", "hierarchical", "coded")
HIERARCHICAL_VARIANTS = ("full_coverage", "adaptive")


@dataclass(frozen=True)
class ProtocolSpec:
    """A protocol selection: kind, decode mode (coded only), and pilot budget.

    pilot_budget None means unlimited (the protocol uses its full overhead).
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


def bs_transmit(w_cov: np.ndarray) -> np.ndarray:
    """Transmit beamformer for a coverage-convention BS codeword."""
    return np.conj(w_cov)


def ris_transmit(ch: ChannelRealization, v_cov: np.ndarray) -> np.ndarray:
    """Applied RIS reflecting vector: conjugate plus static BS-side de-rotation."""
    return np.conj(v_cov) * ris_phase_compensation(ch)


def _tuple_gain(ch: ChannelRealization, w_cov, v_cov, ideal: bool) -> complex:
    if ideal:
        return complex(w_cov[ch.bs_index - 1] * v_cov[ch.ue_ris_index - 1])
    return effective_gain(ch, ris_transmit(ch, v_cov), bs_transmit(w_cov))


def _four_tuple_bits(ch, bs_pair: BeamPair, ris_pair: BeamPair, snr, rng,
                     ideal: bool) -> tuple[int, int]:
    """Transmit the four beam tuples of one layer and return the winning bits.

    Tuple order is (zero,zero), (zero,one), (one,zero), (one,one) with bits
    (bs, ris) = (0,0), (0,1), (1,0), (1,1); bit 1 means the mask=1 codeword
    won. Ties break toward the lowest tuple index.
    """
    powers = np.empty(4)
    slot = 0
    for w_cov in (bs_pair.zero, bs_pair.one):
        for v_cov in (ris_pair.zero, ris_pair.one):
            gain = _tuple_gain(ch, w_cov, v_cov, ideal)
            powers[slot] = measure_power(gain, snr, rng)
            slot += 1
    winner = int(np.argmax(powers))
    return winner >> 1, winner & 1


def _clamp_index(value: int, n: int) -> int:
    return min(max(value, 1), n)


def _send_layers(ch, sizes, pairs, snr, budget, rng, ideal, inject_flips):
    """Send the 4 tuples of every layer and keep each side's first n decisions.

    ``sizes`` is (n_t, n_r). ``pairs(layer, bits_t, bits_r)`` gives a layer's
    (BS, RIS) beam pairs from the decisions so far, as tuples of ints. A budget
    short of 4 pilots per layer truncates the run; missing bits are zero.
    ``inject_flips`` lists (layer, "bs" | "ris") decisions to invert. Returns
    ((BS bits, RIS bits), layers sent, layers needed).
    """
    n_t, n_r = sizes
    n_layers = max(n_t, n_r)
    if n_layers == 0:
        raise ValueError("nothing to train: both arrays have a single candidate")
    budget = 4 * n_layers if budget is None else budget
    if budget < 4:
        raise ValueError("layered training needs a budget of at least 4 pilots")
    layers_done = min(n_layers, budget // 4)
    flips = set(inject_flips)

    bits_t: tuple = ()
    bits_r: tuple = ()
    for layer in range(layers_done):
        bs_pair, ris_pair = pairs(layer, bits_t, bits_r)
        bt, br = _four_tuple_bits(ch, bs_pair, ris_pair, snr, rng, ideal)
        if layer < n_t:
            bits_t += (bt ^ ((layer, "bs") in flips),)
        if layer < n_r:
            bits_r += (br ^ ((layer, "ris") in flips),)
    bits_t += (0,) * (n_t - len(bits_t))
    bits_r += (0,) * (n_r - len(bits_r))
    raw = (np.array(bits_t, dtype=np.uint8), np.array(bits_r, dtype=np.uint8))
    return raw, layers_done, n_layers


def _outcome(ch, raw, info, reports, sent: int, needed: int) -> TrainingOutcome:
    """Assemble an outcome from (BS, RIS) raw bits, information bits and reports."""
    return TrainingOutcome(
        est_bs_index=_clamp_index(bits_to_int(info[0]) + 1, ch.n_bs),
        est_ris_index=_clamp_index(bits_to_int(info[1]) + 1, ch.n_ris),
        raw_bits_bs=raw[0],
        raw_bits_ris=raw[1],
        corrected_bs=reports[0],
        corrected_ris=reports[1],
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
    """Layered beam training: all layers, hard decisions, then block decoding.

    The shorter side cycles its layer index beyond its own code length and the
    decoder uses only its first n own-side bits. A budget short of
    4*max(n_t, n_r) truncates the run; missing bits are zero-padded and the
    outcome is flagged. The BS side always decodes its plain code with at most
    one-bit correction; the decoupled two-bit mode applies to the RIS side.
    With identity codes and decode mode "none" this is full-coverage
    hierarchical training.
    """
    bs_book, ris_book = books
    code_t, code_r = codes
    if min(code_t.n, code_r.n) == 0:
        raise ValueError("layered training needs more than one candidate on each side")

    def pairs(layer, bits_t, bits_r):
        return bs_book.layers[layer % code_t.n], ris_book.layers[layer % code_r.n]

    raw, sent, needed = _send_layers(
        ch, (code_t.n, code_r.n), pairs, snr, budget, rng, ideal, inject_flips)
    bs_mode = "one_bit" if decode_mode == "decoupled_two_bit" else decode_mode
    u_t, rep_t = decode(code_t, raw[0], bs_mode)
    u_r, rep_r = decode(code_r, raw[1], decode_mode)
    return _outcome(ch, raw, (u_t, u_r), (rep_t, rep_r), sent, needed)


class HierarchicalBeamProvider:
    """Designs and caches the beams of adaptive hierarchical training.

    A prefix beam covers the indices whose leading bits equal a decided bit
    prefix. Beams are designed on demand, once per prefix, and cached per
    side: "bs" for the BS, "u" and "w" for the two RIS axes. A RIS prefix is
    the u bits followed by the w bits, so the RIS resolves its u bits first,
    and its beam is the Kronecker product of the two cached axis beams. Every
    array size must be a power of two, so that each prefix covers a nonempty
    index interval. Full-coverage hierarchical training needs no provider: its
    basis beams are the identity-code codebooks.
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
        self._beams: dict = {side: {} for side in self._sizes}

    def layer_pairs(self, layer: int, bits_t: tuple, bits_r: tuple
                    ) -> tuple[BeamPair, BeamPair]:
        """The (BS, RIS) beam pairs of one layer, given the decisions so far.

        A side still searching splits its decided prefix by one more bit; a
        resolved side repeats its final narrow beam in both halves.
        """
        return (self._pair("bs", bits_t, layer < self.k_bs),
                self._pair("ris", bits_r, layer < self.k_ris))

    def _pair(self, side: str, prefix: tuple, searching: bool) -> BeamPair:
        if searching:
            return BeamPair(one=self._beam(side, prefix + (1,)),
                            zero=self._beam(side, prefix + (0,)))
        resolved = self._beam(side, prefix)
        return BeamPair(one=resolved, zero=resolved)

    def _beam(self, side: str, prefix: tuple) -> np.ndarray:
        if side == "ris":
            return np.kron(self._beam("u", prefix[:self.k_u]),
                           self._beam("w", prefix[self.k_u:]))
        beams = self._beams[side]
        if prefix not in beams:
            beams[prefix] = self._design(side, prefix)
        return beams[prefix]

    def _design(self, side: str, prefix: tuple) -> np.ndarray:
        n = self._sizes[side]
        mask = np.arange(n) >> (ceil_log2(n) - len(prefix)) == bits_to_int(prefix)
        if self.ideal:
            return mask.astype(float)
        if side == "bs":
            return design_bs_codeword(np.flatnonzero(mask), self.grid, self.geometry)
        if not prefix:
            return flat_codeword(n)
        freqs = (u_axis if side == "u" else w_axis)(n)
        matrix = axis_sampling_matrix(n, freqs, self.geometry.spacing_over_wavelength)
        beam, _ = relaxed_gs(matrix, mask, self.cfg,
                             derive_rng(self.cfg.seed, "hier", side, prefix))
        return beam


def run_hierarchical(
    ch: ChannelRealization,
    designers: HierarchicalBeamProvider,
    snr: SnrSpec,
    budget: Optional[int],
    rng: np.random.Generator,
    *,
    inject_flips=(),
) -> TrainingOutcome:
    """Adaptive hierarchical beam training over max(bit length) layers, 4 tuples each.

    Each layer halves the active index interval of each side (a feedback-based
    binary search); the RIS resolves its u bits first, then its w bits. A
    resolved side repeats its final narrow beam. There is no error
    correction; a truncated budget zero-pads the missing bits and flags the
    outcome. Full-coverage hierarchical training is ``run_coded`` with
    identity codes.
    """
    raw, sent, needed = _send_layers(
        ch, (designers.k_bs, designers.k_ris), designers.layer_pairs, snr, budget,
        rng, designers.ideal, inject_flips)
    return _outcome(ch, raw, raw, (None, None), sent, needed)


def narrow_beam_matrices(
    grid: AngleGrid, geometry: ArrayGeometry
) -> tuple[np.ndarray, np.ndarray]:
    """Coverage-convention narrow-beam codebooks: (BS n_bs x n_bs, RIS n_ris x n_ris)."""
    sp = geometry.spacing_over_wavelength
    bs = np.stack([ula_steering(geometry.n_bs, a, sp) for a in grid.bs_angles], axis=1)
    ris = ris_sampling_matrix(geometry, grid) / np.sqrt(geometry.n_ris)
    return bs, ris


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
    if narrow_beams is None:
        narrow_beams = narrow_beam_matrices(grid, geometry)
    bs_cov, ris_cov = narrow_beams
    total = geometry.n_bs * geometry.n_ris
    budget = total if budget is None else budget
    if budget < 1:
        raise ValueError("exhaustive training needs a positive budget")
    count = min(budget, total)

    w_tx = np.conj(bs_cov)
    v_tx = np.conj(ris_cov) * ris_phase_compensation(ch)[:, None]
    # gains[j, i] for RIS beam j and BS beam i, flattened BS-major
    gains = ((v_tx * ch.h_r[:, None]).T @ ch.g_mat @ w_tx).T.ravel()[:count]
    amplitudes = np.sqrt(snr.snr_linear) * gains
    if snr.noiseless:
        powers = np.abs(amplitudes) ** 2
    else:
        noise = rng.standard_normal((count, 2))
        powers = np.abs(amplitudes + (noise[:, 0] + 1j * noise[:, 1]) / np.sqrt(2.0)) ** 2
    winner = int(np.argmax(powers))
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
        n_t = build_plain_code(ceil_log2(n_bs)).n
        n_r = build_reduced_code(ceil_log2(n1), ceil_log2(n2)).n
        return 4 * max(n_t, n_r)
    raise ValueError(f"unknown protocol kind {kind!r}")


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

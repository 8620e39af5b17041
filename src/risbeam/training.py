"""The beam-training protocols: exhaustive, layered (coded), and adaptive.

All protocols transmit beam tuples, measure one noisy power per tuple in
transmit order, and map argmax decisions to angle-index estimates. The layered
runner ``run_coded`` sends every layer of a block-coded codebook pair and
decodes with the requested correction mode. Full-coverage hierarchical
training is the same runner with identity codes (n = k, decode mode "none"):
its basis stripe patterns are the systematic layers of the coded codebooks.
The adaptive interval-halving hierarchical variant designs its beams on
demand through ``HierarchicalBeamProvider`` and runs in ``run_hierarchical``.

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
    BlockCode,
    CorrectionReport,
    bits_to_int,
    decode,
    redundancy_length,
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
    n_layers = max(code_t.n, code_r.n)
    budget = 4 * n_layers if budget is None else budget
    if budget < 4:
        raise ValueError("layered training needs a budget of at least 4 pilots")
    layers_done = min(n_layers, budget // 4)
    flips = set(inject_flips)

    bits_t = np.zeros(code_t.n, dtype=np.uint8)
    bits_r = np.zeros(code_r.n, dtype=np.uint8)
    for layer in range(layers_done):
        bt, br = _four_tuple_bits(
            ch,
            bs_book.layers[layer % code_t.n],
            ris_book.layers[layer % code_r.n],
            snr, rng, ideal,
        )
        if (layer, "bs") in flips:
            bt ^= 1
        if (layer, "ris") in flips:
            br ^= 1
        if layer < code_t.n:
            bits_t[layer] = bt
        if layer < code_r.n:
            bits_r[layer] = br

    bs_mode = "one_bit" if decode_mode == "decoupled_two_bit" else decode_mode
    u_t, rep_t = decode(code_t, bits_t, bs_mode)
    u_r, rep_r = decode(code_r, bits_r, decode_mode)
    return TrainingOutcome(
        est_bs_index=_clamp_index(bits_to_int(u_t) + 1, ch.n_bs),
        est_ris_index=_clamp_index(bits_to_int(u_r) + 1, ch.n_ris),
        raw_bits_bs=bits_t,
        raw_bits_ris=bits_r,
        corrected_bs=rep_t,
        corrected_ris=rep_r,
        pilots_used=4 * layers_done,
        truncated=layers_done < n_layers,
    )


class HierarchicalBeamProvider:
    """Designs and caches the beams of adaptive hierarchical training.

    Each layer needs beams over prefix-restricted index sets, which depend on
    the decisions so far; they are designed on demand and cached. RIS beams
    are Kronecker products of two 1-D designs, with per-axis caching.
    Full-coverage hierarchical training needs no provider: its basis beams are
    the identity-code codebooks.
    """

    def __init__(
        self,
        geometry: ArrayGeometry,
        grid: AngleGrid,
        gs_cfg: GsConfig,
        ideal: bool = False,
    ) -> None:
        self.geometry = geometry
        self.grid = grid
        self.cfg = gs_cfg
        self.ideal = ideal
        self.k_bs = ceil_log2(geometry.n_bs)
        self.k_u = ceil_log2(geometry.n_ris_rows)
        self.k_w = ceil_log2(geometry.n_ris_cols)
        self._bs_cache: dict = {}
        self._axis_cache: dict = {}

    @staticmethod
    def _prefix_mask(n: int, width: int, bits: tuple[int, ...]) -> np.ndarray:
        indices = np.arange(n)
        mask = np.ones(n, dtype=bool)
        for level, bit in enumerate(bits):
            mask &= ((indices >> (width - 1 - level)) & 1) == bit
        return mask

    # -- BS beams -----------------------------------------------------------
    def _bs_beam(self, mask: np.ndarray, key) -> np.ndarray:
        if self.ideal:
            return mask.astype(float)
        if key not in self._bs_cache:
            indices = np.flatnonzero(mask)
            if indices.size == 0:
                raise ValueError("empty BS cover set (is n_bs a power of two?)")
            self._bs_cache[key] = design_bs_codeword(indices, self.grid, self.geometry)
        return self._bs_cache[key]

    def bs_adaptive_pair(self, decided: tuple[int, ...]) -> BeamPair:
        n, width = self.geometry.n_bs, self.k_bs
        return BeamPair(
            one=self._bs_beam(self._prefix_mask(n, width, decided + (1,)), decided + (1,)),
            zero=self._bs_beam(self._prefix_mask(n, width, decided + (0,)), decided + (0,)),
        )

    def bs_resolved(self, decided: tuple[int, ...]) -> np.ndarray:
        mask = self._prefix_mask(self.geometry.n_bs, self.k_bs, decided)
        return self._bs_beam(mask, decided)

    # -- RIS beams ----------------------------------------------------------
    def _axis_codeword(self, dim: str, mask: np.ndarray, seed_tags) -> np.ndarray:
        key = (dim, tuple(np.flatnonzero(mask)), seed_tags)
        if key in self._axis_cache:
            return self._axis_cache[key]
        if dim == "u":
            n, freqs = self.geometry.n_ris_rows, u_axis(self.geometry.n_ris_rows)
        else:
            n, freqs = self.geometry.n_ris_cols, w_axis(self.geometry.n_ris_cols)
        if mask.all():
            beam = flat_codeword(n)
        else:
            if not mask.any():
                raise ValueError("empty RIS axis cover set")
            matrix = axis_sampling_matrix(n, freqs, self.geometry.spacing_over_wavelength)
            beam, _ = relaxed_gs(matrix, mask, self.cfg, derive_rng(self.cfg.seed, *seed_tags))
        self._axis_cache[key] = beam
        return beam

    def _ris_prefix_beam(self, u_bits, w_bits) -> np.ndarray:
        u_mask = self._prefix_mask(self.geometry.n_ris_rows, self.k_u, u_bits)
        w_mask = self._prefix_mask(self.geometry.n_ris_cols, self.k_w, w_bits)
        if self.ideal:
            return np.kron(u_mask.astype(float), w_mask.astype(float))
        return np.kron(self._axis_codeword("u", u_mask, ("hier", "u", u_bits)),
                       self._axis_codeword("w", w_mask, ("hier", "w", w_bits)))

    def ris_adaptive_pair(self, u_bits, w_bits, dim: str) -> BeamPair:
        if dim == "u":
            return BeamPair(one=self._ris_prefix_beam(u_bits + (1,), w_bits),
                            zero=self._ris_prefix_beam(u_bits + (0,), w_bits))
        return BeamPair(one=self._ris_prefix_beam(u_bits, w_bits + (1,)),
                        zero=self._ris_prefix_beam(u_bits, w_bits + (0,)))

    def ris_resolved(self, u_bits, w_bits) -> np.ndarray:
        return self._ris_prefix_beam(u_bits, w_bits)


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
    k_bs, k_u, k_w = designers.k_bs, designers.k_u, designers.k_w
    k_ris = k_u + k_w
    n_layers = max(k_bs, k_ris)
    if n_layers == 0:
        raise ValueError("nothing to train: both arrays have a single candidate")
    budget = 4 * n_layers if budget is None else budget
    if budget < 4:
        raise ValueError("hierarchical training needs a budget of at least 4 pilots")
    layers_done = min(n_layers, budget // 4)
    flips = set(inject_flips)

    bs_bits: list[int] = []
    u_bits: list[int] = []
    w_bits: list[int] = []
    for layer in range(layers_done):
        if layer < k_bs:
            bs_pair = designers.bs_adaptive_pair(tuple(bs_bits))
        else:
            beam = designers.bs_resolved(tuple(bs_bits))
            bs_pair = BeamPair(one=beam, zero=beam)
        if layer < k_ris:
            dim = "u" if layer < k_u else "w"
            ris_pair = designers.ris_adaptive_pair(tuple(u_bits), tuple(w_bits), dim)
        else:
            beam = designers.ris_resolved(tuple(u_bits), tuple(w_bits))
            ris_pair = BeamPair(one=beam, zero=beam)

        bt, br = _four_tuple_bits(ch, bs_pair, ris_pair, snr, rng, designers.ideal)
        if (layer, "bs") in flips:
            bt ^= 1
        if (layer, "ris") in flips:
            br ^= 1
        if layer < k_bs:
            bs_bits.append(bt)
        if layer < k_ris:
            (u_bits if layer < k_u else w_bits).append(br)

    bs_bits += [0] * (k_bs - len(bs_bits))
    u_bits += [0] * (k_u - len(u_bits))
    w_bits += [0] * (k_w - len(w_bits))
    est_ris = bits_to_int(u_bits) * designers.geometry.n_ris_cols + bits_to_int(w_bits) + 1
    return TrainingOutcome(
        est_bs_index=_clamp_index(bits_to_int(bs_bits) + 1, ch.n_bs),
        est_ris_index=_clamp_index(est_ris, ch.n_ris),
        raw_bits_bs=np.array(bs_bits, dtype=np.uint8),
        raw_bits_ris=np.array(u_bits + w_bits, dtype=np.uint8),
        corrected_bs=None,
        corrected_ris=None,
        pilots_used=4 * layers_done,
        truncated=layers_done < n_layers,
    )


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


def training_overhead(
    kind: str,
    n_bs: int,
    ris_dims: tuple[int, int],
    codes: Optional[tuple[BlockCode, BlockCode]] = None,
) -> int:
    """Pilot count each framework needs: n_bs*n_ris, 4*max(bit lengths), 4*max(n_t, n_r)."""
    n1, n2 = ris_dims
    if kind == "exhaustive":
        return n_bs * n1 * n2
    if kind == "hierarchical":
        return 4 * max(ceil_log2(n_bs), ceil_log2(n1 * n2))
    if kind == "coded":
        if codes is not None:
            return 4 * max(codes[0].n, codes[1].n)
        k_t = ceil_log2(n_bs)
        n_t = k_t + redundancy_length(k_t)
        k_u, k_w = ceil_log2(n1), ceil_log2(n2)
        if 2**k_u <= 4 or 2**k_w <= 4:
            raise ValueError(
                "coded training needs more than 4 RIS elements per dimension"
            )
        n_r = k_u + k_w + max(3, redundancy_length(k_u)) + max(3, redundancy_length(k_w))
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

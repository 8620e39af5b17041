"""The beam-training protocols: exhaustive and layered.

All protocols transmit beam tuples, measure one noisy power per tuple in
transmit order, and map argmax decisions to angle-index estimates. Noiseless
tuple gains come from one matrix product, ``gain_table``. A layered protocol
sends one (BS, RIS) beam pair per layer as 4 tuples and reads one hard
decision per side, in ``_send_layers``. ``run_coded`` reads every layer from
one table per channel and decodes; with identity codes (n = k, decode mode
"none") it is full-coverage hierarchical training. The adaptive variant,
``run_hierarchical``, builds a table per layer from the pairs that
``HierarchicalBeamProvider`` designs from the decisions so far.

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
    decode,
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
    BeamPair,
    DesignedCodebook,
    GsConfig,
    axis_sampling_matrix,
    bs_steering_matrix,
    design_bs_codeword,
    flat_codeword,
    relaxed_gs_batch,
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


def gain_table(ch: ChannelRealization, bs_cov: np.ndarray, ris_cov: np.ndarray,
               ideal: bool = False, *, check_modulus: bool = False) -> np.ndarray:
    """Noiseless gains: entry [i, j] pairs BS codeword column i with RIS column j.

    Ideal (mask-valued) codewords read their gains off the true-index rows.
    ``check_modulus`` applies the constant-modulus test of ``effective_gain``
    to every transmitted RIS vector at once.
    """
    if ideal:
        return np.outer(bs_cov[ch.bs_index - 1], ris_cov[ch.ue_ris_index - 1])
    v_tx = np.conj(ris_cov) * ris_phase_compensation(ch)[:, None]
    target = 1.0 / np.sqrt(ch.n_ris)
    if check_modulus and not np.all(np.abs(np.abs(v_tx) - target) <= 1e-9 + 1e-5 * target):
        raise ValueError("RIS vector must have constant modulus 1/sqrt(n_ris)")
    return ((v_tx * ch.h_r[:, None]).T @ ch.g_mat @ np.conj(bs_cov)).T


def _clamp_index(value: int, n: int) -> int:
    return min(max(value, 1), n)


def _send_layers(sizes, gains, snr, budget, rng, inject_flips):
    """Send the 4 tuples of every layer and keep each side's first n decisions.

    ``sizes`` is (n_t, n_r). ``gains(layer, bits_t, bits_r)`` gives a layer's
    2x2 gain table (BS bit x RIS bit; bit 1 is the mask=1 codeword) from the
    decisions so far, as tuples of ints. Tuples go out in the order (0,0),
    (0,1), (1,0), (1,1), ties break toward the first, and the noise of the
    whole run is one ``pilot_noise`` draw. A budget short of 4 pilots per layer
    truncates the run; missing bits are zero. ``inject_flips`` lists (layer,
    "bs" | "ris") decisions to invert. Returns ((BS bits, RIS bits), layers
    sent, layers needed).
    """
    n_t, n_r = sizes
    n_layers = max(n_t, n_r)
    if n_layers == 0:
        raise ValueError("nothing to train: both arrays have a single candidate")
    check_budget("layered", budget)
    layers_done = n_layers if budget is None else min(n_layers, budget // 4)
    flips = set(inject_flips)
    noise = pilot_noise(snr, rng, (layers_done, 2, 2))

    bits_t: tuple = ()
    bits_r: tuple = ()
    for layer in range(layers_done):
        powers = received_power(gains(layer, bits_t, bits_r), snr, noise[layer])
        winner = int(np.argmax(powers))
        if layer < n_t:
            bits_t += ((winner >> 1) ^ ((layer, "bs") in flips),)
        if layer < n_r:
            bits_r += ((winner & 1) ^ ((layer, "ris") in flips),)
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
    code_t, code_r = codes
    if min(code_t.n, code_r.n) == 0:
        raise ValueError("layered training needs more than one candidate on each side")
    table = gain_table(ch, books[0].matrix, books[1].matrix, ideal, check_modulus=True)

    def gains(layer, bits_t, bits_r):
        i, j = 2 * (layer % code_t.n), 2 * (layer % code_r.n)
        return table[i:i + 2, j:j + 2]

    raw, sent, needed = _send_layers(
        (code_t.n, code_r.n), gains, snr, budget, rng, inject_flips)
    bs_mode = "one_bit" if decode_mode == "decoupled_two_bit" else decode_mode
    u_t, rep_t = decode(code_t, raw[0], bs_mode)
    u_r, rep_r = decode(code_r, raw[1], decode_mode)
    return _outcome(ch, raw, (u_t, u_r), (rep_t, rep_r), sent, needed)


class HierarchicalBeamProvider:
    """Designs and caches the beams of adaptive hierarchical training.

    A prefix beam covers the indices whose leading bits equal a decided bit
    prefix. Beams are cached per side ("bs", the RIS axes "u" and "w", and
    "ris") and prefix. The first request on a RIS axis designs every prefix
    beam of that axis in one GS batch; BS and ideal (mask-valued) beams are
    designed on demand. A RIS prefix is the u bits followed by the w bits, and
    its beam is the Kronecker product of the two axis beams, formed once per
    prefix. Every array size must be a power of two, so that each prefix
    covers a nonempty index interval.
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
        self._beams: dict = {side: {} for side in ("bs", "u", "w", "ris")}

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
        beams = self._beams[side]
        if prefix not in beams:
            if side == "ris":
                beams[prefix] = np.kron(self._beam("u", prefix[:self.k_u]),
                                        self._beam("w", prefix[self.k_u:]))
            elif self.ideal:
                beams[prefix] = self._mask(side, prefix).astype(float)
            elif side == "bs":
                beams[prefix] = design_bs_codeword(np.flatnonzero(self._mask(side, prefix)),
                                                   self.grid, self.geometry)
            else:
                beams.update(self._design_axis(side))
        return beams[prefix]

    def _mask(self, side: str, prefix: tuple) -> np.ndarray:
        n = self._sizes[side]
        return np.arange(n) >> (ceil_log2(n) - len(prefix)) == bits_to_int(prefix)

    def _design_axis(self, side: str) -> dict:
        """Every prefix beam of a RIS axis; nonempty prefixes run as one GS batch."""
        n = self._sizes[side]
        prefixes = [bits for length in range(1, ceil_log2(n) + 1)
                    for bits in product((0, 1), repeat=length)]
        beams = {(): flat_codeword(n)}
        if prefixes:
            freqs = (u_axis if side == "u" else w_axis)(n)
            matrix = axis_sampling_matrix(n, freqs, self.geometry.spacing_over_wavelength)
            rngs = [derive_rng(self.cfg.seed, "hier", side, bits) for bits in prefixes]
            masks = np.array([self._mask(side, bits) for bits in prefixes])
            designed, _ = relaxed_gs_batch(matrix, masks, self.cfg, rngs)
            beams.update(zip(prefixes, designed))
        return beams


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
    outcome.
    """
    def gains(layer, bits_t, bits_r):
        bs_pair, ris_pair = designers.layer_pairs(layer, bits_t, bits_r)
        return gain_table(ch, bs_pair.columns, ris_pair.columns, designers.ideal,
                          check_modulus=True)

    raw, sent, needed = _send_layers(
        (designers.k_bs, designers.k_ris), gains, snr, budget, rng, inject_flips)
    return _outcome(ch, raw, raw, (None, None), sent, needed)


def narrow_beam_matrices(grid: AngleGrid, geometry: ArrayGeometry
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Coverage-convention narrow-beam codebooks: (BS n_bs x n_bs, RIS n_ris x n_ris)."""
    ris = ris_sampling_matrix(geometry, grid) / np.sqrt(geometry.n_ris)
    return bs_steering_matrix(geometry, grid), ris


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

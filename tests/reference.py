"""The per-pilot reference the package's block runners are tested against.

Everything here works one beam tuple, one pilot or one trial at a time, the
way the protocols read on paper: ``effective_gain`` forms one noiseless
amplitude (with its constant-modulus and shape checks), ``measure_power``
draws one noisy power, ``exhaustive_sweep`` sends every narrow-beam tuple in
turn, and ``per_pilot_bits`` runs the layer loop of layered training.
``decode`` is per-word syndrome decoding on its own brute-force tables, the
oracle for ``blockcode.decode_words``. ``run_coded`` and ``run_hierarchical``
are one-trial calls of the block runners, read through the
``TrainingOutcome`` view (``trial_outcome``). The remaining helpers are
one-codeword forms of the package's batched designs and of its metrics:
``design_bs_codeword`` sums one steering vector at a time, the oracle for
``codebook.design_bs_codewords``, and ``relaxed_gs_loop`` is the GS
iteration as first written, the oracle for ``codebook.relaxed_gs_batch``.
Tests import it as ``reference``: ``tests/`` is not a package, so pytest
puts it on ``sys.path``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Optional

import numpy as np

from risbeam.arrays import (
    DEFAULT_SPACING,
    AngleGrid,
    ArrayGeometry,
    u_axis,
    ula_steering,
    upa_steering_uw,
    w_axis,
)
from risbeam.blockcode import DECODE_MODES, BlockCode, bits_to_int
from risbeam.channel import (
    ChannelRealization,
    SnrSpec,
    channel_block,
    pilot_noise,
    received_power,
    ris_phase_compensation,
)
from risbeam.codebook import (
    BeamPair,
    GsConfig,
    _grid_responses,
    _margin,
    axis_sampling_matrix,
    _pinv_with_rank,
    _stacked_matvec,
    bs_steering_matrix,
    flat_codeword,
    relaxed_gs_batch,
    ris_sampling_matrix,
)
from risbeam.seeding import derive_rng
from risbeam.training import (
    HierarchicalBeamProvider,
    TrainingRuns,
    ceil_log2,
    run_adaptive,
    run_layered,
)

# -- one tuple ----------------------------------------------------------------


def effective_gain(ch: ChannelRealization, v: np.ndarray, w: np.ndarray) -> complex:
    """Noiseless received amplitude h_r diag(v) g_mat w for one beam tuple."""
    v = np.asarray(v)
    w = np.asarray(w)
    if v.shape != (ch.n_ris,) or w.shape != (ch.n_bs,):
        raise ValueError("beam dimensions do not match the channel")
    target = 1.0 / np.sqrt(ch.n_ris)
    if not np.allclose(np.abs(v), target, atol=1e-9):
        raise ValueError("RIS vector must have constant modulus 1/sqrt(n_ris)")
    return complex((ch.h_r * v) @ ch.g_mat @ w)


def measure_power(gain: complex, snr: SnrSpec, rng: np.random.Generator) -> float:
    """One received-power measurement |sqrt(snr) * gain + noise|^2.

    Noise is circularly symmetric complex Gaussian with unit variance, one
    independent draw per call; the noiseless flag drops the noise term.
    """
    return float(received_power(gain, snr, pilot_noise(snr, rng, ())))


def bs_transmit(w_cov: np.ndarray) -> np.ndarray:
    """Transmit beamformer for a coverage-convention BS codeword."""
    return np.conj(w_cov)


def ris_transmit(ch: ChannelRealization, v_cov: np.ndarray) -> np.ndarray:
    """Applied RIS reflecting vector: conjugate plus static BS-side de-rotation."""
    return np.conj(v_cov) * ris_phase_compensation(ch)


def upa_steering(n1: int, n2: int, phi: float, theta: float,
                 spacing: float = DEFAULT_SPACING) -> np.ndarray:
    """Unit-norm UPA steering vector at azimuth phi and elevation theta."""
    return upa_steering_uw(n1, n2, np.sin(phi) * np.sin(theta), np.cos(theta), spacing)


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


# -- exhaustive training --------------------------------------------------------


def exhaustive_sweep(
    ch: ChannelRealization,
    grid: AngleGrid,
    geometry: ArrayGeometry,
    snr: SnrSpec,
    budget: Optional[int],
    rng: np.random.Generator,
) -> tuple[tuple[int, int], int, bool]:
    """(estimate, pilots, truncated) of exhaustive training on one channel.

    Sends the first ``budget`` narrow-beam tuples in BS-major order, one
    ``effective_gain`` and one ``measure_power`` call per tuple, and picks the
    first power maximum. Each grid point's transmit beam is built once.
    """
    n_bs, n_ris = geometry.n_bs, geometry.n_ris
    total = n_bs * n_ris
    count = total if budget is None else min(budget, total)
    ris_beams = [grid_transmit_pair(ch, grid, geometry, 1, j)[0] for j in range(1, n_ris + 1)]
    bs_beams = [grid_transmit_pair(ch, grid, geometry, i, 1)[1] for i in range(1, n_bs + 1)]
    powers = [measure_power(effective_gain(ch, ris_beams[t % n_ris], bs_beams[t // n_ris]),
                            snr, rng) for t in range(count)]
    winner = int(np.argmax(powers))
    return (winner // n_ris + 1, winner % n_ris + 1), count, count < total


def noiseless_best_tuple(ch: ChannelRealization, grid: AngleGrid, geometry: ArrayGeometry
                         ) -> tuple[int, int]:
    """Ground-truth best tuple by a noiseless exhaustive sweep."""
    estimate, _, _ = exhaustive_sweep(ch, grid, geometry, SnrSpec(1.0, noiseless=True),
                                      None, np.random.default_rng(0))
    return estimate


# -- one word through the syndrome decoder --------------------------------------


@dataclass(frozen=True)
class CorrectionReport:
    corrected: bool
    uncorrectable: bool
    flipped: tuple[int, ...]


@lru_cache(maxsize=None)
def _syndrome_tables(check_bytes: bytes, m: int, n: int, split) -> tuple[dict, ...]:
    """Syndrome -> error position of every single error: the whole word, then each side.

    Each error vector goes through the check matrix; a side table uses its
    block of check rows and only that RIS dimension's positions (systematic
    bits, then parity bits).
    """
    check = np.frombuffer(check_bytes, dtype=np.uint8).reshape(m, n)

    def table(rows, positions):
        out = {}
        for pos in positions:
            error = np.zeros(n, dtype=np.uint8)
            error[pos] = 1
            out[tuple((check[rows] @ error) % 2)] = pos
        return out

    tables = [table(slice(None), range(n))]
    if split is not None:
        k1, m1, k2, _ = split
        k = k1 + k2
        tables.append(table(slice(0, m1), [*range(k1), *range(k, k + m1)]))
        tables.append(table(slice(m1, m), [*range(k1, k), *range(k + m1, n)]))
    return tuple(tables)


def decode(code: BlockCode, x_hat, mode: str = "one_bit"):
    """Recover the information bits of one word, correcting per the requested mode.

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
    if mode == "decoupled_two_bit" and code.split is None:
        raise ValueError("decoupled_two_bit decoding needs a dimension-split code")
    tables = _syndrome_tables(code.check.tobytes(), code.m, code.n, code.split)
    syn = (code.check @ x_hat) % 2
    if mode == "one_bit":
        blocks = [(syn, tables[0])]
    else:
        m1 = code.split[1]
        blocks = [(syn[:m1], tables[1]), (syn[m1:], tables[2])]
    flipped = []
    uncorrectable = False
    for block_syn, table in blocks:
        if not block_syn.any():
            continue
        pos = table.get(tuple(block_syn))
        if pos is None:
            uncorrectable = True
        else:
            x_hat[pos] ^= 1
            flipped.append(pos)
    return x_hat[: code.k], CorrectionReport(bool(flipped), uncorrectable, tuple(flipped))


# -- one trial of a block runner -----------------------------------------------


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


def trial_outcome(runs: TrainingRuns, trial: int) -> TrainingOutcome:
    """Trial ``trial`` of a block, with its decoder reports as ``CorrectionReport``s."""
    reports = [CorrectionReport(bool(corrected[trial]), bool(uncorrectable[trial]),
                                tuple(int(pos) for pos in flipped[trial] if pos >= 0))
               for corrected, uncorrectable, flipped in runs.decoded] or [None, None]
    return TrainingOutcome(
        est_bs_index=int(runs.est_bs_index[trial]),
        est_ris_index=int(runs.est_ris_index[trial]),
        raw_bits_bs=runs.raw_bits_bs[trial],
        raw_bits_ris=runs.raw_bits_ris[trial],
        corrected_bs=reports[0],
        corrected_ris=reports[1],
        pilots_used=runs.pilots_used,
        truncated=runs.truncated,
    )


def run_coded(ch, books, codes, snr, budget, rng, decode_mode="one_bit", *, ideal=False,
              inject_flips=()) -> TrainingOutcome:
    """Layered beam training of one channel: ``run_layered`` on a one-trial block."""
    return trial_outcome(run_layered(channel_block([ch]), books, codes, snr, budget, [rng],
                                     decode_mode, ideal=ideal, inject_flips=inject_flips), 0)


def run_hierarchical(ch, provider: HierarchicalBeamProvider, snr, budget, rng, *,
                     inject_flips=()) -> TrainingOutcome:
    """Adaptive hierarchical training of one channel: ``run_adaptive`` on a one-trial block."""
    return trial_outcome(run_adaptive(channel_block([ch]), provider, snr, budget, [rng],
                                      inject_flips=inject_flips), 0)


# -- layered training, one pilot at a time --------------------------------------


def per_pilot_bits(ch, pairs, sizes, snr, rng, ideal=False, layers=None, flips=()):
    """The layer loop with one effective_gain and one measure_power call per pilot.

    ``layers`` (default: all) is the number of layers sent; bits of the layers
    not sent are missing from the result. ``flips`` lists (layer, "bs" |
    "ris") decisions to invert before the next layer's pairs are chosen.
    """
    n_t, n_r = sizes
    bits_t: tuple = ()
    bits_r: tuple = ()
    for layer in range(max(sizes) if layers is None else layers):
        bs_pair, ris_pair = pairs(layer, bits_t, bits_r)
        powers = []
        for w_cov in (bs_pair.zero, bs_pair.one):
            for v_cov in (ris_pair.zero, ris_pair.one):
                if ideal:
                    gain = complex(w_cov[ch.bs_index - 1] * v_cov[ch.ue_ris_index - 1])
                else:
                    gain = effective_gain(ch, ris_transmit(ch, v_cov), bs_transmit(w_cov))
                powers.append(measure_power(gain, snr, rng))
        winner = int(np.argmax(powers))
        if layer < n_t:
            bits_t += ((winner >> 1) ^ ((layer, "bs") in flips),)
        if layer < n_r:
            bits_r += ((winner & 1) ^ ((layer, "ris") in flips),)
    return bits_t, bits_r


def reference_run(ch, books, codes, snr, budget, rng, mode, ideal):
    """One trial through per_pilot_bits and the per-word ``decode``."""
    sizes = (codes[0].n, codes[1].n)
    sent = max(sizes) if budget is None else min(max(sizes), budget // 4)
    bits = per_pilot_bits(
        ch, lambda layer, *_: (books[0].layers[layer % sizes[0]],
                               books[1].layers[layer % sizes[1]]),
        sizes, snr, rng, ideal, layers=sent)
    raw = [np.array(b + (0,) * (n - len(b)), dtype=np.uint8) for b, n in zip(bits, sizes)]
    bs_mode = "one_bit" if mode == "decoupled_two_bit" else mode
    (u_t, rep_t), (u_r, rep_r) = decode(codes[0], raw[0], bs_mode), decode(codes[1], raw[1], mode)
    estimate = (min(max(bits_to_int(u_t) + 1, 1), ch.n_bs),
                min(max(bits_to_int(u_r) + 1, 1), ch.n_ris))
    return estimate, raw, (rep_t, rep_r), 4 * sent, sent < max(sizes)


class ReferencePrefixBeams:
    """Adaptive hierarchical beams built per bit prefix, the reference for the provider.

    A beam covers the indices whose leading bits equal its prefix: a BS beam
    is ``design_bs_codeword`` of that coverage mask, a RIS axis designs its
    nonempty prefixes in one GS batch (the empty prefix is the flat
    codeword), ideal beams are the masks, and a RIS beam is ``np.kron`` of
    its u-prefix and w-prefix beams.
    """

    def __init__(self, geo, grid, cfg, ideal):
        self.geo, self.grid, self.cfg, self.ideal = geo, grid, cfg, ideal
        self.sizes = {"bs": geo.n_bs, "u": geo.n_ris_rows, "w": geo.n_ris_cols}
        self.k_bs = ceil_log2(geo.n_bs)
        self.k_u = ceil_log2(geo.n_ris_rows)
        self.k_ris = self.k_u + ceil_log2(geo.n_ris_cols)
        self.axes = {side: self._axis(side) for side in ("u", "w")}

    def mask(self, side, prefix):
        n = self.sizes[side]
        return np.arange(n) >> (ceil_log2(n) - len(prefix)) == bits_to_int(prefix)

    def _axis(self, side):
        n = self.sizes[side]
        prefixes = [bits for length in range(1, ceil_log2(n) + 1)
                    for bits in product((0, 1), repeat=length)]
        if self.ideal:
            return {bits: self.mask(side, bits).astype(float) for bits in [()] + prefixes}
        beams = {(): flat_codeword(n)}
        if prefixes:
            matrix = axis_sampling_matrix(n, (u_axis if side == "u" else w_axis)(n),
                                          self.geo.spacing_over_wavelength)
            rngs = [derive_rng(self.cfg.seed, "hier", side, bits) for bits in prefixes]
            masks = np.array([self.mask(side, bits) for bits in prefixes])
            beams.update(zip(prefixes, relaxed_gs_batch(matrix, masks, self.cfg, rngs)[0]))
        return beams

    def beam(self, side, prefix):
        if side == "ris":
            return np.kron(self.axes["u"][prefix[:self.k_u]], self.axes["w"][prefix[self.k_u:]])
        if self.ideal:
            return self.mask(side, prefix).astype(float)
        return design_bs_codeword(np.flatnonzero(self.mask(side, prefix)), self.grid, self.geo)

    def layer_pairs(self, layer, bits_t, bits_r):
        """A side still searching splits its prefix; a resolved side repeats its beam."""
        pairs = []
        for side, prefix, k in (("bs", bits_t, self.k_bs), ("ris", bits_r, self.k_ris)):
            if layer < k:
                pairs.append(BeamPair(one=self.beam(side, prefix + (1,)),
                                      zero=self.beam(side, prefix + (0,))))
            else:
                pairs.append(BeamPair(one=self.beam(side, prefix), zero=self.beam(side, prefix)))
        return tuple(pairs)


# -- one codeword, one metric ---------------------------------------------------


def design_bs_codeword(cover_indices, grid: AngleGrid, geometry: ArrayGeometry) -> np.ndarray:
    """Multi-mainlobe BS codeword covering the listed grid indices (0-based), one term at a time.

    Weighted sum of steering vectors with the phase schedule
    psi_i = i*pi*(1/n_bs - 1) over the 1-based position i in the covered
    list, normalized to unit norm: the oracle for ``design_bs_codewords``.
    """
    cover_indices = np.asarray(cover_indices, dtype=int)
    if cover_indices.size == 0:
        raise ValueError("cover set is empty")
    n_bs = geometry.n_bs
    sp = geometry.spacing_over_wavelength
    psi = np.arange(1, cover_indices.size + 1) * np.pi * (-1.0 + 1.0 / n_bs)
    w = np.zeros(n_bs, dtype=complex)
    for shift, idx in zip(np.exp(1j * psi), cover_indices):
        w += shift * ula_steering(n_bs, grid.bs_angles[idx], sp)
    return w / np.linalg.norm(w)


def relaxed_gs_loop(a_scaled: np.ndarray, masks: np.ndarray, cfg: GsConfig,
                    rngs) -> tuple[np.ndarray, np.ndarray]:
    """The relaxed GS batch as first written: the oracle for ``relaxed_gs_batch``.

    Every iteration forms the threshold per grid point, tests in- and
    out-of-coverage points with separate comparisons, and takes phases with
    ``np.angle``. Returns the (B, n_el) codewords and (B, k_iter) traces.
    """
    n_el, n_grid = a_scaled.shape
    masks = np.asarray(masks, dtype=bool)
    target = cfg.target_amplitude or np.sqrt(n_grid / masks.sum(axis=1))[:, None]
    forward = a_scaled.conj().T
    backward, _ = _pinv_with_rank(forward)
    modulus = 1.0 / np.sqrt(n_el)
    phases = np.array([rng.random(n_grid) for rng in rngs])
    s_prev = np.where(masks, target, 0.0) * np.exp(2j * np.pi * phases)
    v = modulus * np.exp(1j * np.angle(_stacked_matvec(backward, s_prev)))
    hi = target * (1.0 - cfg.delta)
    lo = target * cfg.delta
    traces = np.empty((masks.shape[0], cfg.k_iter))
    for k in range(cfg.k_iter):
        s_k = _stacked_matvec(forward, v)
        d = s_k - s_prev
        sq = d.real[:, None] @ d.real[..., None] + d.imag[:, None] @ d.imag[..., None]
        traces[:, k] = np.sqrt(sq[:, 0, 0])
        amp = np.abs(s_k)
        satisfied = np.where(masks, amp >= hi, amp <= lo)
        reassigned = np.where(masks, hi, lo) * np.exp(1j * np.angle(s_k))
        s_hat = np.where(satisfied, s_k, reassigned)
        v = modulus * np.exp(1j * np.angle(_stacked_matvec(backward, s_hat)))
        s_prev = s_k
    return v, traces


def relaxed_gs(a_scaled: np.ndarray, mask: np.ndarray, cfg: GsConfig,
               rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Relaxed GS design of one codeword: a one-row ``relaxed_gs_batch``."""
    v, trace = relaxed_gs_batch(a_scaled, np.asarray(mask, dtype=bool)[None], cfg, (rng,))
    return v[0], trace[0]


def design_ris_codeword_gs(mask, grid: AngleGrid, geometry: ArrayGeometry, cfg: GsConfig,
                           rng: Optional[np.random.Generator] = None):
    """Direct 2-D relaxed GS design of one RIS codeword for the given mask."""
    if rng is None:
        rng = derive_rng(cfg.seed, "gs", "ris", "direct")
    return relaxed_gs(ris_sampling_matrix(geometry, grid), mask, cfg, rng)


def classification_margin(v: np.ndarray, mask: np.ndarray, grid: AngleGrid,
                          geometry: ArrayGeometry, side: str) -> tuple[float, float]:
    """(min in-coverage, max out-of-coverage) of |a_n^H v| over the grid of a side.

    Unit-norm steering vectors of the BS ("bs") or the RIS ("ris").
    """
    if side == "bs":
        responses = _grid_responses(bs_steering_matrix(geometry, grid))
    else:
        responses = _grid_responses(ris_sampling_matrix(geometry, grid),
                                    np.sqrt(geometry.n_ris))
    return _margin(responses(v), mask)


def success_rate(outcomes, ground_truths) -> float:
    """Fraction of trials whose estimated (bs, ris) tuple matches the truth."""
    outcomes = list(outcomes)
    ground_truths = list(ground_truths)
    if len(outcomes) != len(ground_truths):
        raise ValueError("outcomes and ground truths differ in length")
    if not outcomes:
        raise ValueError("empty input")
    hits = sum(
        (o.est_bs_index, o.est_ris_index) == tuple(t)
        for o, t in zip(outcomes, ground_truths)
    )
    return hits / len(outcomes)

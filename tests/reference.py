"""The per-pilot reference the package's block runners are tested against.

Everything here works one beam tuple, one pilot or one trial at a time, the
way the protocols read on paper. ``sample_full_block`` draws the full
geometric model, a random static RIS-BS direction included, and keeps the
RIS-BS matrices and their de-rotation: ``channel.sample_block``'s closed form
is tested against it, and the physics oracle reads it. ``effective_gain``
forms one noiseless amplitude (with its constant-modulus and shape checks),
``measure_power`` draws one noisy power, ``exhaustive_sweep`` sends every
narrow-beam tuple in turn (the oracle of ``run_exhaustive``'s table of
powers), and ``per_pilot_bits`` runs the layer loop of layered training.
``decode`` is per-word syndrome decoding on its own brute-force tables, the
oracle for ``blockcode.decode_words``. ``run_coded`` and ``run_hierarchical``
are one-trial calls of the block runners, read through the
``TrainingOutcome`` view (``trial_outcome``). ``flipped`` is the tests' seam
for wrong layer decisions: inside it, either layered runner inverts the
listed decisions, and an adaptive run follows them into later layers. The
remaining helpers are one-codeword forms of the package's batched designs
and of its metrics: ``design_bs_codeword`` sums one steering vector at a
time, the oracle for ``codebook.design_bs_codewords``, ``result_row`` aggregates one
cell, the oracle for ``experiments._result_rows``, ``trial_records`` builds the trial
log a ``TrialRecord`` at a time, ``export_trial_records`` writes those records
through ``csv.writer``, the oracle for ``experiments.export_trial_log``, and
``relaxed_gs_loop`` is the GS iteration as first written, the oracle for
``codebook.relaxed_gs_batch``.
``build_codebooks`` designs one cover at a time on these two (one mask
factored, one ``np.kron`` and one margin per codeword), the oracle for
``codebook.build_codebooks``.
Tests import it as ``reference``: ``tests/`` is not a package, so pytest
puts it on ``sys.path``.
"""

from __future__ import annotations

import csv
from contextlib import contextmanager
from dataclasses import dataclass, fields
from functools import lru_cache
from itertools import count, product
from operator import attrgetter
from pathlib import Path
from types import SimpleNamespace
from typing import Optional

import numpy as np

from risbeam import training
from risbeam.arrays import (
    AngleGrid,
    ArrayGeometry,
    bs_grid_sines,
    u_axis,
    ula_steering,
    upa_steering_uw,
    w_axis,
)
from risbeam.blockcode import DECODE_MODES, BlockCode, bits_to_int
from risbeam.channel import SAMPLING_MODES, ChannelBlock, SnrSpec, pilot_noise, received_power
from risbeam.codebook import (
    DesignedCodebook,
    GsConfig,
    _column_covers,
    axis_sampling_matrix,
    _stacked_matvec,
    beam_pattern_matrix,
    flat_codeword,
    norms,
    relaxed_gs_batch,
    ris_sampling_matrix,
)
from risbeam.experiments import ResultRow
from risbeam.seeding import derive_rng
from risbeam.training import TrainingRuns, ceil_log2, run_adaptive, run_layered

# -- one channel, one tuple -----------------------------------------------------
#
# A channel is row t of a FullChannelBlock (row 0 by default): its h_r[t],
# g_mats[t], comp[t] and 1-based bs_index[t] and ris_index[t].


@dataclass(frozen=True)
class FullChannelBlock(ChannelBlock):
    """A ChannelBlock that also holds what the package keeps only in factored form.

    ``comp`` is the unit-modulus de-rotation of the static RIS-BS direction
    and ``g_mats`` the RIS-BS matrices, so every row of ``comp * g_mat`` is
    ``beta``. The physics oracle reads them: one tuple's amplitude is
    ``h_r diag(v) g_mat w``.
    """

    comp: np.ndarray  # (trials, n_ris)
    g_mats: np.ndarray  # (trials, n_ris, n_bs)


def sample_full_block(geometry: ArrayGeometry, grid: AngleGrid, rngs,
                      mode: str = "on_grid") -> FullChannelBlock:
    """The full geometric model's block, also holding ``comp`` and ``g_mats``.

    ``channel.sample_block``'s draws come first and in the same order, then
    the static RIS-BS direction's (one more ``integers``, or two more
    ``uniform``). So the indices are ``sample_block``'s byte for byte, and
    its closed-form ``beta`` and ``h_r`` agree with the de-rotated, rescaled
    matrices here within 1e-12.
    """
    grid.check(geometry)
    if mode not in SAMPLING_MODES:
        raise ValueError(f"unknown sampling mode {mode!r}")
    n1, n2 = geometry.n_ris_rows, geometry.n_ris_cols
    n_bs, n_ris = geometry.n_bs, geometry.n_ris
    if mode == "on_grid":
        bs, ue, gr = np.array([[rng.integers(n_bs), rng.integers(n_ris), rng.integers(n_ris)]
                               for rng in rngs]).T
        a_bs, (a_ue, a_gr) = grid.bs_steering.T[bs], grid.ris_steering.T[np.stack((ue, gr))]
    else:
        half = np.pi / 2
        phi_t, phi_r, theta_r, phi_g, theta_g = np.array([
            [rng.uniform(-half, half), rng.uniform(-half, half), rng.uniform(0.0, np.pi),
             rng.uniform(-half, half), rng.uniform(0.0, np.pi)] for rng in rngs]).T
        u, w, bs_sine = np.sin(phi_r) * np.sin(theta_r), np.cos(theta_r), np.sin(phi_t)
        bs = np.argmin(np.abs(bs_grid_sines(n_bs) - bs_sine[:, None]), axis=1)
        ue = np.argmin((grid.ris_u - u[:, None]) ** 2 + (grid.ris_w - w[:, None]) ** 2, axis=1)
        a_bs = ula_steering(n_bs, np.arcsin(bs_sine))
        a_ue = upa_steering_uw(n1, n2, u, w)
        a_gr = upa_steering_uw(n1, n2, np.sin(phi_g) * np.sin(theta_g), np.cos(theta_g))
    h_r = np.sqrt(n_ris) * a_ue
    g_mats = a_gr[:, :, None] * a_bs[:, None, :]
    g_mats *= np.sqrt(n_bs * n_ris)
    h_r *= (np.sqrt(n_ris) / norms(h_r))[:, None]
    g_mats *= (np.sqrt(n_bs * n_ris) / norms(g_mats.reshape(len(g_mats), -1)))[:, None, None]
    comp = np.sqrt(n_ris) * np.conj(a_gr)
    return FullChannelBlock(bs_index=bs + 1, ris_index=ue + 1, beta=comp[:, :1] * g_mats[:, 0],
                            h_r=h_r, on_grid=mode == "on_grid", comp=comp, g_mats=g_mats)


def channel_at(geometry: ArrayGeometry, grid: AngleGrid, bs_index: int, ris_index: int,
               gr_index: int = 1) -> FullChannelBlock:
    """The one-row on-grid block at the given 1-based BS, UE-side RIS and RIS-BS indices."""
    draws = iter((bs_index - 1, ris_index - 1, gr_index - 1))
    # a stand-in generator whose three integer draws are these 0-based indices
    return sample_full_block(geometry, grid, [SimpleNamespace(integers=lambda n: next(draws))])


def effective_gain(ch: FullChannelBlock, v: np.ndarray, w: np.ndarray, t: int = 0) -> complex:
    """Noiseless received amplitude h_r diag(v) g_mat w of row t for one beam tuple."""
    v = np.asarray(v)
    w = np.asarray(w)
    if v.shape != (ch.n_ris,) or w.shape != (ch.n_bs,):
        raise ValueError("beam dimensions do not match the channel")
    target = 1.0 / np.sqrt(ch.n_ris)
    if not np.allclose(np.abs(v), target, atol=1e-9):
        raise ValueError("RIS vector must have constant modulus 1/sqrt(n_ris)")
    return complex((ch.h_r[t] * v) @ ch.g_mats[t] @ w)


def measure_power(gain: complex, snr: SnrSpec, rng: np.random.Generator) -> float:
    """One received-power measurement |sqrt(snr) * gain + noise|^2.

    Noise is circularly symmetric complex Gaussian with unit variance, one
    independent draw per call; the noiseless flag drops the noise term.
    """
    return float(received_power(gain, snr, pilot_noise(snr, rng, ())))


def bs_transmit(w_cov: np.ndarray) -> np.ndarray:
    """Transmit beamformer for a coverage-convention BS codeword."""
    return np.conj(w_cov)


def ris_transmit(ch: FullChannelBlock, v_cov: np.ndarray, t: int = 0) -> np.ndarray:
    """Applied RIS reflecting vector: conjugate plus row t's static BS-side de-rotation."""
    return np.conj(v_cov) * ch.comp[t]


def upa_steering(n1: int, n2: int, phi: float, theta: float) -> np.ndarray:
    """Unit-norm UPA steering vector at azimuth phi and elevation theta."""
    return upa_steering_uw(n1, n2, np.sin(phi) * np.sin(theta), np.cos(theta))


def grid_transmit_pair(
    ch: FullChannelBlock,
    grid: AngleGrid,
    geometry: ArrayGeometry,
    bs_index: int,
    ris_index: int,
    t: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Transmit-ready narrow beams (v, w) pointing at the given grid tuple."""
    w_cov = ula_steering(geometry.n_bs, grid.bs_angles[bs_index - 1])
    v_cov = upa_steering_uw(
        geometry.n_ris_rows, geometry.n_ris_cols,
        grid.ris_u[ris_index - 1], grid.ris_w[ris_index - 1],
    )
    return ris_transmit(ch, v_cov, t), bs_transmit(w_cov)


def achievable_rate(
    ch: FullChannelBlock, v: np.ndarray, w: np.ndarray, snr_eval: SnrSpec, t: int = 0
) -> float:
    """Spectral efficiency log2(1 + snr * |h_r diag(v) g_mat w|^2), transmit beams."""
    gain = effective_gain(ch, v, w, t)
    return float(np.log2(1.0 + snr_eval.snr_linear * abs(gain) ** 2))


# -- exhaustive training --------------------------------------------------------


def exhaustive_sweep(
    ch: FullChannelBlock,
    grid: AngleGrid,
    geometry: ArrayGeometry,
    snr: SnrSpec,
    budget: Optional[int],
    rng: np.random.Generator,
    t: int = 0,
) -> tuple[tuple[int, int], int, bool]:
    """(estimate, pilots, truncated) of exhaustive training on row t.

    Sends the first ``budget`` narrow-beam tuples in BS-major order, one
    ``effective_gain`` and one ``measure_power`` call per tuple, and picks the
    first power maximum. Each grid point's transmit beam is built once.
    """
    n_bs, n_ris = geometry.n_bs, geometry.n_ris
    total = n_bs * n_ris
    count = total if budget is None else min(budget, total)
    ris_beams = [grid_transmit_pair(ch, grid, geometry, 1, j, t)[0] for j in range(1, n_ris + 1)]
    bs_beams = [grid_transmit_pair(ch, grid, geometry, i, 1, t)[1] for i in range(1, n_bs + 1)]
    powers = [measure_power(effective_gain(ch, ris_beams[k % n_ris], bs_beams[k // n_ris], t),
                            snr, rng) for k in range(count)]
    winner = int(np.argmax(powers))
    return (winner // n_ris + 1, winner % n_ris + 1), count, count < total


def noiseless_best_tuple(ch: FullChannelBlock, grid: AngleGrid, geometry: ArrayGeometry
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
        pilots_used=int(runs.pilots[trial]),
        truncated=bool(runs.pilots[trial] < runs.needed),
    )


_BIT_AXES = {"bs": -2, "ris": -1}


@contextmanager
def flipped(flips):
    """Invert the listed (layer, "bs" | "ris") decisions of one layered runner call.

    Patches ``training.received_power``: at each flipped layer the four powers
    are swapped along that side's bit (the BS bit is axis -2, the RIS bit axis
    -1) before the runner's argmax, so a unique winner (b, r) becomes
    (1 - b, r) or (b, 1 - r). ``run_layered`` makes one (trials, layers, 2, 2)
    call; ``run_adaptive`` makes one (trials, 2, 2) call per layer, in turn,
    so an adaptive run follows the flipped decision into later layers. A flip
    past the layers sent, or past a side's word length (that bit is never
    read), changes nothing; other calls pass through.
    """
    adaptive_layer = count()

    def flipping(gain, snr, noise):
        powers = received_power(gain, snr, noise)
        if powers.ndim == 4:  # run_layered: every layer at once
            layers = dict(enumerate(np.moveaxis(powers, 1, 0)))
        elif powers.ndim == 3:  # run_adaptive: one layer per call
            layers = {next(adaptive_layer): powers}
        else:
            return powers
        for layer, side in set(flips):
            if layer in layers:  # a view: the write reaches the runner's powers
                layers[layer][...] = np.flip(layers[layer], _BIT_AXES[side])
        return powers

    original = training.received_power
    training.received_power = flipping
    try:
        yield
    finally:
        training.received_power = original


def run_coded(ch, books, codes, snr, budget, rng, decode_mode="one_bit", *, ideal=False,
              inject_flips=()) -> TrainingOutcome:
    """Layered beam training of a one-row block ``ch``: ``run_layered`` on it.

    ``inject_flips`` lists (layer, "bs" | "ris") decisions to invert (``flipped``).
    """
    with flipped(inject_flips):
        return trial_outcome(run_layered(ch, books, codes, snr, budget, [rng],
                                         decode_mode, ideal=ideal), 0)


def run_hierarchical(ch, beams, codes, snr, budget, rng, *, ideal=False,
                     inject_flips=()) -> TrainingOutcome:
    """Adaptive hierarchical training of a one-row block ``ch``: ``run_adaptive`` on it.

    ``inject_flips`` lists (layer, "bs" | "ris") decisions to invert (``flipped``).
    """
    with flipped(inject_flips):
        return trial_outcome(run_adaptive(ch, beams, codes, snr, budget, [rng], ideal=ideal), 0)


# -- layered training, one pilot at a time --------------------------------------


@dataclass(frozen=True)
class BeamPair:
    """A layer's two codewords: ``one`` covers the mask=1 grid points, ``zero`` the rest."""

    one: np.ndarray
    zero: np.ndarray

    @property
    def columns(self) -> np.ndarray:
        """The zero and one codewords as the two columns of a matrix."""
        return np.stack((self.zero, self.one), axis=1)


def layer_pair(book, layer: int) -> BeamPair:
    """Layer ``layer`` of a designed codebook: columns 2l + 1 and 2l, as contiguous copies."""
    return BeamPair(one=book.matrix[:, 2 * layer + 1].copy(),
                    zero=book.matrix[:, 2 * layer].copy())


def per_pilot_bits(ch, pairs, sizes, snr, rng, ideal=False, layers=None, flips=(), t=0):
    """The layer loop on row t with one effective_gain and one measure_power call per pilot.

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
                    gain = complex(w_cov[ch.bs_index[t] - 1] * v_cov[ch.ris_index[t] - 1])
                else:
                    gain = effective_gain(ch, ris_transmit(ch, v_cov, t), bs_transmit(w_cov), t)
                powers.append(measure_power(gain, snr, rng))
        winner = int(np.argmax(powers))
        if layer < n_t:
            bits_t += ((winner >> 1) ^ ((layer, "bs") in flips),)
        if layer < n_r:
            bits_r += ((winner & 1) ^ ((layer, "ris") in flips),)
    return bits_t, bits_r


def reference_run(ch, books, codes, snr, budget, rng, mode, ideal, t=0):
    """Row t through per_pilot_bits and the per-word ``decode``."""
    sizes = (codes[0].n, codes[1].n)
    sent = max(sizes) if budget is None else min(max(sizes), budget // 4)
    bits = per_pilot_bits(
        ch, lambda layer, *_: (layer_pair(books[0], layer % sizes[0]),
                               layer_pair(books[1], layer % sizes[1])),
        sizes, snr, rng, ideal, layers=sent, t=t)
    raw = [np.array(b + (0,) * (n - len(b)), dtype=np.uint8) for b, n in zip(bits, sizes)]
    bs_mode = "one_bit" if mode == "decoupled_two_bit" else mode
    (u_t, rep_t), (u_r, rep_r) = decode(codes[0], raw[0], bs_mode), decode(codes[1], raw[1], mode)
    estimate = (bits_to_int(u_t) + 1, bits_to_int(u_r) + 1)
    return estimate, raw, (rep_t, rep_r), 4 * sent, sent < max(sizes)


class ReferencePrefixBeams:
    """Adaptive hierarchical beams built per bit prefix, the prefix beams' reference.

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
            matrix = axis_sampling_matrix(n, (u_axis if side == "u" else w_axis)(n))
            rngs = [derive_rng(self.cfg.seed, "hier", side, bits) for bits in prefixes]
            masks = np.array([self.mask(side, bits) for bits in prefixes])
            beams.update(zip(prefixes, relaxed_gs_batch([(matrix, masks, rngs)], self.cfg)[0][0]))
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
    psi = np.arange(1, cover_indices.size + 1) * np.pi * (-1.0 + 1.0 / n_bs)
    w = np.zeros(n_bs, dtype=complex)
    for shift, idx in zip(np.exp(1j * psi), cover_indices):
        w += shift * ula_steering(n_bs, grid.bs_angles[idx])
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
    target = np.sqrt(n_grid / masks.sum(axis=1))[:, None]
    forward = a_scaled.conj().T
    backward = a_scaled / n_grid  # the pseudo-inverse of forward on a grid matrix
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
    [(v, trace)] = relaxed_gs_batch([(a_scaled, np.asarray(mask, dtype=bool)[None], (rng,))], cfg)
    return v[0], trace[0]


def design_ris_codeword_gs(mask, grid: AngleGrid, geometry: ArrayGeometry, cfg: GsConfig,
                           rng: Optional[np.random.Generator] = None):
    """Direct 2-D relaxed GS design of one RIS codeword for the given mask."""
    if rng is None:
        rng = derive_rng(cfg.seed, "gs", "ris", "direct")
    return relaxed_gs(ris_sampling_matrix(grid), mask, cfg, rng)


def _grid_responses(sampling: np.ndarray, scale: float = 1.0):
    """v -> |a_n^H v| over the grid, where a_n = (column n of ``sampling``) / scale."""
    adjoint = sampling.conj().T
    return lambda v: np.abs(adjoint @ v) / scale


def _margin(responses: np.ndarray, mask: np.ndarray) -> tuple[float, float]:
    """(min in-cover, max out-of-cover) of one codeword's grid responses.

    inf when the mask covers no point, 0.0 when it covers every point.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != responses.shape:
        raise ValueError("mask length does not match the grid")
    min_in = float(responses[mask].min()) if mask.any() else float("inf")
    max_out = float(responses[~mask].max()) if (~mask).any() else 0.0
    return min_in, max_out


def classification_margin(v: np.ndarray, mask: np.ndarray, grid: AngleGrid,
                          geometry: ArrayGeometry, side: str) -> tuple[float, float]:
    """(min in-coverage, max out-of-coverage) of |a_n^H v| over the grid of a side.

    Unit-norm steering vectors of the BS ("bs") or the RIS ("ris").
    """
    if side == "bs":
        responses = _grid_responses(grid.bs_steering)
    else:
        responses = _grid_responses(ris_sampling_matrix(grid), np.sqrt(geometry.n_ris))
    return _margin(responses(v), mask)


def result_row(tag: str, sweep_name: str, value: float, hits: np.ndarray,
               rates: np.ndarray, pilots: int) -> ResultRow:
    """One cell's row from its trials' hits and rates, one statistic at a time."""
    trials = hits.size
    p_hat = int(hits.sum()) / trials
    success_ci = 1.96 * np.sqrt(p_hat * (1.0 - p_hat) / trials)
    # equal rates give exactly 0, not the rounding noise of their mean
    rate_ci = 1.96 * rates.std(ddof=1) / np.sqrt(trials) if np.ptp(rates) > 0 else 0.0
    return ResultRow(
        protocol=tag,
        sweep_variable=sweep_name,
        sweep_value=value,
        trials=trials,
        pilots=int(pilots),
        success_rate=float(p_hat),
        success_ci95=float(success_ci),
        mean_rate=float(rates.mean()),
        rate_ci95=float(rate_ci),
    )


@dataclass(frozen=True)
class TrialRecord:
    """One trial of the trial log, a field per column."""
    protocol: str
    sweep_value: float
    trial: int
    success: bool
    rate: float


def trial_records(keys, hits: np.ndarray, rates: np.ndarray) -> tuple[TrialRecord, ...]:
    """The trial log as one TrialRecord per trial, from point-major (tag, value) cell
    keys and (P, S, T) hits and rates."""
    trials = hits.shape[-1]
    by_cell = (a.swapaxes(0, 1).reshape(len(keys), trials).tolist() for a in (hits, rates))
    return tuple(TrialRecord(tag, value, trial, hit, rate)
                 for (tag, value), cell_hits, cell_rates in zip(keys, *by_cell)
                 for trial, (hit, rate) in enumerate(zip(cell_hits, cell_rates)))


def _csv_cells(records, columns):
    """Each record's fields: floats to 10 significant digits, bools as 0 or 1 (numpy's too)."""
    for values in map(attrgetter(*columns), records):
        yield [format(v, ".10g") if isinstance(v, float)
               else int(v) if isinstance(v, (bool, np.bool_)) else v for v in values]


def export_trial_records(records, path) -> None:
    """Write TrialRecords through ``csv.writer``, a record at a time: the oracle of
    ``experiments.export_trial_log``."""
    with Path(path).open("w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        columns = [f.name for f in fields(TrialRecord)]
        writer.writerow(columns)
        writer.writerows(_csv_cells(records, columns))


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


# -- one cover at a time: the codebook oracle -------------------------------------


def factor_pattern_mask(mask: np.ndarray, n1: int, n2: int):
    """Split one 2-D mask that varies along a single dimension into axis masks.

    Returns (u_mask, w_mask) with the non-varying factor all ones. Raises if
    the mask does not factor this way.
    """
    m = np.asarray(mask, dtype=bool).reshape(n1, n2)
    if np.array_equal(m, np.outer(m[:, 0], np.ones(n2, dtype=bool))):
        return m[:, 0].copy(), np.ones(n2, dtype=bool)
    if np.array_equal(m, np.outer(np.ones(n1, dtype=bool), m[0, :])):
        return np.ones(n1, dtype=bool), m[0, :].copy()
    raise ValueError("mask does not factor across the RIS dimensions")


def design_factorized(covers, geometry: ArrayGeometry, cfg: GsConfig):
    """Kronecker synthesis of each (layer, polarity, mask) cover, one cover at a time.

    A full-coverage factor is the flat codeword; the varying factors of each
    axis run as one ``relaxed_gs_loop``. Returns (codeword, traces) per cover.
    """
    sizes = (geometry.n_ris_rows, geometry.n_ris_cols)
    factors = [factor_pattern_mask(m, *sizes) for *_, m in covers]
    designed = []
    for a, (name, n, freqs) in enumerate(zip("uw", sizes, (u_axis, w_axis))):
        varying = [(i, pol, f[a]) for (i, pol, _), f in zip(covers, factors) if not f[a].all()]
        if varying:
            matrix = axis_sampling_matrix(n, freqs(n))
            rngs = [derive_rng(cfg.seed, "gs", "ris", i, pol, name) for i, pol, _ in varying]
            designed += zip(*relaxed_gs_loop(matrix, np.array([m for *_, m in varying]), cfg,
                                             rngs))
    designed = iter(designed)
    per_axis = [[(flat_codeword(n), None) if f[a].all() else next(designed) for f in factors]
                for a, n in enumerate(sizes)]
    return [(np.kron(v_u, v_w), tuple(t for t in (t_u, t_w) if t is not None))
            for (v_u, t_u), (v_w, t_w) in zip(*per_axis)]


def designed_codebook(side: str, designs, masks: np.ndarray) -> DesignedCodebook:
    """The codebook of (codeword, traces) designs in column order."""
    return DesignedCodebook(side, np.column_stack([v for v, _ in designs]), masks,
                            [traces for _, traces in designs])


def codebook_margins(book: DesignedCodebook, grid: AngleGrid,
                     geometry: ArrayGeometry) -> list[tuple[float, float]]:
    """``classification_margin`` of each column of ``book`` against its cover, in column order."""
    return [classification_margin(book.matrix[:, c].copy(), cover, grid, geometry, book.side)
            for c, cover in enumerate(_column_covers(book.masks))]


def build_codebooks(code_t: BlockCode, code_r: BlockCode, grid: AngleGrid,
                    geometry: ArrayGeometry, cfg: GsConfig, direct_2d: bool = False):
    """The BS and RIS codebooks designed one cover at a time."""
    masks_t = beam_pattern_matrix(code_t, geometry.n_bs)
    masks_r = beam_pattern_matrix(code_r, geometry.n_ris)
    ris_sampling = ris_sampling_matrix(grid)
    bs_designs = [(design_bs_codeword(np.flatnonzero(m), grid, geometry), ())
                  for m in _column_covers(masks_t)]
    ris_covers = [(c // 2, ("zero", "one")[c % 2], cover)
                  for c, cover in enumerate(_column_covers(masks_r))]
    if code_r.split is not None and not direct_2d:
        ris_designs = design_factorized(ris_covers, geometry, cfg)
    else:
        rngs = [derive_rng(cfg.seed, "gs", "ris", i, pol, "2d") for i, pol, _ in ris_covers]
        vs, traces = relaxed_gs_loop(ris_sampling, np.array([m for *_, m in ris_covers]), cfg,
                                     rngs)
        ris_designs = [(v, (t,)) for v, t in zip(vs, traces)]
    return (designed_codebook("bs", bs_designs, masks_t),
            designed_codebook("ris", ris_designs, masks_r))

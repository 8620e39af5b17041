"""The beam-training protocols: exhaustive, layered and adaptive.

Every protocol is a block runner, ``runner(block, ..., snr, budget, rngs) ->
TrainingRuns``: trial t runs on row t of a ``channel.ChannelBlock`` with
noise from ``rngs[t]``. Each sends beam tuples, measures one noisy power per
tuple in transmit order, and maps argmax decisions to angle-index estimates.
A tuple's gain is the product of a BS and a RIS response (``beam_responses``).
A layered protocol sends one (BS, RIS) beam pair per layer as 4 tuples and
reads one decision per side: ``run_layered`` runs coded training (with
identity codes and decode mode "none", full-coverage hierarchical training),
deciding every layer of every trial in one argmax. ``run_adaptive`` runs
adaptive hierarchical training: its layers run in turn, since each layer's
beams depend on the decisions so far, and each layer gathers every trial's
beam pair from the prefix-beam matrices of ``HierarchicalBeamProvider``.
Both finish the same way: the decisions become raw bits, ``decode_words``
decodes the block (the adaptive runner with identity codes in mode "none"),
and the information bits become the estimates. ``tests/reference.py`` holds
the per-pilot reference the runners are tested against.

Designed codewords are stored in coverage convention and conjugated at
transmit time; RIS codewords additionally de-rotate the known static RIS-BS
steering phases so the training depends only on the UE-side angle.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from itertools import product
from typing import Optional

import numpy as np

from .arrays import AngleGrid, ArrayGeometry, u_axis, w_axis
from .blockcode import (
    DECODE_MODES,
    BlockCode,
    bits_to_int,
    build_identity_code,
    build_plain_code,
    build_reduced_code,
    decode_words,
    rows_to_ints,
)
from .channel import ChannelBlock, SnrSpec, pilot_noise, received_power
from .codebook import (
    DesignedCodebook,
    GsConfig,
    axis_sampling_matrix,
    bs_steering_matrix,
    design_bs_codewords,
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
        object.__setattr__(self, "pilot_budget", check_budget(self.kind, self.pilot_budget))

    @property
    def tag(self) -> str:
        if self.kind == "coded":
            return f"coded_{self.decode_mode}"
        if self.kind == "hierarchical" and self.hierarchical_variant != "full_coverage":
            return f"hierarchical_{self.hierarchical_variant}"
        return self.kind


def ceil_log2(n: int) -> int:
    if n < 1:
        raise ValueError("n must be positive")
    return (n - 1).bit_length() if n > 1 else 0


def check_budget(kind: str, budget) -> Optional[int]:
    """A pilot budget as an int, or None (unlimited) for None.

    Rejects a value that is not a whole number, bools included, and a budget
    below one tuple (exhaustive) or one 4-tuple layer (layered).
    """
    if budget is None:
        return None
    whole = isinstance(budget, numbers.Integral) or (
        isinstance(budget, numbers.Real) and float(budget).is_integer())
    if isinstance(budget, bool) or not whole:
        raise ValueError(f"a pilot budget must be a whole number, got {budget!r}")
    least = 1 if kind == "exhaustive" else 4
    if budget < least:
        raise ValueError(f"{kind} training needs a pilot budget of at least {least}, "
                         f"got {budget}")
    return int(budget)


def _check_constant_modulus(v_tx: np.ndarray, n_ris: int) -> None:
    """``np.allclose(abs(v_tx), 1/sqrt(n_ris), atol=1e-9)``, written out for speed."""
    target = 1.0 / np.sqrt(n_ris)
    if not np.all(np.abs(np.abs(v_tx) - target) <= 1e-9 + 1e-5 * target):
        raise ValueError("RIS vector must have constant modulus 1/sqrt(n_ris)")


def beam_responses(block: ChannelBlock, bs_cov: np.ndarray, ris_cov: np.ndarray,
                   ideal: bool = False, *, check_modulus: bool = False
                   ) -> tuple[np.ndarray, np.ndarray]:
    """The (BS, RIS) responses of a block to codeword columns, (trials, columns) each.

    Trial t's gain for BS column i and RIS column j is ``bs[t, i] * ris[t, j]``
    (see ``ChannelBlock``). A codeword matrix is shared, (n, columns), or one
    per trial, (trials, n, columns). Stacked matrix-vector products keep a
    trial's responses independent of the block. Ideal (mask-valued) codewords
    read the true-index rows; otherwise ``check_modulus`` tests every
    transmitted RIS vector as ``effective_gain`` in ``tests/reference.py`` does.
    """
    if ideal:
        return _true_rows(bs_cov, block.bs_index), _true_rows(ris_cov, block.ris_index)
    if check_modulus:
        _check_constant_modulus(np.conj(ris_cov) * block.comp[:, :, None], block.n_ris)
    return ((block.beta[:, None, :] @ np.conj(bs_cov))[:, 0, :],
            (block.h_r[:, None, :] @ np.conj(ris_cov))[:, 0, :])


def _true_rows(cov: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Row ``index[t] - 1`` of trial t's codeword matrix; a 2-D matrix is shared."""
    return np.broadcast_to(cov, (len(index), *cov.shape[-2:]))[np.arange(len(index)), index - 1]


def _clamp_index(value, n: int):
    return np.minimum(np.maximum(value, 1), n)


def _layer_count(sizes, budget: Optional[int]) -> tuple[int, int]:
    """(layers sent, layers needed); a budget short of 4 pilots per layer truncates."""
    n_layers = max(sizes)
    if n_layers == 0:
        raise ValueError("nothing to train: both arrays have a single candidate")
    budget = check_budget("layered", budget)
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
class TrainingRuns:
    """One protocol on a block of trials; arrays run over the trials.

    ``decoded`` holds each side's (corrected, uncorrectable, flipped) arrays
    from ``decode_words`` for every layered protocol; identity codes in mode
    "none" give all-clean arrays. Exhaustive training does not decode: its
    ``decoded`` is empty and it has no raw bits. Every trial sends the same
    number of pilots, so the pilot count and the truncation flag are shared.
    """

    est_bs_index: np.ndarray
    est_ris_index: np.ndarray
    raw_bits_bs: np.ndarray  # (trials, n_t)
    raw_bits_ris: np.ndarray  # (trials, n_r)
    decoded: tuple
    pilots_used: int
    truncated: bool


def run_layered(
    block: ChannelBlock,
    books: tuple[DesignedCodebook, DesignedCodebook],
    codes: tuple[BlockCode, BlockCode],
    snr: SnrSpec,
    budget: Optional[int],
    rngs,
    decode_mode: str = "one_bit",
    *,
    ideal: bool = False,
    inject_flips=(),
) -> TrainingRuns:
    """Layered beam training of a block: trial t on row t, noise from ``rngs[t]``.

    Layer l sends the 4 tuples of BS layer l mod n_t and RIS layer l mod n_r
    in the order (0,0), (0,1), (1,0), (1,1) (BS bit, RIS bit; bit 1 is the
    mask=1 codeword); ties break toward the first and each side keeps its
    first n decisions. A budget short of 4*max(n_t, n_r) truncates every
    trial and zero-fills the missing bits. ``inject_flips`` lists (layer,
    "bs" | "ris") decisions to invert. Gains come from the block's responses
    to the codebook matrices and each trial's noise from one ``pilot_noise``
    draw; powers, decisions and decoding run once for the block. The BS side
    decodes with at most one-bit correction; the decoupled two-bit mode
    applies to the RIS side. Identity codes with decode mode "none" give
    full-coverage hierarchical training.
    """
    code_t, code_r = codes
    if min(code_t.n, code_r.n) == 0:
        raise ValueError("layered training needs more than one candidate on each side")
    sent, needed = _layer_count((code_t.n, code_r.n), budget)
    layers = np.arange(sent)[:, None]
    rows = (2 * (layers % code_t.n) + (0, 1))[:, :, None]
    cols = (2 * (layers % code_r.n) + (0, 1))[:, None, :]
    bs, ris = beam_responses(block, books[0].matrix, books[1].matrix, ideal,
                             check_modulus=True)
    noise = np.stack([pilot_noise(snr, rng, (sent, 2, 2)) for rng in rngs])
    powers = received_power(bs[:, rows] * ris[:, cols], snr, noise)
    winners = powers.reshape(len(rngs), sent, 4).argmax(axis=-1)

    return _decode_layers(block, winners, codes, decode_mode, inject_flips, needed)


def _decode_layers(block, winners: np.ndarray, codes: tuple[BlockCode, BlockCode],
                   decode_mode: str, inject_flips, needed: int) -> TrainingRuns:
    """The finish of a layered protocol: winning tuples to raw bits, decoded to estimates.

    ``winners`` holds the (trials, layers sent) winning tuples; ``needed`` is
    the number of layers an untruncated run sends.
    """
    code_t, code_r = codes
    raw_t = _side_bits(winners, code_t.n, "bs", inject_flips)
    raw_r = _side_bits(winners, code_r.n, "ris", inject_flips)
    bs_mode = "one_bit" if decode_mode == "decoupled_two_bit" else decode_mode
    info_t, *decoded_t = decode_words(code_t, raw_t, bs_mode)
    info_r, *decoded_r = decode_words(code_r, raw_r, decode_mode)
    return TrainingRuns(
        est_bs_index=_clamp_index(rows_to_ints(info_t) + 1, block.n_bs),
        est_ris_index=_clamp_index(rows_to_ints(info_r) + 1, block.n_ris),
        raw_bits_bs=raw_t,
        raw_bits_ris=raw_r,
        decoded=(tuple(decoded_t), tuple(decoded_r)),
        pilots_used=4 * winners.shape[1],
        truncated=winners.shape[1] < needed,
    )


class HierarchicalBeamProvider:
    """Designs the prefix beams of adaptive hierarchical training.

    A prefix beam covers the indices whose leading bits equal a decided bit
    prefix. The first ``prefix_matrices`` call designs every prefix beam of
    each side once, as a coverage-convention matrix: column
    ``2**L - 1 + value`` holds the beam of the prefix of length L (0 to the
    side's bit count) that reads as the integer ``value``. Each RIS axis (u
    and w) designs its nonempty prefixes in one GS batch, BS beams come from
    ``design_bs_codewords``, and ideal beams are the coverage masks. A RIS
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
        # the decisions are the index bits: identity codes, decoded in mode "none"
        self.codes = (build_identity_code(self.k_bs),
                      build_identity_code(self.k_u, self.k_ris - self.k_u))
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
            steering = bs_steering_matrix(self.geometry, self.grid)
            return design_bs_codewords([np.flatnonzero(mask) for mask in masks], steering).T
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
    block: ChannelBlock,
    provider: HierarchicalBeamProvider,
    snr: SnrSpec,
    budget: Optional[int],
    rngs,
    *,
    inject_flips=(),
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
    once. There is no error correction: the raw bits decode with identity
    codes in mode "none", so ``decoded`` is all clean. A budget short of 4
    pilots per layer truncates every trial and zero-fills the missing bits.
    ``inject_flips`` lists (layer, "bs" | "ris") decisions to invert; later
    layers follow the inverted decision.
    """
    sizes = (provider.k_bs, provider.k_ris)
    sent, needed = _layer_count(sizes, budget)
    matrices = provider.prefix_matrices()
    noise = np.stack([pilot_noise(snr, rng, (sent, 2, 2)) for rng in rngs])
    winners = np.zeros((len(rngs), sent), dtype=np.intp)
    for layer in range(sent):
        pairs = [_prefix_pairs(cov, winners[:, :layer], k, side, inject_flips)
                 for cov, k, side in zip(matrices, sizes, ("bs", "ris"))]
        bs, ris = beam_responses(block, *pairs, provider.ideal, check_modulus=True)
        powers = received_power(bs[:, :, None] * ris[:, None, :], snr, noise[:, layer])
        winners[:, layer] = powers.reshape(len(rngs), 4).argmax(axis=-1)

    return _decode_layers(block, winners, provider.codes, "none", inject_flips, needed)


def narrow_beam_matrices(grid: AngleGrid, geometry: ArrayGeometry
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Coverage-convention narrow-beam codebooks: (BS n_bs x n_bs, RIS n_ris x n_ris).

    Column i is the steering vector of grid point i, byte-equal to the
    per-grid-point ``ula_steering`` and ``upa_steering_uw`` beams.
    """
    return bs_steering_matrix(geometry, grid), ris_steering_matrix(geometry, grid)


def run_exhaustive(
    block: ChannelBlock,
    narrow_beams: tuple[np.ndarray, np.ndarray],
    snr: SnrSpec,
    budget: Optional[int],
    rngs,
) -> TrainingRuns:
    """Exhaustive training of a block: trial t on row t, noise from ``rngs[t]``.

    Each trial sweeps the tuples of the narrow beams (``narrow_beam_matrices``)
    in BS-major order and picks the power argmax. With a budget below
    n_bs * n_ris only the first tuples are measured; ties break toward the
    lowest tuple index. Each trial's n_bs x n_ris table is formed from the
    block's responses on its own, to bound memory; its noise is one draw.
    """
    total = block.n_bs * block.n_ris
    budget = check_budget("exhaustive", budget)
    count = total if budget is None else min(budget, total)
    winners = np.array([
        np.argmax(received_power(np.outer(bs, ris).ravel()[:count], snr,
                                 pilot_noise(snr, rng, (count,))))
        for bs, ris, rng in zip(*beam_responses(block, *narrow_beams), rngs)],
        dtype=np.intp)  # BS-major tuple order
    no_bits = np.empty((len(rngs), 0), dtype=np.uint8)
    return TrainingRuns(
        est_bs_index=winners // block.n_ris + 1,
        est_ris_index=winners % block.n_ris + 1,
        raw_bits_bs=no_bits,
        raw_bits_ris=no_bits,
        decoded=(),
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


def tuple_rates(
    block: ChannelBlock,
    t: int,
    narrow_beams: tuple[np.ndarray, np.ndarray],
    tuples,
    snr_eval: SnrSpec,
) -> list[float]:
    """Spectral efficiency log2(1 + snr * |g|^2) on trial t of each (BS, RIS) grid tuple.

    The beams are columns of ``narrow_beam_matrices``. The constant-modulus
    check runs once over all of them, and the gains are stacked
    matrix-vector products through row t's RIS-BS matrix, which round like
    the one-tuple ``h_r diag(v) g_mat w`` of ``achievable_rate`` in
    ``tests/reference.py``. |g|^2 and log2 stay scalar per tuple: their
    vectorized forms round differently.
    """
    bs_cov, ris_cov = narrow_beams
    bs_index, ris_index = np.array(tuples, dtype=np.intp).T - 1
    v = np.conj(ris_cov.T[ris_index]) * block.comp[t]
    w = np.conj(bs_cov.T[bs_index])
    _check_constant_modulus(v, block.n_ris)
    through_ris = ((block.h_r[t] * v)[:, None, :] @ block.g_mats[t])[:, 0, :]
    gains = (through_ris[:, None, :] @ w[:, :, None])[:, 0, 0]
    return [float(np.log2(1.0 + snr_eval.snr_linear * abs(complex(g)) ** 2))
            for g in gains]

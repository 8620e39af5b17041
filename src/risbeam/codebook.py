"""Beam-pattern matrices and codeword synthesis for BS and RIS codebooks.

BS codewords are unconstrained unit-norm multi-mainlobe sums and are exact on
the candidate grid. RIS codewords obey the constant-modulus constraint and are
designed by a relaxed Gerchberg-Saxton iteration that only re-assigns
amplitudes at grid points failing the in/out classification thresholds; all
RIS designs of one call on matrices of one shape run in one loop. Around it a
codebook is built in whole-array steps: one factoring of the mask stack, one
broadcast Kronecker product and the BS codewords batched by cover size. A
codebook holds what training sends; ``grid_margins`` measures its columns on
the grid only when asked.

A designed codebook is one matrix per side: column 2l + b is layer l's
codeword for mask bit b, so column 2l + 1 covers the grid points where layer
l's mask is 1 and column 2l the rest. Codewords are stored in coverage
convention: the response of codeword v at grid point n is |a_n^H v| with a_n
the steering vector there. The training layer only conjugates them before
transmission; the RIS-BS de-rotation is in the channel (``ChannelBlock.beta``).
The prefix beams of adaptive hierarchical training are designed here too,
with the same designers: one matrix per side, one column per bit prefix.
``design_beams`` designs both for a sweep with one GS call, and
``build_codebooks`` is that call for the codebooks alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, product
from typing import Optional

import numpy as np

from .arrays import (SPACING, AngleGrid, ArrayGeometry, ceil_log2, check_powers_of_two,
                     real_number, u_axis, w_axis, whole_number)
from .blockcode import BlockCode, bits_to_int, encode, int_to_bits
from .seeding import derive_rng

GRAM_TOLERANCE = 1e-9  # a GS matrix A may miss A A^H = n I by this times n, entrywise


@dataclass(frozen=True)
class GsConfig:
    """Parameters of the relaxed GS designer.

    Each mask targets its energy-consistent level sqrt(grid size / covered
    count); a half-space mask targets sqrt(2).
    """

    delta: float = 0.3
    k_iter: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("k_iter", "seed"):
            object.__setattr__(self, name, whole_number(getattr(self, name), name))
        if not 0.0 <= real_number(self.delta, "delta") <= 0.5:
            raise ValueError("delta must lie in [0, 0.5]")
        if self.k_iter < 1:
            raise ValueError("k_iter must be at least 1")


@dataclass(frozen=True)
class DesignedCodebook:
    """A side's codewords as the columns of one C-contiguous (n, 2 * layers) matrix.

    Column 2l + b is layer l's codeword for mask bit b of ``masks[l]``, and
    ``traces[c]`` holds column c's GS traces, one per GS run feeding it (none
    for a closed-form or mask-valued codeword).
    """

    side: str
    matrix: np.ndarray
    masks: np.ndarray  # the pattern rows the layers were designed for
    traces: list[tuple[np.ndarray, ...]]

    @property
    def n_layers(self) -> int:
        return len(self.masks)

    def first_layers(self, k: int) -> "DesignedCodebook":
        """The systematic layers of an [I|Q] codebook: the identity code's codebook."""
        return DesignedCodebook(self.side, self.matrix[:, :2 * k].copy(), self.masks[:k],
                                self.traces[:2 * k])


def beam_pattern_matrix(code: BlockCode, n_grid: int) -> np.ndarray:
    """The (layers, n_grid) uint8 masks: column j is the codeword of grid index j."""
    if n_grid != 2**code.k:
        raise ValueError(f"the {2**code.k} words of a {code.k}-bit code need as many grid "
                         f"points, got {n_grid}")
    return encode(code, int_to_bits(np.arange(n_grid), code.k)).T


def _column_covers(masks: np.ndarray) -> np.ndarray:
    """The cover of each codebook column as a row: masks[l]'s complement, then masks[l]."""
    masks = np.asarray(masks, dtype=bool)
    return np.stack((~masks, masks), axis=1).reshape(-1, masks.shape[1])


def axis_sampling_matrix(n: int, freqs: np.ndarray) -> np.ndarray:
    """1-D sampling matrix with unit-modulus entries; column per grid frequency.

    On this scale a matched narrow beam reads amplitude sqrt(n) and a flat
    full-coverage beam reads 1.
    """
    idx = np.arange(n) - (n - 1) / 2.0
    return np.exp(-2j * np.pi * SPACING * np.outer(idx, freqs))


def ris_sampling_matrix(grid: AngleGrid) -> np.ndarray:
    """2-D sampling matrix (unit-modulus entries): sqrt(n_ris) times the grid's steering."""
    return grid.ris_steering * np.sqrt(grid.n_ris)


def flat_codeword(n: int) -> np.ndarray:
    """Constant-modulus codeword with exactly flat response on the n-point grid.

    Quadratic-phase sequence; the linear term absorbs the half-integer grid
    offset so the response magnitude is 1 at every grid point.
    """
    m = np.arange(n)
    if n % 2 == 0:
        phase = np.pi * m * (m + n - 1) / n
    else:
        phase = np.pi * m * (m + 1) / n
    return np.exp(1j * phase) / np.sqrt(n)


def _stacked_matvec(mat: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """mat (or mat[b]) @ row b for every row b as a matrix-vector product (a 2-D matmul is not)."""
    return (mat @ rows[..., None])[..., 0]


def _row_stack(mats, counts) -> np.ndarray:
    """counts[i] rows of mats[i]: a stride-0 view of a lone matrix, else one C-ordered copy."""
    if len(mats) == 1:
        return np.broadcast_to(mats[0], (counts[0], *mats[0].shape))
    return np.repeat(np.stack(mats), counts, axis=0)


def _gs_group(a_scaled: np.ndarray, masks, rngs, cfg: GsConfig):
    """Check one group; return its masks and starting phases."""
    n_el, n_grid = a_scaled.shape
    masks = np.asarray(masks, dtype=bool)
    if masks.ndim != 2 or masks.shape[1] != n_grid:
        raise ValueError("mask length does not match the grid")
    if len(rngs) != masks.shape[0]:
        raise ValueError("need one generator per mask")
    covered = masks.sum(axis=1)
    if not covered.all():
        raise ValueError("coverage mask is empty")
    if (covered == n_grid).any():
        raise ValueError("coverage mask covers the whole grid")
    gram = a_scaled @ a_scaled.conj().T
    if np.abs(gram - n_grid * np.eye(n_el)).max() > GRAM_TOLERANCE * n_grid:
        raise ValueError(f"a_scaled @ a_scaled^H is not {n_grid} I: not a grid sampling matrix")
    return masks, np.array([rng.random(n_grid) for rng in rngs]).reshape(masks.shape)


def relaxed_gs_batch(groups, cfg: GsConfig) -> list[tuple[np.ndarray, np.ndarray]]:
    """Relaxed GS iteration for a list of (a_scaled, masks, rngs) groups.

    a_scaled maps a codeword to grid amplitudes (columns are scaled steering
    vectors with unit-modulus entries) and, as every grid sampling matrix, has
    a_scaled @ a_scaled^H = n_grid I (else a ValueError): a_scaled / n_grid is
    the backward map. Grid points already classified correctly, in-coverage
    amplitude at least P*(1-delta) or out-of-coverage at most P*delta, keep
    their current value; the rest are re-assigned to the threshold amplitude
    with preserved phase. Row b of a group's (B, n_grid) masks is designed on
    its a_scaled with generator rngs[b] alone, exactly as a one-row call; all
    rows on matrices of one shape run in one loop. Returns per group the
    (B, n_el) constant-modulus codewords and the (B, k_iter) traces
    ||s_k - s_{k-1}||_2 (the first compares the first realized beam with the
    intended one), taken from the stored steps.
    """
    by_shape: dict[tuple, list[int]] = {}
    for g, (a_scaled, *_) in enumerate(groups):
        by_shape.setdefault(a_scaled.shape, []).append(g)
    results = {}
    for (n_el, n_grid), members in by_shape.items():
        masks, phases = zip(*(_gs_group(*groups[g], cfg) for g in members))
        counts = [len(m) for m in masks]
        masks, phases = np.concatenate(masks), np.concatenate(phases)
        # row b's forward map has the layout of a_scaled.conj().T: another rounds differently
        forward = _row_stack([groups[g][0].conj() for g in members], counts).swapaxes(1, 2)
        backward = _row_stack([groups[g][0] / n_grid for g in members], counts)
        target = np.sqrt(n_grid / masks.sum(axis=1))[:, None]
        modulus = 1.0 / np.sqrt(n_el)
        s_prev = np.where(masks, target, 0.0) * np.exp(2j * np.pi * phases)
        v = modulus * np.exp(1j * _phase(_stacked_matvec(backward, s_prev)))
        # threshold P*(1-delta) inside the coverage and P*delta outside; a point is
        # satisfied when sign*|s| >= sign*threshold (exact: negation is exact)
        thresholds = np.where(masks, target * (1.0 - cfg.delta), target * cfg.delta)
        sign = np.where(masks, 1.0, -1.0)
        signed_thresholds = sign * thresholds
        steps = np.empty((cfg.k_iter, *masks.shape), dtype=complex)  # s_k - s_{k-1}
        for k in range(cfg.k_iter if len(masks) else 0):  # groups without rows skip the loop
            s_k = _stacked_matvec(forward, v)
            np.subtract(s_k, s_prev, out=steps[k])
            failed = ~(np.abs(s_k) * sign >= signed_thresholds)
            s_hat = s_k.copy()  # only the failing points need a phase and a re-assignment
            s_hat[failed] = thresholds[failed] * np.exp(1j * _phase(s_k[failed]))
            v = modulus * np.exp(1j * _phase(_stacked_matvec(backward, s_hat)))
            s_prev = s_k
        bounds = np.cumsum(counts)[:-1]
        traces = np.split(np.ascontiguousarray(norms(steps).T), bounds)
        results.update(zip(members, zip(np.split(v, bounds), traces)))
    return [results[g] for g in range(len(groups))]


# OpenBLAS splits a dot product of over 10,000 entries across its threads,
# which changes the rounding; no slice of this length is split.
_NORM_SLICE = 8192


def norms(rows: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of each complex row (last axis), at any BLAS thread count.

    Each part's squared norm, real before imaginary, sums its 8,192-entry
    slices' stacked dot products in order from 0: one dot product up to 8,192
    entries, as ``np.linalg.norm`` takes, and two threads' split at 16,384.
    """
    squares = [0.0, 0.0]
    for i, part in enumerate((rows.real, rows.imag)):
        for start in range(0, part.shape[-1], _NORM_SLICE):
            piece = part[..., start:start + _NORM_SLICE]
            squares[i] = squares[i] + (piece[..., None, :] @ piece[..., None])[..., 0, 0]
    return np.sqrt(squares[0] + squares[1])


def _phase(x: np.ndarray) -> np.ndarray:
    """``np.angle(x)`` without its Python-level dispatch: the same arctan2."""
    return np.arctan2(x.imag, x.real)


def design_bs_codewords(covers, steering: np.ndarray) -> np.ndarray:
    """Multi-mainlobe BS codewords, row c covering the grid indices ``covers[c]`` (0-based).

    ``steering`` holds one unit-norm steering vector per grid index as its
    columns (the grid's ``bs_steering``). Each codeword is the weighted sum
    of the columns it covers, with the phase schedule psi_i = i*pi*(1/n_bs -
    1) over the 1-based position i in its covered list, normalized to unit
    norm. Covers of one size are summed together, term by term in list
    order (``add.accumulate`` keeps the order, ``add.reduce`` may not), and
    normalized by the dot products ``np.linalg.norm`` sums (``norms``): both
    keep every byte of the one-term-at-a-time loop.
    """
    covers = [np.asarray(c, dtype=int) for c in covers]
    if any(c.size == 0 for c in covers):
        raise ValueError("cover set is empty")
    n_bs = steering.shape[0]
    by_size: dict[int, list[int]] = {}
    for row, cover in enumerate(covers):
        by_size.setdefault(cover.size, []).append(row)
    codewords = np.empty((len(covers), n_bs), dtype=complex)
    for size, rows in by_size.items():
        psi = np.arange(1, size + 1) * np.pi * (-1.0 + 1.0 / n_bs)
        terms = np.exp(1j * psi)[None, :, None] * steering.T[[covers[r] for r in rows]]
        sums = np.add.accumulate(terms, axis=1)[:, -1]
        codewords[rows] = sums / norms(sums)[:, None]
    return codewords


def grid_margins(book: DesignedCodebook, grid: AngleGrid) -> tuple[list, list]:
    """The (min in-cover, max out-of-cover) grid responses of ``book``'s columns, as two lists.

    Both lists are in column order, and a response is |a_n^H v| in coverage
    convention. A cover with no point in reads inf, one with no point out
    0.0. The responses are one stacked matvec on a stride-0 view of the
    sampling matrix's adjoint, so each rounds as that matrix times the lone
    codeword.
    """
    if book.side == "bs":
        sampling, scale = grid.bs_steering, 1.0
    else:
        sampling, scale = ris_sampling_matrix(grid), np.sqrt(grid.n_ris)
    codewords = np.ascontiguousarray(book.matrix.T)
    adjoint = _row_stack([sampling.conj().T], [len(codewords)])
    responses = np.abs(_stacked_matvec(adjoint, codewords)) / scale
    covers = _column_covers(book.masks)
    return (np.where(covers, responses, np.inf).min(axis=1).tolist(),
            np.where(covers, 0.0, responses).max(axis=1).tolist())


def factor_pattern_mask(mask: np.ndarray, n1: int, n2: int):
    """Split flattened 2-D masks (one, or a stack) that vary along one dimension into axis masks.

    Returns (u_mask, w_mask) with the non-varying factor all ones (a constant
    mask varies along u). Raises if a mask does not factor this way.
    """
    m = np.asarray(mask, dtype=bool).reshape(*np.shape(mask)[:-1], n1, n2)
    along_u = (m == m[..., :1]).all(axis=(-2, -1))[..., None]
    if not (along_u[..., 0] | (m == m[..., :1, :]).all(axis=(-2, -1))).all():
        raise ValueError("mask does not factor across the RIS dimensions")
    return np.where(along_u, m[..., 0], True), np.where(along_u, True, m[..., 0, :])


def _design_factorized(ids, covers: np.ndarray, geometry: ArrayGeometry, cfg: GsConfig):
    """Kronecker synthesis of each cover's RIS codeword from two 1-D designs.

    A full-coverage factor is the closed-form flat codeword (exact response, no
    iteration); the varying factors of both axes are one yield of GS groups (see
    ``design_beams``). Returns the (covers, n_ris) codewords and each cover's traces.
    """
    sizes = (geometry.n_ris_rows, geometry.n_ris_cols)
    factors = factor_pattern_mask(covers, *sizes)
    varying = [~f.all(axis=1) for f in factors]
    groups = [(axis_sampling_matrix(n, freqs(n)), f[vary],
               [derive_rng(cfg.seed, "gs", "ris", *i, name) for i in compress(ids, vary)])
              for name, n, freqs, f, vary in zip("uw", sizes, (u_axis, w_axis), factors, varying)
              if vary.any()]
    designed = iter((yield groups))
    axes, traces = [], [() for _ in ids]
    for n, vary in zip(sizes, varying):
        axes.append(np.tile(flat_codeword(n), (len(ids), 1)))
        if vary.any():
            axes[-1][vary], axis_traces = next(designed)
            for c, trace in zip(np.flatnonzero(vary), axis_traces):
                traces[c] += (trace,)
    return (axes[0][:, :, None] * axes[1][:, None, :]).reshape(len(ids), -1), traces


def design_beams(geometry: ArrayGeometry, grid: AngleGrid, cfg: GsConfig,
                 codes: Optional[tuple[BlockCode, BlockCode]] = None, adaptive: bool = False,
                 *, direct_2d: bool = False, ideal: bool = False) -> tuple:
    """(``build_codebooks`` of ``codes``, prefix beams if ``adaptive``) from one GS call.

    A geometry other than the grid's is a ValueError, for designed and ideal
    beams alike. A part not asked for is None. Each part is a design: a
    generator that yields its RIS GS groups, is sent their results and
    yields its beams. A GS row does not depend on the other rows of its
    batch, and each design draws its own streams, so a part's bytes are
    those of its own call.
    """
    grid.check(geometry)
    designs = [codes and _design_codebooks(*codes, grid, geometry, cfg, direct_2d, ideal),
               adaptive and _design_prefix_beams(geometry, grid, cfg, ideal)]
    asked = [next(design) if design else [] for design in designs]
    groups = [group for design_groups in asked for group in design_groups]
    designed = iter(relaxed_gs_batch(groups, cfg) if groups else ())
    return tuple(design.send([next(designed) for _ in design_groups]) if design else None
                 for design, design_groups in zip(designs, asked))


def build_codebooks(
    code_t: BlockCode,
    code_r: BlockCode,
    grid: AngleGrid,
    geometry: ArrayGeometry,
    cfg: GsConfig,
    direct_2d: bool = False,
) -> tuple[DesignedCodebook, DesignedCodebook]:
    """Design the full BS and RIS codebooks for the given codes (``design_beams``)."""
    return design_beams(geometry, grid, cfg, (code_t, code_r), direct_2d=direct_2d)[0]


def _design_codebooks(code_t: BlockCode, code_r: BlockCode, grid: AngleGrid,
                      geometry: ArrayGeometry, cfg: GsConfig, direct_2d: bool, ideal: bool):
    """The design of the BS and RIS codebooks (ideal: mask-valued) for the given codes.

    Dimension-split RIS codes are synthesized as Kronecker products of two
    1-D designs, both axes in one yield; plain RIS codes (or direct_2d=True)
    yield one direct 2-D group. Each (layer, polarity, axis) design consumes its
    own derived random stream, so both sides design their covers in column
    order as whole arrays.
    """
    masks_t = beam_pattern_matrix(code_t, geometry.n_bs)
    masks_r = beam_pattern_matrix(code_r, geometry.n_ris)
    if ideal:
        yield []
        yield ideal_codebook(masks_t, "bs"), ideal_codebook(masks_r, "ris")
        return
    bs_covers = _column_covers(masks_t)
    bs_codewords = design_bs_codewords([np.flatnonzero(m) for m in bs_covers], grid.bs_steering)

    ris_covers = _column_covers(masks_r)
    ids = list(product(range(len(masks_r)), ("zero", "one")))  # (layer, polarity) per column
    if code_r.split is not None and not direct_2d:
        ris_codewords, ris_traces = yield from _design_factorized(ids, ris_covers, geometry, cfg)
    else:
        rngs = [derive_rng(cfg.seed, "gs", "ris", *i, "2d") for i in ids]
        [(ris_codewords, traces)] = yield [(ris_sampling_matrix(grid), ris_covers, rngs)]
        ris_traces = [(t,) for t in traces]

    yield (DesignedCodebook("bs", np.ascontiguousarray(bs_codewords.T), masks_t,
                            [()] * len(bs_covers)),
           DesignedCodebook("ris", np.ascontiguousarray(ris_codewords.T), masks_r, ris_traces))


def ideal_codebook(masks: np.ndarray, side: str) -> DesignedCodebook:
    """Mask-valued codebook for oracle runs: gains are the mask bits themselves."""
    return DesignedCodebook(side, _column_covers(masks).T.astype(float, order="C"), masks,
                            [()] * (2 * len(masks)))


def _design_prefix_beams(geometry: ArrayGeometry, grid: AngleGrid, cfg: GsConfig, ideal: bool):
    """The design of the (BS, RIS) prefix-beam matrices of adaptive hierarchical training.

    A prefix beam covers the indices whose leading bits equal a decided bit
    prefix. Each side's matrix holds every prefix beam once, in coverage
    convention: column ``2**L - 1 + value`` holds the beam of the prefix of
    length L (0 to the side's bit count) that reads as the integer ``value``.
    The nonempty prefixes of both RIS axes (u and w) run in one GS call
    (``design_beams``), BS beams come from ``design_bs_codewords``, and ideal
    beams are the coverage masks. A RIS prefix is the u bits followed by the
    w bits, and its beam is the Kronecker product of its two axis beams.
    Every array size must be a power of two, so that each prefix covers a
    nonempty index interval.
    """
    sizes = (geometry.n_bs, geometry.n_ris_rows, geometry.n_ris_cols)
    check_powers_of_two(sizes, "adaptive hierarchical training halves every index interval")
    masks = [np.array([np.arange(n) >> (ceil_log2(n) - len(bits)) == bits_to_int(bits)
                       for bits in _prefixes(ceil_log2(n))]) for n in sizes]
    if ideal:
        bs, u, w = [m.T.astype(float) for m in masks]
        yield []
    else:
        groups = [(axis_sampling_matrix(n, freqs(n)), m[1:],
                   [derive_rng(cfg.seed, "hier", side, bits)
                    for bits in _prefixes(ceil_log2(n))[1:]])
                  for side, freqs, n, m in zip("uw", (u_axis, w_axis), sizes[1:], masks[1:])]
        bs = design_bs_codewords([np.flatnonzero(m) for m in masks[0]], grid.bs_steering).T
        u, w = [np.column_stack([flat_codeword(n), *vs])
                for n, (vs, _) in zip(sizes[1:], (yield groups))]
    k_u = ceil_log2(geometry.n_ris_rows)
    prefixes = _prefixes(k_u + ceil_log2(geometry.n_ris_cols))
    u_rows = u.T[[_column(bits[:k_u]) for bits in prefixes]]
    w_rows = w.T[[_column(bits[k_u:]) for bits in prefixes]]
    yield bs, (u_rows[:, :, None] * w_rows[:, None, :]).reshape(len(prefixes), -1).T


def _prefixes(k: int) -> list[tuple]:
    """Every bit prefix of length 0 to k in column order: by length, then by value."""
    return [bits for length in range(k + 1) for bits in product((0, 1), repeat=length)]


def _column(prefix: tuple) -> int:
    """The prefix-matrix column of a bit prefix."""
    return 2 ** len(prefix) - 1 + bits_to_int(prefix)

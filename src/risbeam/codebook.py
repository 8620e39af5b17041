"""Beam-pattern matrices and codeword synthesis for BS and RIS codebooks.

BS codewords are unconstrained unit-norm multi-mainlobe sums and are exact on
the candidate grid. RIS codewords obey the constant-modulus constraint and are
designed by a relaxed Gerchberg-Saxton iteration that only re-assigns
amplitudes at grid points failing the in/out classification thresholds. All
designs on one sampling matrix run as one batch, one row per coverage mask.

Codewords are stored in coverage convention: the response of codeword v at
grid point n is |a_n^H v| with a_n the steering vector there. The training
layer conjugates (and de-rotates, for the RIS) before transmission.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .arrays import AngleGrid, ArrayGeometry, u_axis, ula_factor, ula_steering, w_axis
from .blockcode import BlockCode, encode, int_to_bits
from .seeding import derive_rng

SV_CUTOFF = 1e-10  # relative singular-value cutoff for the design solves


@dataclass(frozen=True)
class GsConfig:
    """Parameters of the relaxed GS designer.

    target_amplitude None means the per-mask energy-consistent level
    sqrt(grid size / covered count); a half-space mask then targets sqrt(2).
    """

    delta: float = 0.3
    k_iter: int = 100
    target_amplitude: Optional[float] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.delta <= 0.5:
            raise ValueError("delta must lie in [0, 0.5]")
        if self.k_iter < 1:
            raise ValueError("k_iter must be at least 1")
        if self.target_amplitude is not None and self.target_amplitude <= 0:
            raise ValueError("target_amplitude must be positive")


@dataclass(frozen=True)
class BeamPatternMatrix:
    """Binary coverage masks, one row per code layer, one column per grid index."""

    rows: np.ndarray  # n x N uint8
    side: str  # "bs" | "ris"

    @property
    def n_layers(self) -> int:
        return self.rows.shape[0]

    @property
    def n_grid(self) -> int:
        return self.rows.shape[1]


@dataclass(frozen=True)
class CodewordReport:
    """Convergence traces (one per GS run feeding the codeword) and grid margins."""

    traces: tuple[np.ndarray, ...]
    min_in: float
    max_out: float


@dataclass(frozen=True)
class BeamPair:
    one: np.ndarray  # covers the mask=1 grid points
    zero: np.ndarray  # covers the complement

    @property
    def columns(self) -> np.ndarray:
        """The zero and one codewords as the two columns of a matrix."""
        return np.stack((self.zero, self.one), axis=1)


@dataclass(frozen=True)
class DesignedCodebook:
    side: str
    layers: list[BeamPair]
    reports: list[tuple[CodewordReport, CodewordReport]]
    masks: np.ndarray  # the pattern rows the layers were designed for

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    @cached_property
    def matrix(self) -> np.ndarray:
        """All codewords as columns: 2l and 2l+1 are layer l's zero and one codewords."""
        return np.concatenate([pair.columns for pair in self.layers], axis=1)

    def first_layers(self, k: int) -> "DesignedCodebook":
        """The systematic layers of an [I|Q] codebook: the identity code's codebook."""
        return DesignedCodebook(self.side, self.layers[:k], self.reports[:k], self.masks[:k])


def beam_pattern_matrix(code: BlockCode, n_grid: int, side: str = "ris") -> BeamPatternMatrix:
    """Column j holds the codeword of grid index j; row i is layer i's mask."""
    if n_grid > 2**code.k:
        raise ValueError(f"{n_grid} grid points exceed the {2**code.k} codewords")
    columns = [encode(code, int_to_bits(j, code.k)) for j in range(n_grid)]
    return BeamPatternMatrix(rows=np.array(columns, dtype=np.uint8).T, side=side)


def axis_sampling_matrix(n: int, freqs: np.ndarray,
                         spacing: float = 0.5) -> np.ndarray:
    """1-D sampling matrix with unit-modulus entries; column per grid frequency.

    On this scale a matched narrow beam reads amplitude sqrt(n) and a flat
    full-coverage beam reads 1.
    """
    idx = np.arange(n) - (n - 1) / 2.0
    return np.exp(-2j * np.pi * spacing * np.outer(idx, freqs))


def bs_steering_matrix(geometry: ArrayGeometry, grid: AngleGrid) -> np.ndarray:
    """Unit-norm BS steering vectors, column i at BS grid point i."""
    sp = geometry.spacing_over_wavelength
    return np.stack([ula_steering(geometry.n_bs, a, sp) for a in grid.bs_angles], axis=1)


def ris_steering_matrix(geometry: ArrayGeometry, grid: AngleGrid) -> np.ndarray:
    """Unit-norm RIS steering vectors, column n at grid point n.

    Bit-identical to ``upa_steering_uw`` per grid point, in one broadcast.
    """
    n1, n2 = geometry.n_ris_rows, geometry.n_ris_cols
    sp = geometry.spacing_over_wavelength
    f_u = ula_factor(n1, grid.ris_u[:, None], sp)
    f_w = ula_factor(n2, grid.ris_w[:, None], sp)
    cols = (f_u[:, :, None] * f_w[:, None, :]).reshape(-1, n1 * n2) / np.sqrt(n1 * n2)
    return np.ascontiguousarray(cols.T)


def ris_sampling_matrix(geometry: ArrayGeometry, grid: AngleGrid) -> np.ndarray:
    """2-D sampling matrix (unit-modulus entries), column n at grid point n.

    Bit-identical to sqrt(n_ris) * ``upa_steering_uw`` per grid point.
    """
    return ris_steering_matrix(geometry, grid) * np.sqrt(geometry.n_ris)


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


def _pinv_with_rank(mat: np.ndarray, rcond: float = SV_CUTOFF):
    u, s, vh = np.linalg.svd(mat, full_matrices=False)
    keep = s > rcond * s[0]
    inv = (vh[keep].conj().T / s[keep]) @ u[:, keep].conj().T
    return inv, int(keep.sum())


def _stacked_matvec(mat: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """mat @ row for every row, rounded as one matrix-vector product (a 2-D matmul is not)."""
    return (mat[None] @ rows[..., None])[..., 0]


def relaxed_gs_batch(
    a_scaled: np.ndarray,
    masks: np.ndarray,
    cfg: GsConfig,
    rngs: Sequence[np.random.Generator],
) -> tuple[np.ndarray, np.ndarray]:
    """Relaxed GS iteration on one sampling matrix for a stack of coverage masks.

    a_scaled maps a codeword to grid amplitudes (columns are scaled steering
    vectors with unit-modulus entries). Grid points already classified
    correctly, in-coverage amplitude at least P*(1-delta) or out-of-coverage
    at most P*delta, keep their current value; the rest are re-assigned to
    the threshold amplitude with preserved phase. Row b of the (B, n_grid)
    mask stack is designed with generator rngs[b] alone, exactly as a
    one-row call. Returns the (B, n_el) constant-modulus codewords and the
    (B, k_iter) traces ||s_k - s_{k-1}||_2, whose first entry compares the
    first realized beam against the intended one.
    """
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
    target = cfg.target_amplitude or np.sqrt(n_grid / covered)[:, None]

    forward = a_scaled.conj().T
    backward, rank = _pinv_with_rank(forward)
    if rank < n_grid:
        raise np.linalg.LinAlgError(
            f"sampling matrix is rank deficient ({rank} < {n_grid}) at cutoff {SV_CUTOFF}"
        )

    modulus = 1.0 / np.sqrt(n_el)
    phases = np.array([rng.random(n_grid) for rng in rngs])
    s_prev = np.where(masks, target, 0.0) * np.exp(2j * np.pi * phases)
    v = modulus * np.exp(1j * np.angle(_stacked_matvec(backward, s_prev)))
    hi = target * (1.0 - cfg.delta)
    lo = target * cfg.delta
    traces = np.empty((masks.shape[0], cfg.k_iter))
    for k in range(cfg.k_iter):
        s_k = _stacked_matvec(forward, v)
        d = s_k - s_prev  # summed as np.linalg.norm sums it: real parts, then imaginary
        sq = d.real[:, None] @ d.real[..., None] + d.imag[:, None] @ d.imag[..., None]
        traces[:, k] = np.sqrt(sq[:, 0, 0])
        amp = np.abs(s_k)
        satisfied = np.where(masks, amp >= hi, amp <= lo)
        reassigned = np.where(masks, hi, lo) * np.exp(1j * np.angle(s_k))
        s_hat = np.where(satisfied, s_k, reassigned)
        v = modulus * np.exp(1j * np.angle(_stacked_matvec(backward, s_hat)))
        s_prev = s_k
    return v, traces


def design_bs_codeword(
    cover_indices, grid: AngleGrid, geometry: ArrayGeometry
) -> np.ndarray:
    """Multi-mainlobe BS codeword covering the listed grid indices (0-based).

    Weighted sum of steering vectors with the phase schedule
    psi_i = i*pi*(1/n_bs - 1) over the 1-based position i in the covered
    list, normalized to unit norm.
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


def _grid_responses(geometry: ArrayGeometry, bs_steering: np.ndarray,
                    ris_sampling: np.ndarray):
    """v -> |a_n^H v| over the grid, unit-norm steering; the side is read from len(v)."""
    bs_adjoint = bs_steering.conj().T
    ris_adjoint = ris_sampling.conj().T
    ris_scale = np.sqrt(geometry.n_ris)

    def responses(v: np.ndarray) -> np.ndarray:
        if v.size == geometry.n_ris:
            return np.abs(ris_adjoint @ v) / ris_scale
        if v.size == geometry.n_bs:
            return np.abs(bs_adjoint @ v)
        raise ValueError("vector length matches neither array")

    return responses


def _margin(responses: np.ndarray, mask: np.ndarray) -> tuple[float, float]:
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != responses.shape:
        raise ValueError("mask length does not match the grid")
    min_in = float(responses[mask].min()) if mask.any() else float("inf")
    max_out = float(responses[~mask].max()) if (~mask).any() else 0.0
    return min_in, max_out


def factor_pattern_mask(mask: np.ndarray, n1: int, n2: int):
    """Split a 2-D mask that varies along a single dimension into axis masks.

    Returns (u_mask, w_mask) with the non-varying factor all ones. Raises if
    the mask does not factor this way.
    """
    m = np.asarray(mask, dtype=bool).reshape(n1, n2)
    if np.array_equal(m, np.outer(m[:, 0], np.ones(n2, dtype=bool))):
        return m[:, 0].copy(), np.ones(n2, dtype=bool)
    if np.array_equal(m, np.outer(np.ones(n1, dtype=bool), m[0, :])):
        return np.ones(n1, dtype=bool), m[0, :].copy()
    raise ValueError("mask does not factor across the RIS dimensions")


def _gs_rows(matrix: np.ndarray, covers, axis: str, cfg: GsConfig):
    """One GS batch: (codeword, trace) per (layer, polarity, mask), each on its own stream."""
    if not covers:
        return []
    rngs = [derive_rng(cfg.seed, "gs", "ris", i, polarity, axis) for i, polarity, _ in covers]
    vs, traces = relaxed_gs_batch(matrix, np.array([m for *_, m in covers]), cfg, rngs)
    return list(zip(vs, traces))


def _design_factorized(covers, geometry: ArrayGeometry, cfg: GsConfig):
    """Kronecker synthesis of each cover's RIS codeword from two 1-D designs.

    A full-coverage factor is the closed-form flat codeword (exact response,
    no iteration); the varying factors of each axis run as one GS batch on
    that axis's grid. Returns (codeword, traces) per cover.
    """
    sizes = (geometry.n_ris_rows, geometry.n_ris_cols)
    factors = [factor_pattern_mask(m, *sizes) for *_, m in covers]
    per_axis = []
    for a, (name, n, freqs) in enumerate(zip("uw", sizes, (u_axis, w_axis))):
        matrix = axis_sampling_matrix(n, freqs(n), geometry.spacing_over_wavelength)
        varying = [(i, pol, f[a]) for (i, pol, _), f in zip(covers, factors) if not f[a].all()]
        designed = iter(_gs_rows(matrix, varying, name, cfg))
        per_axis.append([(flat_codeword(n), None) if f[a].all() else next(designed)
                         for f in factors])
    return [(np.kron(v_u, v_w), tuple(t for t in (t_u, t_w) if t is not None))
            for (v_u, t_u), (v_w, t_w) in zip(*per_axis)]


def build_codebooks(
    code_t: BlockCode,
    code_r: BlockCode,
    grid: AngleGrid,
    geometry: ArrayGeometry,
    cfg: GsConfig,
    direct_2d: bool = False,
) -> tuple[DesignedCodebook, DesignedCodebook]:
    """Design the full BS and RIS codebooks for the given codes.

    Dimension-split RIS codes are synthesized as Kronecker products of two
    1-D designs, one GS batch per axis; plain RIS codes (or direct_2d=True)
    run one direct 2-D batch. Each (layer, polarity, axis) design consumes its
    own derived random stream, so designs are reproducible and order-independent.
    """
    pattern_t = beam_pattern_matrix(code_t, geometry.n_bs, side="bs")
    pattern_r = beam_pattern_matrix(code_r, geometry.n_ris, side="ris")
    ris_sampling = ris_sampling_matrix(geometry, grid)
    responses = _grid_responses(geometry, bs_steering_matrix(geometry, grid), ris_sampling)

    bs_layers, bs_reports = [], []
    for i in range(pattern_t.n_layers):
        mask = pattern_t.rows[i].astype(bool)
        pair = BeamPair(
            one=design_bs_codeword(np.flatnonzero(mask), grid, geometry),
            zero=design_bs_codeword(np.flatnonzero(~mask), grid, geometry),
        )
        bs_layers.append(pair)
        bs_reports.append((
            CodewordReport((), *_margin(responses(pair.one), mask)),
            CodewordReport((), *_margin(responses(pair.zero), ~mask)),
        ))

    covers = [(i, polarity, cover)
              for i, row in enumerate(pattern_r.rows.astype(bool))
              for polarity, cover in (("one", row), ("zero", ~row))]
    if code_r.split is not None and not direct_2d:
        designs = _design_factorized(covers, geometry, cfg)
    else:
        designs = [(v, (t,)) for v, t in _gs_rows(ris_sampling, covers, "2d", cfg)]
    reports = [CodewordReport(traces, *_margin(responses(v), cover))
               for (v, traces), (*_, cover) in zip(designs, covers)]
    ris_layers = [BeamPair(one=one[0], zero=zero[0])
                  for one, zero in zip(designs[::2], designs[1::2])]
    ris_reports = list(zip(reports[::2], reports[1::2]))

    return (
        DesignedCodebook("bs", bs_layers, bs_reports, pattern_t.rows),
        DesignedCodebook("ris", ris_layers, ris_reports, pattern_r.rows),
    )


def ideal_codebook(pattern: BeamPatternMatrix) -> DesignedCodebook:
    """Mask-valued codebook for oracle runs: gains are the mask bits themselves."""
    layers = [
        BeamPair(one=row.astype(float), zero=(1 - row).astype(float))
        for row in pattern.rows
    ]
    reports = [(CodewordReport((), 1.0, 0.0), CodewordReport((), 1.0, 0.0))] * len(layers)
    return DesignedCodebook(pattern.side, layers, reports, pattern.rows)

"""Beam-pattern matrices and codeword synthesis for BS and RIS codebooks.

BS codewords are unconstrained unit-norm multi-mainlobe sums and are exact on
the candidate grid. RIS codewords obey the constant-modulus constraint and are
designed by a relaxed Gerchberg-Saxton iteration that only re-assigns
amplitudes at grid points failing the in/out classification thresholds.

Codewords are stored in coverage convention: the response of codeword v at
grid point n is |a_n^H v| with a_n the steering vector there. The training
layer conjugates (and de-rotates, for the RIS) before transmission.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .arrays import AngleGrid, ArrayGeometry, u_axis, ula_steering, upa_steering_uw, w_axis
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


def ris_sampling_matrix(geometry: ArrayGeometry, grid: AngleGrid) -> np.ndarray:
    """2-D sampling matrix (unit-modulus entries), column n at grid point n."""
    n1, n2 = geometry.n_ris_rows, geometry.n_ris_cols
    sp = geometry.spacing_over_wavelength
    cols = [
        np.sqrt(n1 * n2) * upa_steering_uw(n1, n2, u, w, sp)
        for u, w in zip(grid.ris_u, grid.ris_w)
    ]
    return np.stack(cols, axis=1)


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


def relaxed_gs(
    a_scaled: np.ndarray,
    mask: np.ndarray,
    cfg: GsConfig,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Relaxed GS iteration on an arbitrary sampling matrix.

    a_scaled maps a codeword to grid amplitudes (columns are scaled steering
    vectors with unit-modulus entries). Grid points already classified
    correctly, in-coverage amplitude at least P*(1-delta) or out-of-coverage
    at most P*delta, keep their current value; the rest are re-assigned to
    the threshold amplitude with preserved phase. Returns the constant-modulus
    codeword and the trace ||s_k - s_{k-1}||_2, whose first entry compares the
    first realized beam against the intended one.
    """
    n_el, n_grid = a_scaled.shape
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (n_grid,):
        raise ValueError("mask length does not match the grid")
    if not mask.any():
        raise ValueError("coverage mask is empty")
    if mask.all():
        raise ValueError("coverage mask covers the whole grid")
    target = cfg.target_amplitude or float(np.sqrt(n_grid / mask.sum()))

    forward = a_scaled.conj().T
    backward, rank = _pinv_with_rank(forward)
    if rank < n_grid:
        raise np.linalg.LinAlgError(
            f"sampling matrix is rank deficient ({rank} < {n_grid}) at cutoff {SV_CUTOFF}"
        )

    modulus = 1.0 / np.sqrt(n_el)
    s_prev = np.where(mask, target, 0.0) * np.exp(2j * np.pi * rng.random(n_grid))
    v = modulus * np.exp(1j * np.angle(backward @ s_prev))
    hi = target * (1.0 - cfg.delta)
    lo = target * cfg.delta
    trace = np.empty(cfg.k_iter)
    for k in range(cfg.k_iter):
        s_k = forward @ v
        trace[k] = np.linalg.norm(s_k - s_prev)
        amp = np.abs(s_k)
        satisfied = np.where(mask, amp >= hi, amp <= lo)
        reassigned = np.where(mask, hi, lo) * np.exp(1j * np.angle(s_k))
        s_hat = np.where(satisfied, s_k, reassigned)
        v = modulus * np.exp(1j * np.angle(backward @ s_hat))
        s_prev = s_k
    return v, trace


def design_ris_codeword_gs(
    mask: np.ndarray,
    grid: AngleGrid,
    geometry: ArrayGeometry,
    cfg: GsConfig,
    rng: Optional[np.random.Generator] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Direct 2-D relaxed GS design of one RIS codeword for the given mask."""
    if rng is None:
        rng = derive_rng(cfg.seed, "gs", "ris", "direct")
    return relaxed_gs(ris_sampling_matrix(geometry, grid), mask, cfg, rng)


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


def classification_margin(
    v: np.ndarray, mask: np.ndarray, grid: AngleGrid, geometry: ArrayGeometry
) -> tuple[float, float]:
    """(min in-coverage, max out-of-coverage) of |a_n^H v| over the grid.

    Unit-norm steering vectors; the side is inferred from the vector length.
    """
    responses = _grid_responses(geometry, bs_steering_matrix(geometry, grid),
                                ris_sampling_matrix(geometry, grid))
    return _margin(responses(v), mask)


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


def _design_axis(
    n: int, freqs: np.ndarray, mask: np.ndarray, cfg: GsConfig,
    rng: np.random.Generator, spacing: float,
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    if mask.all():
        return flat_codeword(n), None
    v, trace = relaxed_gs(axis_sampling_matrix(n, freqs, spacing), mask, cfg, rng)
    return v, trace


def design_ris_codeword_factorized(
    mask: np.ndarray,
    geometry: ArrayGeometry,
    cfg: GsConfig,
    rng_u: np.random.Generator,
    rng_w: np.random.Generator,
) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Kronecker synthesis of a RIS codeword from two 1-D designs.

    The full-coverage factor is the closed-form flat codeword (exact response,
    no iteration); the varying factor runs the relaxed GS on its axis grid.
    """
    n1, n2 = geometry.n_ris_rows, geometry.n_ris_cols
    sp = geometry.spacing_over_wavelength
    u_mask, w_mask = factor_pattern_mask(mask, n1, n2)
    v_u, trace_u = _design_axis(n1, u_axis(n1), u_mask, cfg, rng_u, sp)
    v_w, trace_w = _design_axis(n2, w_axis(n2), w_mask, cfg, rng_w, sp)
    traces = tuple(t for t in (trace_u, trace_w) if t is not None)
    return np.kron(v_u, v_w), traces


def build_codebooks(
    code_t: BlockCode,
    code_r: BlockCode,
    grid: AngleGrid,
    geometry: ArrayGeometry,
    cfg: GsConfig,
    direct_2d: bool = False,
) -> tuple[DesignedCodebook, DesignedCodebook]:
    """Design the full BS and RIS codebooks for the given codes.

    Dimension-split RIS codes are synthesized per layer as Kronecker products
    of two 1-D designs; plain RIS codes (or direct_2d=True) use the direct 2-D
    relaxed GS. Each (side, layer, polarity) consumes its own derived random
    stream, so designs are reproducible and order-independent.
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

    factorize = code_r.split is not None and not direct_2d
    ris_layers, ris_reports = [], []
    for i in range(pattern_r.n_layers):
        mask = pattern_r.rows[i].astype(bool)
        pair_entries = []
        for polarity, cover in (("one", mask), ("zero", ~mask)):
            if factorize:
                v, traces = design_ris_codeword_factorized(
                    cover, geometry, cfg,
                    derive_rng(cfg.seed, "gs", "ris", i, polarity, "u"),
                    derive_rng(cfg.seed, "gs", "ris", i, polarity, "w"),
                )
            else:
                v, trace = relaxed_gs(
                    ris_sampling, cover, cfg,
                    derive_rng(cfg.seed, "gs", "ris", i, polarity, "2d"),
                )
                traces = (trace,)
            pair_entries.append((v, CodewordReport(traces, *_margin(responses(v), cover))))
        ris_layers.append(BeamPair(one=pair_entries[0][0], zero=pair_entries[1][0]))
        ris_reports.append((pair_entries[0][1], pair_entries[1][1]))

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

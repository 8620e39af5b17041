"""LoS geometric channel realizations and received-power evaluation under AWGN.

Channels follow the single-path geometric model: the UE-RIS link is a scaled
RIS steering vector and the RIS-BS link is a scaled outer product of a RIS
steering vector (the static BS-side direction) and a BS steering vector.
Normalization fixes the path gains to one, so the per-link array factors stay
in the channel and a single SNR ratio controls the noise level.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .arrays import (
    AngleGrid,
    ArrayGeometry,
    bs_grid_sines,
    ula_steering,
    upa_steering_uw,
)

SAMPLING_MODES = ("on_grid", "continuous")


@dataclass(frozen=True)
class SnrSpec:
    """Training SNR as the single linear ratio Pt * alpha^2 / sigma^2."""

    snr_linear: float
    noiseless: bool = False

    def __post_init__(self) -> None:
        if self.snr_linear <= 0:
            raise ValueError("snr_linear must be positive")


@dataclass(frozen=True)
class ChannelRealization:
    """One LoS channel draw with ground-truth grid indices (1-based)."""

    h_r: np.ndarray  # UE-RIS row, length n_ris
    g_mat: np.ndarray  # RIS-BS matrix, n_ris x n_bs
    ue_ris_index: int
    bs_index: int
    g_left: np.ndarray  # RIS steering toward the BS (unit norm)

    @property
    def n_ris(self) -> int:
        return self.h_r.size

    @property
    def n_bs(self) -> int:
        return self.g_mat.shape[1]


def ris_phase_compensation(ch: ChannelRealization) -> np.ndarray:
    """Unit-modulus de-rotation for the static, known RIS-BS direction.

    The RIS applies this element-wise on top of any codeword so that the
    remaining training problem depends only on the unknown UE-side angle.
    """
    return np.sqrt(ch.n_ris) * np.conj(ch.g_left)


def _build(geometry, u, w, bs_sine, gr_u, gr_w, ue_index, bs_index):
    n1, n2 = geometry.n_ris_rows, geometry.n_ris_cols
    sp = geometry.spacing_over_wavelength
    a_ue = upa_steering_uw(n1, n2, u, w, sp)
    a_gr = upa_steering_uw(n1, n2, gr_u, gr_w, sp)
    b = ula_steering(geometry.n_bs, np.arcsin(bs_sine), sp)
    h_r = np.sqrt(geometry.n_ris) * a_ue
    g_mat = np.sqrt(geometry.n_bs * geometry.n_ris) * np.outer(a_gr, b)
    return ChannelRealization(h_r=h_r, g_mat=g_mat, ue_ris_index=ue_index,
                              bs_index=bs_index, g_left=a_gr)


def sample_channel(
    geometry: ArrayGeometry,
    grid: AngleGrid,
    rng: np.random.Generator,
    mode: str = "on_grid",
) -> ChannelRealization:
    """Draw a channel realization with unit path gains.

    "on_grid" draws uniform grid indices and builds the channel exactly at the
    grid points. "continuous" draws physical angles uniformly and records the
    nearest grid point (in sine / spatial-frequency space) as ground truth.
    """
    if grid.n_bs != geometry.n_bs or grid.n_ris != geometry.n_ris:
        raise ValueError("geometry and grid dimensions are inconsistent")
    if mode not in SAMPLING_MODES:
        raise ValueError(f"unknown sampling mode {mode!r}")

    if mode == "on_grid":
        bs_index = int(rng.integers(geometry.n_bs)) + 1
        ue_index = int(rng.integers(geometry.n_ris)) + 1
        gr_index = int(rng.integers(geometry.n_ris)) + 1
        return _build(
            geometry,
            grid.ris_u[ue_index - 1],
            grid.ris_w[ue_index - 1],
            bs_grid_sines(geometry.n_bs)[bs_index - 1],
            grid.ris_u[gr_index - 1],
            grid.ris_w[gr_index - 1],
            ue_index,
            bs_index,
        )

    phi_t = rng.uniform(-np.pi / 2, np.pi / 2)
    phi_r = rng.uniform(-np.pi / 2, np.pi / 2)
    theta_r = rng.uniform(0.0, np.pi)
    phi_g = rng.uniform(-np.pi / 2, np.pi / 2)
    theta_g = rng.uniform(0.0, np.pi)
    u = np.sin(phi_r) * np.sin(theta_r)
    w = np.cos(theta_r)
    bs_sine = np.sin(phi_t)
    bs_index = int(np.argmin(np.abs(bs_grid_sines(geometry.n_bs) - bs_sine))) + 1
    ue_index = int(np.argmin((grid.ris_u - u) ** 2 + (grid.ris_w - w) ** 2)) + 1
    return _build(
        geometry, u, w, bs_sine,
        np.sin(phi_g) * np.sin(theta_g), np.cos(theta_g),
        ue_index, bs_index,
    )


def normalize_channel(ch: ChannelRealization) -> ChannelRealization:
    """Rescale to unit path gains: ||h_r|| = sqrt(n_ris), ||g_mat||_F = sqrt(n_bs*n_ris).

    This removes distance and transmit-power effects while keeping the array
    factors, so an SnrSpec fully controls the noise level. Idempotent.
    """
    h_norm = np.linalg.norm(ch.h_r)
    g_norm = np.linalg.norm(ch.g_mat)
    if h_norm == 0 or g_norm == 0:
        raise ValueError("cannot normalize a zero channel")
    return replace(
        ch,
        h_r=ch.h_r * (np.sqrt(ch.n_ris) / h_norm),
        g_mat=ch.g_mat * (np.sqrt(ch.n_bs * ch.n_ris) / g_norm),
    )


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


def pilot_noise(snr: SnrSpec, rng: np.random.Generator, shape: tuple) -> np.ndarray:
    """Noise of an array of pilots: unit-variance complex Gaussian as (re, im) pairs.

    The result has shape ``shape + (2,)``. One draw covers every pilot and
    gives the stream of per-pilot (re, im) draws in C order; the noiseless
    flag gives zeros and draws nothing.
    """
    if snr.noiseless:
        return np.zeros((*shape, 2))
    return rng.standard_normal((*shape, 2)) / np.sqrt(2.0)


def received_power(gain, snr: SnrSpec, noise: np.ndarray) -> np.ndarray:
    """Elementwise |sqrt(snr) * gain + noise|^2 for noise from ``pilot_noise``.

    Real arithmetic only, so a single pilot and an array of pilots round
    alike.
    """
    root = np.sqrt(snr.snr_linear)
    re = root * np.real(gain) + noise[..., 0]
    im = root * np.imag(gain) + noise[..., 1]
    return re * re + im * im


def measure_power(gain: complex, snr: SnrSpec, rng: np.random.Generator) -> float:
    """One received-power measurement |sqrt(snr) * gain + noise|^2.

    Noise is circularly symmetric complex Gaussian with unit variance, one
    independent draw per call; the noiseless flag drops the noise term.
    """
    return float(received_power(gain, snr, pilot_noise(snr, rng, ())))

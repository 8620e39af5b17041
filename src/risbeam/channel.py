"""LoS geometric channel blocks and received-power evaluation under AWGN.

Channels follow the single-path geometric model: the UE-RIS link is a scaled
RIS steering vector and the RIS-BS link is a scaled outer product of a RIS
steering vector (the static BS-side direction) and a BS steering vector.
``sample_block`` draws a block of channels straight into the decoupled,
de-rotated form the protocols read (``ChannelBlock``). Normalization fixes
the path gains to one, so the per-link array factors stay in the channel and
a single SNR ratio controls the noise level.
"""

from __future__ import annotations

from dataclasses import dataclass

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
        if not 0 < self.snr_linear < np.inf:
            raise ValueError(f"snr_linear must be positive and finite, got {self.snr_linear}")


@dataclass(frozen=True)
class ChannelBlock:
    """A block of channels in de-rotated factored form; row t is trial t.

    The de-rotation ``comp`` makes every row of ``comp * g_mat`` the vector
    ``beta`` (|a_gr|^2 = 1/n_ris), so the gain of coverage-convention RIS and
    BS codewords v and w is ``(h_r @ conj(v)) * (beta @ conj(w))``. The RIS-BS
    matrices stay per trial, unstacked, for the rate evaluation.
    """

    bs_index: np.ndarray  # (trials,), 1-based
    ris_index: np.ndarray  # (trials,), 1-based UE-side RIS index
    comp: np.ndarray  # (trials, n_ris)
    beta: np.ndarray  # (trials, n_bs)
    h_r: np.ndarray  # (trials, n_ris)
    g_mats: tuple  # per trial, n_ris x n_bs

    @property
    def n_ris(self) -> int:
        return self.h_r.shape[1]

    @property
    def n_bs(self) -> int:
        return self.beta.shape[1]


def _draw(geometry: ArrayGeometry, grid: AngleGrid, rng: np.random.Generator, mode: str):
    """One trial's 1-based (BS, UE-side RIS) indices, (u, w), BS sine and RIS-BS (u, w)."""
    if mode == "on_grid":
        bs = int(rng.integers(geometry.n_bs))
        ue = int(rng.integers(geometry.n_ris))
        gr = int(rng.integers(geometry.n_ris))
        return (bs + 1, ue + 1, grid.ris_u[ue], grid.ris_w[ue],
                bs_grid_sines(geometry.n_bs)[bs], grid.ris_u[gr], grid.ris_w[gr])
    phi_t = rng.uniform(-np.pi / 2, np.pi / 2)
    phi_r = rng.uniform(-np.pi / 2, np.pi / 2)
    theta_r = rng.uniform(0.0, np.pi)
    phi_g = rng.uniform(-np.pi / 2, np.pi / 2)
    theta_g = rng.uniform(0.0, np.pi)
    u = np.sin(phi_r) * np.sin(theta_r)
    w = np.cos(theta_r)
    bs_sine = np.sin(phi_t)
    bs = int(np.argmin(np.abs(bs_grid_sines(geometry.n_bs) - bs_sine)))
    ue = int(np.argmin((grid.ris_u - u) ** 2 + (grid.ris_w - w) ** 2))
    return (bs + 1, ue + 1, u, w, bs_sine,
            np.sin(phi_g) * np.sin(theta_g), np.cos(theta_g))


def sample_block(geometry: ArrayGeometry, grid: AngleGrid, rngs,
                 mode: str = "on_grid") -> ChannelBlock:
    """Draw one channel per generator, with unit path gains, as a ChannelBlock.

    Trial t draws from ``rngs[t]`` alone. "on_grid" draws uniform grid
    indices and builds the channel exactly at the grid points. "continuous"
    draws physical angles uniformly and records the nearest grid point (in
    sine / spatial-frequency space) as ground truth. Each trial is scaled to
    ||h_r|| = sqrt(n_ris) and ||g_mat||_F = sqrt(n_bs * n_ris), which removes
    distance and transmit-power effects while keeping the array factors, so
    an SnrSpec fully controls the noise level.
    """
    if grid.n_bs != geometry.n_bs or grid.n_ris != geometry.n_ris:
        raise ValueError("geometry and grid dimensions are inconsistent")
    if mode not in SAMPLING_MODES:
        raise ValueError(f"unknown sampling mode {mode!r}")
    n1, n2, sp = geometry.n_ris_rows, geometry.n_ris_cols, geometry.spacing_over_wavelength
    n_bs, n_ris = geometry.n_bs, geometry.n_ris
    draws = [_draw(geometry, grid, rng, mode) for rng in rngs]
    h_r, g_mats, comp = [], [], []
    for _, _, u, w, bs_sine, gr_u, gr_w in draws:
        a_gr = upa_steering_uw(n1, n2, gr_u, gr_w, sp)
        h = np.sqrt(n_ris) * upa_steering_uw(n1, n2, u, w, sp)
        g = np.sqrt(n_bs * n_ris) * np.outer(a_gr, ula_steering(n_bs, np.arcsin(bs_sine), sp))
        h *= np.sqrt(n_ris) / np.linalg.norm(h)  # in place: the same bytes, no copy
        g *= np.sqrt(n_bs * n_ris) / np.linalg.norm(g)
        h_r.append(h)
        g_mats.append(g)
        # the unit-modulus de-rotation of the static, known RIS-BS direction
        comp.append(np.sqrt(n_ris) * np.conj(a_gr))
    comp = np.array(comp)
    return ChannelBlock(
        bs_index=np.array([d[0] for d in draws]),
        ris_index=np.array([d[1] for d in draws]),
        comp=comp,
        beta=comp[:, :1] * np.array([g[0] for g in g_mats]),
        h_r=np.array(h_r),
        g_mats=tuple(g_mats),
    )


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

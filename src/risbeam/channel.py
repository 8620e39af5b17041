"""LoS geometric channel blocks and received-power evaluation under AWGN.

Channels follow the paper's single-path geometric model, which decouples the
two links: the UE-RIS link is a scaled RIS steering vector, and the RIS-BS
link is static and known, so the RIS de-rotates its RIS-side direction and
what reaches the training is a scaled BS steering vector. A channel is then
its BS and UE-side RIS directions, and ``sample_block`` draws a block of them
straight into the factored form the protocols read (``ChannelBlock``, which
also records whether they are grid points). Normalization fixes the path
gains to one, so the per-link array factors stay in the channel and a single
SNR ratio controls the noise level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arrays import AngleGrid, ArrayGeometry, bs_grid_sines, ula_steering, upa_steering_uw

SAMPLING_MODES = ("on_grid", "continuous")


@dataclass(frozen=True)
class SnrSpec:
    """Training SNR as the linear ratio Pt * alpha^2 / sigma^2: one, or one per block row."""

    snr_linear: float | tuple[float, ...]
    noiseless: bool = False

    def __post_init__(self) -> None:
        snr = np.asarray(self.snr_linear)
        if snr.ndim > 1 or not ((0 < snr) & (snr < np.inf)).all():
            raise ValueError(f"snr_linear must be positive and finite, 1-D at most, got {snr}")
        # held as a float or a tuple of floats, so specs compare and hash by value
        object.__setattr__(self, "snr_linear", tuple(snr.tolist()) if snr.ndim else snr.item())


@dataclass(frozen=True)
class ChannelBlock:
    """A block of channels in de-rotated factored form; row t is trial t.

    The static, known RIS-BS link is de-rotated at the RIS, which leaves
    ``beta = sqrt(n_bs) * a_bs`` at the BS; the UE-RIS link is
    ``h_r = sqrt(n_ris) * a_ue``. So the gain of coverage-convention RIS and
    BS codewords v and w is ``(h_r @ conj(v)) * (beta @ conj(w))``, in
    training and in rate evaluation.
    """

    bs_index: np.ndarray  # (trials,), 1-based
    ris_index: np.ndarray  # (trials,), 1-based UE-side RIS index
    beta: np.ndarray  # (trials, n_bs)
    h_r: np.ndarray  # (trials, n_ris)
    on_grid: bool  # drawn in the "on_grid" sampling mode: every direction a grid point

    @property
    def n_ris(self) -> int:
        return self.h_r.shape[1]

    @property
    def n_bs(self) -> int:
        return self.beta.shape[1]


def sample_block(geometry: ArrayGeometry, grid: AngleGrid, rngs,
                 mode: str = "on_grid") -> ChannelBlock:
    """Draw one channel per generator, with unit path gains, as a ChannelBlock.

    Trial t draws from ``rngs[t]`` alone; the block is then built in one
    broadcast, byte-equal to building each trial on its own. "on_grid" draws
    a uniform BS and UE-side RIS grid index (two ``integers``) and gathers
    the grid's steering columns. "continuous" draws the BS angle and the
    UE-side RIS azimuth and elevation uniformly (one ``random(3)``) and
    records the nearest grid point (in sine / spatial-frequency space) as
    ground truth. The static RIS-BS direction is known and de-rotated, so it
    draws nothing. Steering vectors have unit norm, so ``||beta||^2 = n_bs``
    and ``||h_r||^2 = n_ris``: unit path gains, without distance or transmit
    power but with the array factors, so an SnrSpec fully controls the noise
    level.
    """
    grid.check(geometry)
    if mode not in SAMPLING_MODES:
        raise ValueError(f"unknown sampling mode {mode!r}")
    n1, n2 = geometry.n_ris_rows, geometry.n_ris_cols
    n_bs, n_ris = geometry.n_bs, geometry.n_ris
    if mode == "on_grid":
        bs, ue = np.array([[rng.integers(n_bs), rng.integers(n_ris)] for rng in rngs]).T
        a_bs, a_ue = grid.bs_steering.T[bs], grid.ris_steering.T[ue]
    else:
        # rng.uniform(low, high) is low + (high - low) * rng.random(), and each range
        # here is pi: one random(3) per trial gives the bytes of three uniform calls
        low = np.array([-np.pi / 2, -np.pi / 2, 0.0])
        phi_t, phi_r, theta_r = (low + np.pi * np.array([rng.random(3) for rng in rngs])).T
        u, w, bs_sine = np.sin(phi_r) * np.sin(theta_r), np.cos(theta_r), np.sin(phi_t)
        bs = np.argmin(np.abs(bs_grid_sines(n_bs) - bs_sine[:, None]), axis=1)
        ue = np.argmin((grid.ris_u - u[:, None]) ** 2 + (grid.ris_w - w[:, None]) ** 2, axis=1)
        a_bs = ula_steering(n_bs, np.arcsin(bs_sine))
        a_ue = upa_steering_uw(n1, n2, u, w)
    return ChannelBlock(bs_index=bs + 1, ris_index=ue + 1, beta=np.sqrt(n_bs) * a_bs,
                        h_r=np.sqrt(n_ris) * a_ue, on_grid=mode == "on_grid")


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
    alike. A per-row SNR applies to the first axis of ``gain``.
    """
    root = np.sqrt(snr.snr_linear)  # a per-row root broadcasts over the row's pilots:
    root = root.reshape(root.shape + (1,) * (np.ndim(gain) - 1)) if root.ndim else root
    re = root * np.real(gain) + noise[..., 0]
    im = root * np.imag(gain) + noise[..., 1]
    return re * re + im * im

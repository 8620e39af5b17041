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

    The static RIS-BS link is de-rotated at the RIS (``|a_gr|^2 = 1/n_ris``),
    which leaves the vector ``beta`` at the BS. So the gain of
    coverage-convention RIS and BS codewords v and w is
    ``(h_r @ conj(v)) * (beta @ conj(w))``, in training and in rate evaluation.
    """

    bs_index: np.ndarray  # (trials,), 1-based
    ris_index: np.ndarray  # (trials,), 1-based UE-side RIS index
    beta: np.ndarray  # (trials, n_bs)
    h_r: np.ndarray  # (trials, n_ris)

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
    uniform grid indices and gathers columns of the grid's steering matrices.
    "continuous" draws physical angles uniformly and records the nearest grid
    point (in sine / spatial-frequency space) as ground truth. Each trial is
    scaled to ||h_r|| = sqrt(n_ris) and to a RIS-BS matrix of Frobenius norm
    sqrt(n_bs * n_ris), which removes distance and transmit-power effects
    while keeping the array factors, so an SnrSpec fully controls the noise
    level. Only ``beta``, the de-rotated row of that matrix, is kept.
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
    # the RIS-BS matrices, a local: their Frobenius scale and their row 0 give
    # beta, and beta's bytes (so every decision) depend on that norm's order
    g_mats = a_gr[:, :, None] * a_bs[:, None, :]
    g_mats *= np.sqrt(n_bs * n_ris)  # in place: the same bytes, one block-sized array
    h_r *= (np.sqrt(n_ris) / norms(h_r))[:, None]  # in place, like the scaling above
    g_mats *= (np.sqrt(n_bs * n_ris) / norms(g_mats.reshape(len(g_mats), -1)))[:, None, None]
    # row 0 under the unit-modulus de-rotation of the static, known RIS-BS direction
    beta = np.sqrt(n_ris) * np.conj(a_gr[:, :1]) * g_mats[:, 0]
    return ChannelBlock(bs_index=bs + 1, ris_index=ue + 1, beta=beta, h_r=h_r)


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

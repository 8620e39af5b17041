"""Steering vectors and candidate angle grids for the BS ULA and the RIS UPA.

Beam-pattern design and coverage bookkeeping work in the spatial-frequency
domain (u, w) with u = sin(phi) * sin(theta) and w = cos(theta), because the
steering vector depends only on (u, w) while the physical azimuth recovered
from a grid point can be undefined (arcsin argument beyond 1). Undefined
azimuths are recorded as NaN.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_SPACING = 0.5  # d / lambda


@dataclass(frozen=True)
class ArrayGeometry:
    """Antenna counts and normalized spacing for the BS ULA and the RIS UPA.

    n_ris_rows is the azimuth-frequency (u) dimension, n_ris_cols the
    elevation-frequency (w) dimension.
    """

    n_bs: int
    n_ris_rows: int
    n_ris_cols: int
    spacing_over_wavelength: float = DEFAULT_SPACING

    def __post_init__(self) -> None:
        if self.n_bs < 1 or self.n_ris_rows < 1 or self.n_ris_cols < 1:
            raise ValueError("antenna counts must be positive")
        if self.spacing_over_wavelength <= 0:
            raise ValueError("spacing_over_wavelength must be positive")

    @property
    def n_ris(self) -> int:
        return self.n_ris_rows * self.n_ris_cols


@dataclass(frozen=True)
class AngleGrid:
    """Candidate angle lists for both arrays plus spatial-frequency coordinates.

    bs_angles has length n_bs; the four RIS arrays have length n_ris and are
    indexed by the 1-based grid index n with n - 1 = (a - 1) * n_ris_cols + p,
    where a is the azimuth index and p the elevation position. ris_azimuth is
    NaN where the grid point has no physical azimuth.
    """

    bs_angles: np.ndarray
    ris_u: np.ndarray
    ris_w: np.ndarray
    ris_azimuth: np.ndarray
    ris_elevation: np.ndarray

    @property
    def n_bs(self) -> int:
        return self.bs_angles.size

    @property
    def n_ris(self) -> int:
        return self.ris_u.size


def _centered_indices(n: int) -> np.ndarray:
    # (1 - n)/2, (3 - n)/2, ..., (n - 1)/2
    return np.arange(n) - (n - 1) / 2.0


def ula_factor(n: int, freq: float, spacing: float = DEFAULT_SPACING) -> np.ndarray:
    """Unit-modulus ULA phase factor at spatial frequency ``freq``, centered indices."""
    return np.exp(-2j * np.pi * spacing * freq * _centered_indices(n))


def ula_steering(n: int, phi: float, spacing: float = DEFAULT_SPACING) -> np.ndarray:
    """Unit-norm ULA steering vector; entry m carries phase -2*pi*spacing*m*sin(phi)."""
    m = np.arange(n)
    return np.exp(-2j * np.pi * spacing * m * np.sin(phi)) / np.sqrt(n)


def upa_steering_uw(
    n1: int, n2: int, u: float, w: float, spacing: float = DEFAULT_SPACING
) -> np.ndarray:
    """Unit-norm UPA steering vector from spatial frequencies (u, w).

    Kronecker product of the u-dimension factor (length n1) and the
    w-dimension factor (length n2), both on centered indices.
    """
    vec = np.multiply.outer(ula_factor(n1, u, spacing), ula_factor(n2, w, spacing))
    return vec.ravel() / np.sqrt(n1 * n2)


def bs_grid_sines(n_bs: int) -> np.ndarray:
    """The arcsin arguments of the BS candidate list: equispaced with step 2/n_bs."""
    n = np.arange(1, n_bs + 1)
    return -(n_bs + 1) / n_bs + 2.0 * n / n_bs


def bs_angle_grid(n_bs: int) -> np.ndarray:
    """Candidate BS angles, strictly increasing in (-pi/2, pi/2)."""
    return np.arcsin(bs_grid_sines(n_bs))


def u_axis(n1: int) -> np.ndarray:
    """Azimuth-frequency grid values by azimuth index a = 1..n1."""
    return (1.0 - n1) / n1 + 2.0 * np.arange(n1) / n1


def w_axis(n2: int) -> np.ndarray:
    """Elevation-frequency grid values by elevation position p = 0..n2-1.

    Position p corresponds to the modulo index (p + 1) mod n2, so the largest
    w sits at p = n2 - 2 and the smallest at p = n2 - 1.
    """
    return (1.0 - n2) / n2 + 2.0 * ((np.arange(n2) + 1) % n2) / n2


def ris_angle_grid(n1: int, n2: int) -> AngleGrid:
    """RIS candidate grid over n = 1..n1*n2 as an AngleGrid with empty BS part.

    The elevation index is mod(n, n2) and the azimuth index is the n2-fold
    ceiling division of n, which matches the modulo form of the candidate
    list on square arrays and keeps the map n -> (u, w) bijective on
    rectangular ones. Azimuth angles with |u / sin(theta)| > 1 are NaN.
    """
    n = np.arange(1, n1 * n2 + 1)
    az_index = (n - 1) // n2 + 1  # equals ceil(n / n1) when n1 == n2
    el_index = n % n2
    u = (1.0 - n1) / n1 + 2.0 * (az_index - 1) / n1
    w = (1.0 - n2) / n2 + 2.0 * el_index / n2
    elevation = np.arccos(w)
    sin_theta = np.sqrt(1.0 - w * w)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(sin_theta > 0, u / sin_theta, np.inf)
    azimuth = np.where(np.abs(ratio) <= 1.0, np.arcsin(np.clip(ratio, -1, 1)), np.nan)
    return AngleGrid(
        bs_angles=np.empty(0),
        ris_u=u,
        ris_w=w,
        ris_azimuth=azimuth,
        ris_elevation=elevation,
    )


def make_angle_grid(geometry: ArrayGeometry) -> AngleGrid:
    """Full candidate grid (BS and RIS) for the given geometry."""
    ris = ris_angle_grid(geometry.n_ris_rows, geometry.n_ris_cols)
    return AngleGrid(
        bs_angles=bs_angle_grid(geometry.n_bs),
        ris_u=ris.ris_u,
        ris_w=ris.ris_w,
        ris_azimuth=ris.ris_azimuth,
        ris_elevation=ris.ris_elevation,
    )

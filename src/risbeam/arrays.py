"""Steering vectors and candidate angle grids for the BS ULA and the RIS UPA.

Beam-pattern design and coverage bookkeeping work in the spatial-frequency
domain (u, w) with u = sin(phi) * sin(theta) and w = cos(theta), because the
steering vector depends only on (u, w) while the physical azimuth recovered
from a grid point can be undefined (arcsin argument beyond 1). Undefined
azimuths are recorded as NaN. Both arrays are half-wavelength arrays and the
candidate grid is their DFT grid: its steering matrices are unitary.
"""

from __future__ import annotations

import numbers
from dataclasses import astuple, dataclass, replace

import numpy as np

SPACING = 0.5  # d / lambda of every array


def whole_number(value, what: str) -> int:
    """``value`` as an int if it is a whole number: 8 and 8.0 are, True and 8.5 are not."""
    whole = isinstance(value, numbers.Integral) or (
        isinstance(value, numbers.Real) and float(value).is_integer())
    if isinstance(value, bool) or not whole:
        raise ValueError(f"{what} must be a whole number, got {value!r}")
    return int(value)


def real_number(value, what: str) -> float:
    """``value`` as a float if it is a real number (a bool is not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{what} must be a real number, got {value!r}")
    return float(value)


def check_powers_of_two(sizes, reason: str) -> None:
    """Reject (n_bs, n_ris_rows, n_ris_cols) unless each is a power of two."""
    for name, n in zip(("n_bs", "n_ris_rows", "n_ris_cols"), sizes):
        if n & (n - 1):
            raise ValueError(f"{name}={n} is not a power of two: {reason}")


def ceil_log2(n: int) -> int:
    if n < 1:
        raise ValueError("n must be positive")
    return (n - 1).bit_length() if n > 1 else 0


@dataclass(frozen=True)
class ArrayGeometry:
    """Antenna counts for the BS ULA and the RIS UPA, both spaced at half a wavelength.

    n_ris_rows is the azimuth-frequency (u) dimension, n_ris_cols the
    elevation-frequency (w) dimension.
    """

    n_bs: int
    n_ris_rows: int
    n_ris_cols: int

    def __post_init__(self) -> None:
        if self.n_bs < 1 or self.n_ris_rows < 1 or self.n_ris_cols < 1:
            raise ValueError("antenna counts must be positive")

    @property
    def n_ris(self) -> int:
        return self.n_ris_rows * self.n_ris_cols


@dataclass(frozen=True)
class AngleGrid:
    """Candidate angle lists for both arrays plus spatial-frequency coordinates.

    bs_angles has length n_bs; the four RIS arrays have length n_ris and are
    indexed by the 1-based grid index n with n - 1 = (a - 1) * n_ris_cols + p,
    where a is the azimuth index and p the elevation position. ris_azimuth is
    NaN where the grid point has no physical azimuth. The grid records the RIS
    shape it was built for, and holds read-only unit-norm steering matrices:
    column i steers at grid point i.
    """

    bs_angles: np.ndarray
    ris_u: np.ndarray
    ris_w: np.ndarray
    ris_azimuth: np.ndarray
    ris_elevation: np.ndarray
    n_ris_rows: int
    n_ris_cols: int
    bs_steering: np.ndarray  # n_bs x n_bs
    ris_steering: np.ndarray  # n_ris x n_ris

    @property
    def n_bs(self) -> int:
        return self.bs_angles.size

    @property
    def n_ris(self) -> int:
        return self.ris_u.size

    def check(self, geometry: ArrayGeometry) -> None:
        """Reject a geometry other than the one the grid was built for."""
        if (self.n_bs, self.n_ris_rows, self.n_ris_cols) != astuple(geometry):
            raise ValueError("geometry and grid dimensions are inconsistent")


def _centered_indices(n: int) -> np.ndarray:
    # (1 - n)/2, (3 - n)/2, ..., (n - 1)/2
    return np.arange(n) - (n - 1) / 2.0


def ula_factor(n: int, freq) -> np.ndarray:
    """Unit-modulus ULA phase factor at spatial frequency ``freq``, centered indices.

    The steering functions take arrays too: row t then belongs to entry t,
    byte-equal to a call on that entry alone.
    """
    return np.exp(-2j * np.pi * SPACING * np.asarray(freq)[..., None] * _centered_indices(n))


def ula_steering(n: int, phi) -> np.ndarray:
    """Unit-norm ULA steering vector; entry m carries phase -pi*m*sin(phi)."""
    m = np.arange(n)
    return np.exp(-2j * np.pi * SPACING * m * np.sin(np.asarray(phi)[..., None])) / np.sqrt(n)


def upa_steering_uw(n1: int, n2: int, u, w) -> np.ndarray:
    """Unit-norm UPA steering vector from spatial frequencies (u, w).

    Kronecker product of the u-dimension factor (length n1) and the
    w-dimension factor (length n2), both on centered indices.
    """
    vec = ula_factor(n1, u)[..., :, None] * ula_factor(n2, w)[..., None, :]
    return vec.reshape(*vec.shape[:-2], n1 * n2) / np.sqrt(n1 * n2)


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


def _read_only_columns(rows: np.ndarray) -> np.ndarray:
    """The C-ordered transpose of a stack of row vectors, locked against writes."""
    cols = np.ascontiguousarray(rows.T)
    cols.flags.writeable = False
    return cols


def ris_angle_grid(n1: int, n2: int) -> AngleGrid:
    """RIS candidate grid over n = 1..n1*n2 as an AngleGrid with empty BS part.

    The elevation index is mod(n, n2) and the azimuth index is the n2-fold
    ceiling division of n, which matches the modulo form of the candidate
    list on square arrays and keeps the map n -> (u, w) bijective on
    rectangular ones. Azimuth angles with |u / sin(theta)| > 1 are NaN.
    """
    n = np.arange(1, n1 * n2 + 1)
    az_index = (n - 1) // n2 + 1  # equals ceil(n / n1) when n1 == n2
    u = u_axis(n1)[az_index - 1]
    w = w_axis(n2)[(n - 1) % n2]  # position (n - 1) mod n2 holds elevation index n mod n2
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
        n_ris_rows=n1,
        n_ris_cols=n2,
        bs_steering=np.empty((0, 0), dtype=complex),
        ris_steering=_read_only_columns(upa_steering_uw(n1, n2, u, w)),
    )


def make_angle_grid(geometry: ArrayGeometry) -> AngleGrid:
    """Full candidate grid (BS and RIS) and its steering matrices for the given geometry."""
    bs_angles = bs_angle_grid(geometry.n_bs)
    return replace(ris_angle_grid(geometry.n_ris_rows, geometry.n_ris_cols),
                   bs_angles=bs_angles,
                   bs_steering=_read_only_columns(ula_steering(geometry.n_bs, bs_angles)))

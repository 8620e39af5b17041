import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import upa_steering
from risbeam.arrays import (
    AngleGrid,
    ArrayGeometry,
    bs_angle_grid,
    bs_grid_sines,
    make_angle_grid,
    u_axis,
    ula_factor,
    ula_steering,
    upa_steering_uw,
    w_axis,
)


def test_ula_steering_broadside_is_uniform():
    vec = ula_steering(4, 0.0)
    assert np.allclose(vec, 0.5)


def test_ula_steering_quarter_turn_values():
    # direct evaluation: entry m = (1/2) exp(-j 2 pi (1/2) m sin(pi/6)) = (1/2) exp(-j pi m / 2)
    vec = ula_steering(4, np.pi / 6)
    expected = 0.5 * np.exp(-1j * np.pi * np.arange(4) / 2)
    assert np.allclose(vec, expected, atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(n=st.integers(1, 64), phi=st.floats(-1.5, 1.5))
def test_ula_steering_unit_norm(n, phi):
    assert abs(np.linalg.norm(ula_steering(n, phi)) - 1.0) < 1e-12


def test_upa_steering_broadside_is_uniform():
    vec = upa_steering(2, 2, 0.0, np.pi / 2)
    assert np.allclose(vec, 0.5)


def test_upa_steering_2x1_endfire_values():
    # centered indices [-1/2, +1/2]; u = sin(pi/2) sin(pi/2) = 1
    vec = upa_steering(2, 1, np.pi / 2, np.pi / 2)
    expected = np.array([np.exp(1j * np.pi / 2), np.exp(-1j * np.pi / 2)]) / np.sqrt(2)
    assert np.allclose(vec, expected, atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(
    n1=st.integers(1, 8),
    n2=st.integers(1, 8),
    phi=st.floats(-1.5, 1.5),
    theta=st.floats(0.05, 3.1),
)
def test_upa_kronecker_factorization(n1, n2, phi, theta):
    u = np.sin(phi) * np.sin(theta)
    w = np.cos(theta)
    direct = upa_steering(n1, n2, phi, theta)
    kron = np.kron(ula_factor(n1, u), ula_factor(n2, w)) / np.sqrt(n1 * n2)
    assert np.abs(direct - kron).max() < 1e-12
    assert abs(np.linalg.norm(direct) - 1.0) < 1e-12


@settings(max_examples=30, deadline=None)
@given(n1=st.integers(1, 9), n2=st.integers(1, 9),
       points=st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0),
                                 st.floats(-1.5, 1.5)), min_size=1, max_size=6))
def test_steering_of_an_array_is_the_stack_of_single_calls(n1, n2, points):
    # sample_block and make_angle_grid build every vector of a block or grid in
    # one call; row t must be the bytes of the call on entry t alone
    u, w, phi = (np.array(column) for column in zip(*points))
    for rows, one in ((ula_factor(n1, u), lambda t: ula_factor(n1, u[t])),
                      (ula_steering(n2, phi), lambda t: ula_steering(n2, phi[t])),
                      (upa_steering_uw(n1, n2, u, w),
                       lambda t: upa_steering_uw(n1, n2, u[t], w[t]))):
        assert rows.shape[0] == len(points) and rows.flags.c_contiguous
        assert all(rows[t].tobytes() == one(t).tobytes() for t in range(len(points)))


def test_bs_grid_sines_for_four_antennas():
    assert np.allclose(bs_grid_sines(4), [-0.75, -0.25, 0.25, 0.75])
    assert np.allclose(bs_angle_grid(4), np.arcsin([-0.75, -0.25, 0.25, 0.75]))


def test_bs_grid_two_antennas_symmetric():
    assert np.allclose(bs_grid_sines(2), [-0.5, 0.5])


@pytest.mark.parametrize("n_bs", [2, 3, 8, 16, 64])
def test_bs_grid_equispaced_and_increasing(n_bs):
    sines = bs_grid_sines(n_bs)
    assert np.allclose(np.diff(sines), 2.0 / n_bs)
    angles = bs_angle_grid(n_bs)
    assert np.all(np.diff(angles) > 0)
    assert np.all(np.abs(angles) < np.pi / 2)


@pytest.mark.parametrize("n_bs", [4, 8, 16, 64])
def test_bs_grid_steering_orthogonal(n_bs):
    cols = np.stack([ula_steering(n_bs, a) for a in bs_angle_grid(n_bs)], axis=1)
    gram = cols.conj().T @ cols
    assert np.abs(gram - np.eye(n_bs)).max() < 1e-9


def test_ris_grid_2x2_values():
    grid = make_angle_grid(ArrayGeometry(1, 2, 2))
    assert sorted(set(np.round(grid.ris_u, 12))) == [-0.5, 0.5]
    assert sorted(set(np.round(grid.ris_w, 12))) == [-0.5, 0.5]
    pairs = set(zip(np.round(grid.ris_u, 12), np.round(grid.ris_w, 12)))
    assert len(pairs) == 4


def test_ris_grid_modulo_zero_hits_smallest_w():
    grid = make_angle_grid(ArrayGeometry(1, 4, 4))
    n = np.arange(1, 17)
    smallest = (1 - 4) / 4
    assert np.allclose(grid.ris_w[n % 4 == 0], smallest)


@pytest.mark.parametrize("dims", [(2, 2), (4, 4), (8, 8), (4, 2), (2, 4), (64, 1)])
def test_ris_grid_bijective(dims):
    grid = make_angle_grid(ArrayGeometry(1, *dims))
    pairs = set(zip(np.round(grid.ris_u, 12), np.round(grid.ris_w, 12)))
    assert len(pairs) == dims[0] * dims[1]


def test_ris_grid_matches_axis_orderings():
    n1, n2 = 8, 4
    grid = make_angle_grid(ArrayGeometry(1, n1, n2))
    for n in range(1, n1 * n2 + 1):
        a, p = (n - 1) // n2, (n - 1) % n2
        assert grid.ris_u[n - 1] == pytest.approx(u_axis(n1)[a])
        assert grid.ris_w[n - 1] == pytest.approx(w_axis(n2)[p])


def test_ris_grid_steering_orthogonal_2d():
    grid = make_angle_grid(ArrayGeometry(1, 8, 8))
    cols = np.stack(
        [upa_steering_uw(8, 8, u, w) for u, w in zip(grid.ris_u, grid.ris_w)], axis=1
    )
    gram = cols.conj().T @ cols
    assert np.abs(gram - np.eye(64)).max() < 1e-9


def test_make_angle_grid_composes_both_sides():
    geo = ArrayGeometry(4, 2, 2)
    grid = make_angle_grid(geo)
    assert isinstance(grid, AngleGrid)
    assert grid.n_bs == 4
    assert grid.n_ris == 4


def test_geometry_validation():
    with pytest.raises(ValueError):
        ArrayGeometry(0, 2, 2)
    assert ArrayGeometry(4, 2, 3).n_ris == 6

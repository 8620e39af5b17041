import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from reference import effective_gain, measure_power, sample_full_block
from risbeam.arrays import (
    ArrayGeometry,
    bs_grid_sines,
    make_angle_grid,
    ula_steering,
    upa_steering_uw,
)
from risbeam.channel import SnrSpec, sample_block

# square, non-square, single-element and non-power-of-two arrays
GEOMETRIES = [(4, 2, 2), (16, 8, 8), (8, 4, 2), (1, 1, 1), (12, 6, 8), (64, 16, 16)]
GEOMETRY_IDS = [f"{n_bs}_{rows}x{cols}" for n_bs, rows, cols in GEOMETRIES]
MODES = ["on_grid", "continuous"]


@pytest.fixture(scope="module")
def small_setup():
    geo = ArrayGeometry(4, 2, 2)
    return geo, make_angle_grid(geo)


def _one(geo, grid, seed, mode="on_grid"):
    """A one-row block drawn from default_rng(seed), with its RIS-BS matrix."""
    return sample_full_block(geo, grid, [np.random.default_rng(seed)], mode)


def _steering_at(geo, grid, index):
    return upa_steering_uw(
        geo.n_ris_rows, geo.n_ris_cols,
        grid.ris_u[index - 1], grid.ris_w[index - 1],
    )


def _rows_bytes(block, t):
    return [getattr(block, field.name)[t].tobytes() for field in fields(block)]


def full_draw_agrees(dims, mode) -> bool:
    """Whether sample_block's fields are byte-equal to the reference draw's."""
    geo = ArrayGeometry(*dims)
    grid = make_angle_grid(geo)
    block, full = (draw(geo, grid, [np.random.default_rng(seed) for seed in range(8)], mode)
                   for draw in (sample_block, sample_full_block))
    names = [field.name for field in fields(block)]
    return names == ["bs_index", "ris_index", "beta", "h_r"] and all(
        getattr(block, name).tobytes() == getattr(full, name).tobytes() for name in names)


@pytest.mark.parametrize("dims", GEOMETRIES, ids=GEOMETRY_IDS)
@pytest.mark.parametrize("mode", MODES)
def test_sample_block_fields_equal_the_full_draw(dims, mode):
    # the oracle's channels, with their RIS-BS matrices, are the package's
    assert full_draw_agrees(dims, mode)


def test_sample_block_fields_equal_the_full_draw_on_one_blas_thread():
    here = Path(__file__).resolve().parent
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join((str(here.parent / "src"), str(here)))}
    script = ("from test_channel import GEOMETRIES, MODES, full_draw_agrees; "
              "print(all(full_draw_agrees(d, m) for d in GEOMETRIES for m in MODES))")
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["True"]


def test_sample_channel_deterministic(small_setup):
    geo, grid = small_setup
    a, b = (sample_block(geo, grid, [np.random.default_rng(7)] * 3) for _ in range(2))
    assert all(_rows_bytes(a, t) == _rows_bytes(b, t) for t in range(3))


@pytest.mark.parametrize("dims", GEOMETRIES, ids=GEOMETRY_IDS)
@pytest.mark.parametrize("mode", MODES)
def test_block_rows_are_one_row_blocks(dims, mode):
    # row t is byte-equal to a one-row block drawn from a generator in the same
    # state: each trial reads its own generator and draws as much as alone
    geo = ArrayGeometry(*dims)
    grid = make_angle_grid(geo)
    block = sample_block(geo, grid, [np.random.default_rng(3)] * 4
                         + [np.random.default_rng(seed) for seed in range(4)], mode)
    twin = np.random.default_rng(3)
    rows = [sample_block(geo, grid, [twin], mode) for _ in range(4)]
    rows += [sample_block(geo, grid, [np.random.default_rng(seed)], mode) for seed in range(4)]
    assert (block.n_bs, block.n_ris) == (geo.n_bs, geo.n_ris)
    assert block.h_r.shape == (8, geo.n_ris)
    assert block.beta.shape == (8, geo.n_bs)
    for t, row in enumerate(rows):
        assert _rows_bytes(block, t) == _rows_bytes(row, 0)


@pytest.mark.parametrize("dims", GEOMETRIES, ids=GEOMETRY_IDS)
@pytest.mark.parametrize("mode", MODES)
def test_block_rows_have_unit_path_gains_and_derotate_to_beta(dims, mode):
    geo = ArrayGeometry(*dims)
    block = sample_full_block(geo, make_angle_grid(geo),
                              [np.random.default_rng(seed) for seed in range(8)], mode)
    assert np.all((1 <= block.bs_index) & (block.bs_index <= geo.n_bs))
    assert np.all((1 <= block.ris_index) & (block.ris_index <= geo.n_ris))
    assert np.allclose(np.abs(block.comp), 1.0, rtol=0, atol=1e-12)
    for t, g_mat in enumerate(block.g_mats):
        assert g_mat.shape == (geo.n_ris, geo.n_bs)
        assert np.linalg.norm(block.h_r[t]) == pytest.approx(np.sqrt(geo.n_ris), rel=1e-12)
        assert np.linalg.norm(g_mat) == pytest.approx(np.sqrt(geo.n_bs * geo.n_ris), rel=1e-12)
        # the de-rotation makes every row of the RIS-BS matrix the vector beta
        derotated = block.comp[t][:, None] * g_mat
        assert np.allclose(derotated, block.beta[t][None, :], rtol=0, atol=1e-12)


def test_on_grid_h_r_collinear_with_steering(small_setup):
    geo, grid = small_setup
    ch = _one(geo, grid, 3)
    steer = _steering_at(geo, grid, ch.ris_index[0])
    cross = np.abs(steer.conj() @ ch.h_r[0])
    assert cross == pytest.approx(np.linalg.norm(ch.h_r[0]), abs=1e-12)


def test_rebuilding_h_r_from_index_is_bitwise(small_setup):
    geo, grid = small_setup
    ch = _one(geo, grid, 11)
    rebuilt = np.sqrt(geo.n_ris) * _steering_at(geo, grid, ch.ris_index[0])
    assert np.array_equal(ch.h_r[0], rebuilt)


def test_bs_index_uniform_chi_square(small_setup):
    geo, grid = small_setup
    block = sample_block(geo, grid, [np.random.default_rng(2024)] * 10_000)
    counts = np.bincount(block.bs_index - 1, minlength=geo.n_bs)
    assert stats.chisquare(counts).pvalue > 0.01


def test_g_mat_rank_one(small_setup):
    geo, grid = small_setup
    singular = np.linalg.svd(_one(geo, grid, 5).g_mats[0], compute_uv=False)
    assert singular[1] < 1e-10 * singular[0]


def test_best_tuple_gain_matches_exhaustive_oracle(small_setup):
    # matched beams on the normalized channel reach sqrt(n_bs * n_ris), and an
    # exhaustive sweep over all grid tuples finds no better tuple
    geo, grid = small_setup
    ch = _one(geo, grid, 17)
    comp = ch.comp[0]
    best = 0.0
    gains = {}
    for i in range(1, geo.n_bs + 1):
        w_tx = np.conj(ula_steering(geo.n_bs, grid.bs_angles[i - 1]))
        for j in range(1, geo.n_ris + 1):
            v_tx = np.conj(_steering_at(geo, grid, j)) * comp
            gain = abs(effective_gain(ch, v_tx, w_tx))
            gains[(i, j)] = gain
            best = max(best, gain)
    matched = gains[(ch.bs_index[0], ch.ris_index[0])]
    assert matched == pytest.approx(best, rel=1e-12)
    assert matched == pytest.approx(np.sqrt(geo.n_bs * geo.n_ris), rel=1e-9)


def test_effective_gain_argmax_over_bs_sweep(small_setup):
    geo, grid = small_setup
    ch = _one(geo, grid, 23)
    v_tx = np.full(geo.n_ris, 1.0 / np.sqrt(geo.n_ris), dtype=complex)
    gains = [
        abs(effective_gain(ch, v_tx, np.conj(ula_steering(geo.n_bs, a))))
        for a in grid.bs_angles
    ]
    assert int(np.argmax(gains)) + 1 == ch.bs_index[0]


def test_effective_gain_bilinear_and_orthogonal(small_setup):
    geo, grid = small_setup
    ch = _one(geo, grid, 29)
    v_tx = np.conj(_steering_at(geo, grid, ch.ris_index[0])) * ch.comp[0]
    w_tx = np.conj(ula_steering(geo.n_bs, grid.bs_angles[ch.bs_index[0] - 1]))
    g1 = effective_gain(ch, v_tx, w_tx)
    g2 = effective_gain(ch, v_tx, 2.0 * w_tx)
    assert g2 == pytest.approx(2.0 * g1)
    other = (ch.bs_index[0] % geo.n_bs)  # a different grid beam, 0-based
    w_orth = np.conj(ula_steering(geo.n_bs, grid.bs_angles[other]))
    assert abs(effective_gain(ch, v_tx, w_orth)) <= 1e-9


def test_effective_gain_validates_inputs(small_setup):
    geo, grid = small_setup
    ch = _one(geo, grid, 1)
    with pytest.raises(ValueError):
        effective_gain(ch, np.ones(geo.n_ris), np.ones(geo.n_bs))  # wrong modulus
    with pytest.raises(ValueError):
        effective_gain(ch, np.ones(geo.n_ris + 1), np.ones(geo.n_bs))


def test_measure_power_noiseless_and_reproducible():
    snr = SnrSpec(4.0, noiseless=True)
    assert measure_power(0.5 + 0.5j, snr, np.random.default_rng(0)) == pytest.approx(2.0)
    noisy = SnrSpec(4.0)
    a = [measure_power(0.1j, noisy, np.random.default_rng(42)) for _ in range(3)]
    b = [measure_power(0.1j, noisy, np.random.default_rng(42)) for _ in range(3)]
    assert a == b


def test_measure_power_noise_statistics():
    # with zero gain the measured power is |n|^2 with n ~ CN(0, 1):
    # unit mean and exponential distribution
    rng = np.random.default_rng(123)
    snr = SnrSpec(1.0)
    samples = np.array([measure_power(0.0, snr, rng) for _ in range(100_000)])
    assert samples.mean() == pytest.approx(1.0, abs=0.02)
    assert stats.kstest(samples, "expon").pvalue > 0.01


def test_noise_parts_gaussian():
    # reconstruct the real and imaginary parts the measurement draws
    rng = np.random.default_rng(7)
    parts = rng.standard_normal(200_000) / np.sqrt(2.0)
    assert stats.kstest(parts, "norm", args=(0.0, np.sqrt(0.5))).pvalue > 0.01


def test_continuous_mode_nearest_grid_truth():
    for dims in GEOMETRIES:
        geo = ArrayGeometry(*dims)
        grid = make_angle_grid(geo)
        block = sample_block(geo, grid, [np.random.default_rng(seed) for seed in range(99, 109)],
                             mode="continuous")
        for t, seed in enumerate(range(99, 109)):
            # replay the draws to confirm the nearest-point rule
            rng = np.random.default_rng(seed)
            phi_t = rng.uniform(-np.pi / 2, np.pi / 2)
            phi_r = rng.uniform(-np.pi / 2, np.pi / 2)
            theta_r = rng.uniform(0.0, np.pi)
            u, w = np.sin(phi_r) * np.sin(theta_r), np.cos(theta_r)
            exp_bs = int(np.argmin(np.abs(bs_grid_sines(geo.n_bs) - np.sin(phi_t)))) + 1
            exp_ris = int(np.argmin((grid.ris_u - u) ** 2 + (grid.ris_w - w) ** 2)) + 1
            assert (block.bs_index[t], block.ris_index[t]) == (exp_bs, exp_ris)


def test_sample_channel_validates(small_setup):
    geo, grid = small_setup
    for other in (ArrayGeometry(8, 2, 2), ArrayGeometry(4, 2, 4), ArrayGeometry(4, 1, 2)):
        with pytest.raises(ValueError, match="inconsistent"):
            sample_block(other, grid, [np.random.default_rng(0)])
    with pytest.raises(ValueError, match="unknown sampling mode 'sideways'"):
        sample_block(geo, grid, [np.random.default_rng(0)], mode="sideways")
    for snr_linear in (0.0, -1.0, float("nan"), float("inf"), np.array([2.0, 0.0]),
                       np.array([np.nan, 1.0]), np.ones((2, 2))):
        with pytest.raises(ValueError, match="positive and finite"):
            SnrSpec(snr_linear)
    per_row = SnrSpec(np.array([0.5, 2.0]))  # one SNR per row, compared and hashed by value
    assert per_row == SnrSpec([0.5, 2.0]) != SnrSpec([0.5, 3.0])
    assert hash(per_row) == hash(SnrSpec((0.5, 2.0))) and per_row != SnrSpec([0.5, 2.0], True)
    for scalar in (np.float64(2.0), np.array(2.0)):
        assert SnrSpec(scalar) == SnrSpec(2.0) and hash(SnrSpec(scalar)) == hash(SnrSpec(2.0))


def test_sample_block_rejects_a_grid_of_another_shape():
    # a 2x2 grid has the element count of a 4x1 RIS, but its points and its
    # steering vectors belong to another array
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="inconsistent"):
        sample_block(ArrayGeometry(4, 4, 1), make_angle_grid(ArrayGeometry(4, 2, 2)), [rng])

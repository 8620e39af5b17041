import numpy as np
import pytest
from scipy import stats

from reference import effective_gain, measure_power
from risbeam.arrays import ArrayGeometry, make_angle_grid, ula_steering, upa_steering_uw
from risbeam.channel import (
    SnrSpec,
    channel_block,
    normalize_channel,
    ris_phase_compensation,
    sample_channel,
)


@pytest.fixture(scope="module")
def small_setup():
    geo = ArrayGeometry(4, 2, 2)
    return geo, make_angle_grid(geo)


def _steering_at(geo, grid, index):
    return upa_steering_uw(
        geo.n_ris_rows, geo.n_ris_cols,
        grid.ris_u[index - 1], grid.ris_w[index - 1],
    )


def test_sample_channel_deterministic(small_setup):
    geo, grid = small_setup
    a = sample_channel(geo, grid, np.random.default_rng(7))
    b = sample_channel(geo, grid, np.random.default_rng(7))
    assert np.array_equal(a.h_r, b.h_r)
    assert np.array_equal(a.g_mat, b.g_mat)
    assert (a.bs_index, a.ue_ris_index) == (b.bs_index, b.ue_ris_index)


def test_on_grid_h_r_collinear_with_steering(small_setup):
    geo, grid = small_setup
    ch = sample_channel(geo, grid, np.random.default_rng(3))
    steer = _steering_at(geo, grid, ch.ue_ris_index)
    cross = np.abs(steer.conj() @ ch.h_r)
    assert cross == pytest.approx(np.linalg.norm(ch.h_r), abs=1e-12)


def test_rebuilding_h_r_from_index_is_bitwise(small_setup):
    geo, grid = small_setup
    ch = sample_channel(geo, grid, np.random.default_rng(11))
    rebuilt = np.sqrt(geo.n_ris) * _steering_at(geo, grid, ch.ue_ris_index)
    assert np.array_equal(ch.h_r, rebuilt)


def test_bs_index_uniform_chi_square(small_setup):
    geo, grid = small_setup
    rng = np.random.default_rng(2024)
    counts = np.zeros(geo.n_bs)
    for _ in range(10_000):
        counts[sample_channel(geo, grid, rng).bs_index - 1] += 1
    assert stats.chisquare(counts).pvalue > 0.01


def test_g_mat_rank_one(small_setup):
    geo, grid = small_setup
    ch = sample_channel(geo, grid, np.random.default_rng(5))
    singular = np.linalg.svd(ch.g_mat, compute_uv=False)
    assert singular[1] < 1e-10 * singular[0]


def test_normalize_scales_and_is_idempotent(small_setup):
    geo, grid = small_setup
    ch = sample_channel(geo, grid, np.random.default_rng(5))
    scaled = ch.__class__(
        h_r=3.7 * ch.h_r, g_mat=0.2 * ch.g_mat,
        ue_ris_index=ch.ue_ris_index, bs_index=ch.bs_index, g_left=ch.g_left,
    )
    normed = normalize_channel(scaled)
    assert np.linalg.norm(normed.h_r) == pytest.approx(np.sqrt(geo.n_ris))
    assert np.linalg.norm(normed.g_mat) == pytest.approx(np.sqrt(geo.n_bs * geo.n_ris))
    again = normalize_channel(normed)
    assert np.allclose(again.h_r, normed.h_r)
    assert np.allclose(again.g_mat, normed.g_mat)


@pytest.mark.parametrize("mode", ["on_grid", "continuous"])
def test_channel_block_rows_are_the_channels(mode):
    geo = ArrayGeometry(8, 4, 2)
    grid = make_angle_grid(geo)
    channels = [normalize_channel(sample_channel(geo, grid, np.random.default_rng(seed), mode))
                for seed in range(5)]
    block = channel_block(channels)
    assert (block.n_bs, block.n_ris) == (geo.n_bs, geo.n_ris)
    for t, ch in enumerate(channels):
        assert (block.bs_index[t], block.ris_index[t]) == (ch.bs_index, ch.ue_ris_index)
        assert block.comp[t].tobytes() == ris_phase_compensation(ch).tobytes()
        assert block.h_r[t].tobytes() == ch.h_r.tobytes()
        assert block.g_mats[t] is ch.g_mat  # a reference: the block stacks no matrix
        # the de-rotation makes every row of the RIS-BS matrix the vector beta
        derotated = block.comp[t][:, None] * ch.g_mat
        assert np.allclose(derotated, block.beta[t][None, :], rtol=0, atol=1e-12)


def test_best_tuple_gain_matches_exhaustive_oracle(small_setup):
    # matched beams on the normalized channel reach sqrt(n_bs * n_ris), and an
    # exhaustive sweep over all grid tuples finds no better tuple
    geo, grid = small_setup
    ch = normalize_channel(sample_channel(geo, grid, np.random.default_rng(17)))
    comp = ris_phase_compensation(ch)
    best = 0.0
    gains = {}
    for i in range(1, geo.n_bs + 1):
        w_tx = np.conj(ula_steering(geo.n_bs, grid.bs_angles[i - 1]))
        for j in range(1, geo.n_ris + 1):
            v_tx = np.conj(_steering_at(geo, grid, j)) * comp
            gain = abs(effective_gain(ch, v_tx, w_tx))
            gains[(i, j)] = gain
            best = max(best, gain)
    matched = gains[(ch.bs_index, ch.ue_ris_index)]
    assert matched == pytest.approx(best, rel=1e-12)
    assert matched == pytest.approx(np.sqrt(geo.n_bs * geo.n_ris), rel=1e-9)


def test_effective_gain_argmax_over_bs_sweep(small_setup):
    geo, grid = small_setup
    ch = normalize_channel(sample_channel(geo, grid, np.random.default_rng(23)))
    v_tx = np.full(geo.n_ris, 1.0 / np.sqrt(geo.n_ris), dtype=complex)
    gains = [
        abs(effective_gain(ch, v_tx, np.conj(ula_steering(geo.n_bs, a))))
        for a in grid.bs_angles
    ]
    assert int(np.argmax(gains)) + 1 == ch.bs_index


def test_effective_gain_bilinear_and_orthogonal(small_setup):
    geo, grid = small_setup
    ch = normalize_channel(sample_channel(geo, grid, np.random.default_rng(29)))
    v_tx = np.conj(_steering_at(geo, grid, ch.ue_ris_index)) * ris_phase_compensation(ch)
    w_tx = np.conj(ula_steering(geo.n_bs, grid.bs_angles[ch.bs_index - 1]))
    g1 = effective_gain(ch, v_tx, w_tx)
    g2 = effective_gain(ch, v_tx, 2.0 * w_tx)
    assert g2 == pytest.approx(2.0 * g1)
    other = (ch.bs_index % geo.n_bs)  # a different grid beam, 0-based
    w_orth = np.conj(ula_steering(geo.n_bs, grid.bs_angles[other]))
    assert abs(effective_gain(ch, v_tx, w_orth)) <= 1e-9


def test_effective_gain_validates_inputs(small_setup):
    geo, grid = small_setup
    ch = sample_channel(geo, grid, np.random.default_rng(1))
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


def test_continuous_mode_nearest_grid_truth(small_setup):
    geo, grid = small_setup
    rng = np.random.default_rng(99)
    ch = sample_channel(geo, grid, rng, mode="continuous")
    assert 1 <= ch.bs_index <= geo.n_bs
    assert 1 <= ch.ue_ris_index <= geo.n_ris
    # replay the draws to confirm the nearest-point rule
    rng2 = np.random.default_rng(99)
    phi_t = rng2.uniform(-np.pi / 2, np.pi / 2)
    phi_r = rng2.uniform(-np.pi / 2, np.pi / 2)
    theta_r = rng2.uniform(0.0, np.pi)
    u, w = np.sin(phi_r) * np.sin(theta_r), np.cos(theta_r)
    from risbeam.arrays import bs_grid_sines

    exp_bs = int(np.argmin(np.abs(bs_grid_sines(geo.n_bs) - np.sin(phi_t)))) + 1
    exp_ris = int(np.argmin((grid.ris_u - u) ** 2 + (grid.ris_w - w) ** 2)) + 1
    assert (ch.bs_index, ch.ue_ris_index) == (exp_bs, exp_ris)


def test_sample_channel_validates(small_setup):
    geo, grid = small_setup
    other = ArrayGeometry(8, 2, 2)
    with pytest.raises(ValueError):
        sample_channel(other, grid, np.random.default_rng(0))
    with pytest.raises(ValueError):
        sample_channel(geo, grid, np.random.default_rng(0), mode="sideways")
    for snr_linear in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="positive and finite"):
            SnrSpec(snr_linear)

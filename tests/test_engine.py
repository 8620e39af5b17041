"""The gain-table engine against the per-pilot reference path.

The reference sends every tuple through ``effective_gain`` and
``measure_power`` one pilot at a time, as the layered protocols did before
gain tables. The engine must agree with it on gains, on noise and on every
decision, and must still reject RIS codewords that break constant modulus.
"""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from risbeam import experiments, training
from risbeam.arrays import ArrayGeometry, make_angle_grid
from risbeam.blockcode import build_identity_code
from risbeam.channel import (
    SnrSpec,
    effective_gain,
    measure_power,
    normalize_channel,
    pilot_noise,
    received_power,
    sample_channel,
)
from risbeam.codebook import BeamPair, GsConfig, build_codebooks
from risbeam.experiments import ExperimentConfig, run_sweep
from risbeam.seeding import derive_rng
from risbeam.training import (
    HierarchicalBeamProvider,
    ProtocolSpec,
    bs_transmit,
    ceil_log2,
    gain_table,
    ris_transmit,
    run_coded,
    run_hierarchical,
)

POWERS_OF_TWO = st.sampled_from((2, 4, 8))
MODES = st.sampled_from(("on_grid", "continuous"))
SEEDS = st.integers(0, 2**32 - 1)
FAST_GS = GsConfig(seed=1, k_iter=10)


@lru_cache(maxsize=None)
def small_setup(n_bs: int, rows: int, cols: int):
    """Geometry, grid, identity codes and their designed codebooks."""
    geo = ArrayGeometry(n_bs, rows, cols)
    grid = make_angle_grid(geo)
    codes = (build_identity_code(ceil_log2(n_bs)),
             build_identity_code(ceil_log2(rows), ceil_log2(cols)))
    return geo, grid, codes, build_codebooks(*codes, grid, geo, FAST_GS)


def draw_channel(geo, grid, mode, seed):
    return normalize_channel(sample_channel(geo, grid, np.random.default_rng(seed), mode))


def per_pilot_bits(ch, pairs, sizes, snr, rng, ideal=False):
    """The layer loop with one effective_gain and one measure_power call per pilot."""
    n_t, n_r = sizes
    bits_t: tuple = ()
    bits_r: tuple = ()
    for layer in range(max(sizes)):
        bs_pair, ris_pair = pairs(layer, bits_t, bits_r)
        powers = []
        for w_cov in (bs_pair.zero, bs_pair.one):
            for v_cov in (ris_pair.zero, ris_pair.one):
                if ideal:
                    gain = complex(w_cov[ch.bs_index - 1] * v_cov[ch.ue_ris_index - 1])
                else:
                    gain = effective_gain(ch, ris_transmit(ch, v_cov), bs_transmit(w_cov))
                powers.append(measure_power(gain, snr, rng))
        winner = int(np.argmax(powers))
        if layer < n_t:
            bits_t += (winner >> 1,)
        if layer < n_r:
            bits_r += (winner & 1,)
    return bits_t, bits_r


@settings(max_examples=40, deadline=None)
@given(POWERS_OF_TWO, POWERS_OF_TWO, POWERS_OF_TWO, MODES, SEEDS)
def test_gain_table_matches_effective_gain(n_bs, rows, cols, mode, seed):
    geo, grid, _, _ = small_setup(n_bs, rows, cols)
    ch = draw_channel(geo, grid, mode, seed)
    rng = np.random.default_rng(seed)
    bs_cov = rng.standard_normal((n_bs, 3)) + 1j * rng.standard_normal((n_bs, 3))
    ris_cov = np.exp(2j * np.pi * rng.random((geo.n_ris, 5))) / np.sqrt(geo.n_ris)
    table = gain_table(ch, bs_cov, ris_cov, check_modulus=True)
    assert table.shape == (3, 5)
    for i in range(3):
        for j in range(5):
            reference = effective_gain(ch, ris_transmit(ch, ris_cov[:, j]),
                                       bs_transmit(bs_cov[:, i]))
            assert abs(table[i, j] - reference) <= 1e-12
    ideal = gain_table(ch, bs_cov.real, ris_cov.real, ideal=True)
    assert np.array_equal(ideal, np.outer(bs_cov.real[ch.bs_index - 1],
                                          ris_cov.real[ch.ue_ris_index - 1]))


def test_codebook_matrix_columns_follow_layers(desk_books):
    for book in desk_books:
        assert book.matrix.shape[1] == 2 * book.n_layers
        for layer, pair in enumerate(book.layers):
            assert np.array_equal(book.matrix[:, 2 * layer], pair.zero)
            assert np.array_equal(book.matrix[:, 2 * layer + 1], pair.one)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 5), st.floats(0.01, 100.0), SEEDS, st.booleans())
def test_one_noise_draw_gives_per_pilot_powers(layers, snr_linear, seed, real_gains):
    rng = np.random.default_rng(seed)
    gains = rng.standard_normal((layers, 2, 2))
    if not real_gains:
        gains = gains + 1j * rng.standard_normal((layers, 2, 2))
    snr = SnrSpec(snr_linear)
    vector_rng, scalar_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    powers = received_power(gains, snr, pilot_noise(snr, vector_rng, gains.shape))
    expected = [measure_power(gain, snr, scalar_rng) for gain in gains.ravel()]
    assert powers.ravel().tolist() == expected
    # both generators consumed the same draws
    assert vector_rng.standard_normal() == scalar_rng.standard_normal()


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 7), st.integers(1, 7), st.floats(0.05, 20.0), SEEDS)
def test_send_layers_decides_like_per_pilot_measurements(n_t, n_r, snr_linear, seed):
    rng = np.random.default_rng(seed)
    layers = max(n_t, n_r)
    gains = rng.standard_normal((layers, 2, 2)) + 1j * rng.standard_normal((layers, 2, 2))
    snr = SnrSpec(snr_linear)
    raw, sent, needed = training._send_layers(
        (n_t, n_r), lambda layer, bits_t, bits_r: gains[layer], snr, None,
        np.random.default_rng(seed), ())
    assert sent == needed == layers
    scalar_rng = np.random.default_rng(seed)
    winners = [int(np.argmax([measure_power(gain, snr, scalar_rng)
                              for gain in gains[layer].ravel()]))
               for layer in range(layers)]
    assert raw[0].tolist() == [winner >> 1 for winner in winners[:n_t]]
    assert raw[1].tolist() == [winner & 1 for winner in winners[:n_r]]


@settings(max_examples=25, deadline=None)
@given(POWERS_OF_TWO, POWERS_OF_TWO, POWERS_OF_TWO, MODES, st.booleans(),
       st.floats(0.1, 30.0), SEEDS)
def test_layered_runners_match_per_pilot_path(n_bs, rows, cols, mode, ideal,
                                              snr_linear, seed):
    geo, grid, codes, books = small_setup(n_bs, rows, cols)
    if ideal:
        books = experiments._design_books(
            ExperimentConfig(n_bs=n_bs, n_ris_rows=rows, n_ris_cols=cols,
                             ideal_beams=True), grid, codes)
    ch = draw_channel(geo, grid, mode, seed)
    snr = SnrSpec(snr_linear)
    sizes = (codes[0].n, codes[1].n)

    out = run_coded(ch, books, codes, snr, None, np.random.default_rng(seed), "none",
                    ideal=ideal)
    expected = per_pilot_bits(
        ch, lambda layer, *_: (books[0].layers[layer % sizes[0]],
                               books[1].layers[layer % sizes[1]]),
        sizes, snr, np.random.default_rng(seed), ideal)
    assert (tuple(out.raw_bits_bs), tuple(out.raw_bits_ris)) == expected

    provider = HierarchicalBeamProvider(geo, grid, FAST_GS, ideal=ideal)
    out = run_hierarchical(ch, provider, snr, None, np.random.default_rng(seed))
    expected = per_pilot_bits(ch, provider.layer_pairs, (provider.k_bs, provider.k_ris),
                              snr, np.random.default_rng(seed), ideal)
    assert (tuple(out.raw_bits_bs), tuple(out.raw_bits_ris)) == expected


def _broken(pair: BeamPair) -> BeamPair:
    """The pair with its one codeword's first element at twice the modulus."""
    one = pair.one.copy()
    one[0] *= 2.0
    return BeamPair(one=one, zero=pair.zero)


def test_broken_constant_modulus_is_rejected(desk_books, desk_codes, desk_geometry,
                                             desk_grid):
    ch = draw_channel(desk_geometry, desk_grid, "on_grid", 4)
    snr = SnrSpec(1.0)
    bs_book, ris_book = desk_books
    last = ris_book.n_layers - 1
    broken = replace(ris_book, layers=ris_book.layers[:last] + [_broken(ris_book.layers[last])])
    with pytest.raises(ValueError, match="constant modulus"):
        run_coded(ch, (bs_book, broken), desk_codes, snr, None, derive_rng(0, "m"))

    class BrokenProvider(HierarchicalBeamProvider):
        def layer_pairs(self, layer, bits_t, bits_r):
            bs_pair, ris_pair = super().layer_pairs(layer, bits_t, bits_r)
            return bs_pair, (_broken(ris_pair) if layer == 2 else ris_pair)

    provider = BrokenProvider(desk_geometry, desk_grid, FAST_GS)
    with pytest.raises(ValueError, match="constant modulus"):
        run_hierarchical(ch, provider, snr, None, derive_rng(0, "m"))
    # the intact codebooks run
    run_coded(ch, desk_books, desk_codes, snr, None, derive_rng(0, "m"))


def test_sweep_draws_each_channel_once(monkeypatch):
    calls = []

    def counted(geometry, grid, rng, mode="on_grid"):
        calls.append(1)
        return sample_channel(geometry, grid, rng, mode)

    monkeypatch.setattr(experiments, "sample_channel", counted)
    cfg = ExperimentConfig(
        n_bs=8, n_ris_rows=8, n_ris_cols=8, snr_grid_db=(0.0, 10.0), trials=3,
        ideal_beams=True,
        protocols=ExperimentConfig().protocols + (
            ProtocolSpec("hierarchical", hierarchical_variant="adaptive"),))
    results = run_sweep(cfg, log_trials=True)
    assert len(calls) == len(cfg.snr_grid_db) * cfg.trials
    assert len(results.rows) == len(cfg.snr_grid_db) * len(cfg.protocols)
    assert len(results.trial_log) == len(results.rows) * cfg.trials


@pytest.mark.parametrize("mode", ["on_grid", "continuous"])
def test_coded_decisions_match_per_pilot_path(mode, desk_books, desk_codes,
                                              desk_geometry, desk_grid):
    sizes = (desk_codes[0].n, desk_codes[1].n)

    def pairs(layer, *_):
        return (desk_books[0].layers[layer % sizes[0]],
                desk_books[1].layers[layer % sizes[1]])

    for seed in range(8):
        ch = draw_channel(desk_geometry, desk_grid, mode, seed)
        snr = SnrSpec(0.5)
        out = run_coded(ch, desk_books, desk_codes, snr, None,
                        np.random.default_rng(seed), "decoupled_two_bit")
        expected = per_pilot_bits(ch, pairs, sizes, snr, np.random.default_rng(seed))
        assert (tuple(out.raw_bits_bs), tuple(out.raw_bits_ris)) == expected

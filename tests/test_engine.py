"""The block runners against the per-pilot reference of ``tests/reference.py``.

The reference sends every tuple through ``effective_gain`` and
``measure_power`` one pilot at a time, and decodes each trial with the
per-word ``decode`` on its own syndrome tables. Exhaustive training is checked against a per-tuple
sweep, and adaptive training takes its reference beams from
``ReferencePrefixBeams``, built per bit prefix. The runners must agree with
the reference on gains, on noise and on every decision, must still reject RIS
codewords that break constant modulus, and must give the same bytes whatever
the trial block size.
"""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from reference import (
    CorrectionReport,
    ReferencePrefixBeams,
    achievable_rate,
    bs_transmit,
    effective_gain,
    exhaustive_sweep,
    grid_transmit_pair,
    measure_power,
    per_pilot_bits,
    reference_run,
    ris_transmit,
    run_coded,
    run_hierarchical,
    trial_outcome,
)
from risbeam import channel, experiments, training
from risbeam.arrays import ArrayGeometry, make_angle_grid, ula_steering, upa_steering_uw
from risbeam.blockcode import DECODE_MODES, bits_to_int, build_identity_code
from risbeam.channel import (
    SnrSpec,
    channel_block,
    normalize_channel,
    pilot_noise,
    received_power,
    ris_phase_compensation,
    sample_channel,
)
from risbeam.codebook import BeamPair, GsConfig, build_codebooks
from risbeam.experiments import ExperimentConfig, desk_snr_sweep, run_sweep
from risbeam.seeding import derive_rng
from risbeam.training import (
    HierarchicalBeamProvider,
    ProtocolSpec,
    ceil_log2,
    beam_responses,
    coded_codes,
    narrow_beam_matrices,
    run_adaptive,
    run_exhaustive,
    run_layered,
    tuple_rates,
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


def gain_tables(channels, bs_cov, ris_cov, ideal=False, *, check_modulus=False):
    """(trials, BS columns, RIS columns) gains: outer products of the block's responses."""
    bs, ris = beam_responses(channel_block(channels), bs_cov, ris_cov, ideal,
                             check_modulus=check_modulus)
    return bs[:, :, None] * ris[:, None, :]


@settings(max_examples=40, deadline=None)
@given(POWERS_OF_TWO, POWERS_OF_TWO, POWERS_OF_TWO, MODES, SEEDS)
def test_gain_table_matches_effective_gain(n_bs, rows, cols, mode, seed):
    geo, grid, _, _ = small_setup(n_bs, rows, cols)
    ch = draw_channel(geo, grid, mode, seed)
    rng = np.random.default_rng(seed)
    bs_cov = rng.standard_normal((n_bs, 3)) + 1j * rng.standard_normal((n_bs, 3))
    ris_cov = np.exp(2j * np.pi * rng.random((geo.n_ris, 5))) / np.sqrt(geo.n_ris)
    table = gain_tables([ch], bs_cov, ris_cov, check_modulus=True)[0]
    assert table.shape == (3, 5)
    for i in range(3):
        for j in range(5):
            reference = effective_gain(ch, ris_transmit(ch, ris_cov[:, j]),
                                       bs_transmit(bs_cov[:, i]))
            assert abs(table[i, j] - reference) <= 1e-12
    ideal = gain_tables([ch], bs_cov.real, ris_cov.real, ideal=True)[0]
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

    _, _, provider, reference = adaptive_setup(n_bs, rows, cols, ideal)
    out = run_hierarchical(ch, provider, snr, None, np.random.default_rng(seed))
    expected = per_pilot_bits(ch, reference.layer_pairs, (reference.k_bs, reference.k_ris),
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

    # layer 2 sends the RIS prefixes 2p and 2p + 1 of length 3, where p is the
    # prefix decided in layers 0 and 1 (the same noise draws as a full run)
    provider = HierarchicalBeamProvider(desk_geometry, desk_grid, FAST_GS)
    decided = run_hierarchical(ch, provider, snr, 8, derive_rng(0, "m")).raw_bits_ris[:2]
    p = bits_to_int(decided)
    ris_matrix = provider.prefix_matrices()[1]
    ris_matrix[0, 2**3 - 1 + 2 * (p ^ 1) + 1] *= 2.0  # a length-3 beam this run never sends
    run_hierarchical(ch, provider, snr, None, derive_rng(0, "m"))
    ris_matrix[0, 2**3 - 1 + 2 * p + 1] *= 2.0  # the one beam of layer 2's RIS pair
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


def test_sweep_derotates_each_channel_once(monkeypatch):
    # every runner and the rate evaluation read the block's one de-rotation
    calls = []

    def counted(ch):
        calls.append(1)
        return ris_phase_compensation(ch)

    monkeypatch.setattr(channel, "ris_phase_compensation", counted)
    cfg = ExperimentConfig(
        n_bs=8, n_ris_rows=8, n_ris_cols=8, snr_grid_db=(0.0, 10.0), trials=3, gs=FAST_GS,
        protocols=ExperimentConfig().protocols + (
            ProtocolSpec("hierarchical", hierarchical_variant="adaptive"),))
    run_sweep(cfg)
    assert len(calls) == len(cfg.snr_grid_db) * cfg.trials
    assert not hasattr(training, "ris_phase_compensation")


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


@lru_cache(maxsize=None)
def adaptive_setup(n_bs: int, rows: int, cols: int, ideal: bool):
    """Geometry, grid, a beam provider and its per-prefix reference."""
    geo = ArrayGeometry(n_bs, rows, cols)
    grid = make_angle_grid(geo)
    return (geo, grid, HierarchicalBeamProvider(geo, grid, FAST_GS, ideal=ideal),
            ReferencePrefixBeams(geo, grid, FAST_GS, ideal))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from((1, 2, 4, 8)), st.sampled_from((1, 2, 4, 8)),
       st.sampled_from((1, 2, 4, 8)), MODES, st.booleans(),
       st.sampled_from((1, 7, experiments.TRIAL_BLOCK, experiments.TRIAL_BLOCK + 5)),
       st.one_of(st.none(), st.integers(4, 30)),
       st.lists(st.tuples(st.integers(0, 6), st.sampled_from(("bs", "ris"))), max_size=3),
       st.floats(0.05, 30.0), SEEDS)
def test_adaptive_runner_matches_per_pilot_reference(n_bs, rows, cols, mode, ideal, trials,
                                                     budget, flips, snr_linear, seed):
    assume(n_bs * rows * cols > 1)  # a single candidate per side leaves nothing to train
    geo, grid, provider, reference = adaptive_setup(n_bs, rows, cols, ideal)
    channels = [draw_channel(geo, grid, mode, seed + t) for t in range(trials)]
    snr = SnrSpec(snr_linear)
    runs = run_adaptive(channel_block(channels), provider, snr, budget,
                        [np.random.default_rng(seed + t) for t in range(trials)],
                        inject_flips=flips)
    sizes = (reference.k_bs, reference.k_ris)
    sent = max(sizes) if budget is None else min(max(sizes), budget // 4)
    for t, ch in enumerate(channels):
        bits = per_pilot_bits(ch, reference.layer_pairs, sizes, snr,
                              np.random.default_rng(seed + t), ideal, layers=sent, flips=flips)
        raw = [list(b) + [0] * (n - len(b)) for b, n in zip(bits, sizes)]
        outcome = trial_outcome(runs, t)
        assert (outcome.est_bs_index, outcome.est_ris_index) == (
            min(bits_to_int(raw[0]) + 1, ch.n_bs), min(bits_to_int(raw[1]) + 1, ch.n_ris))
        assert outcome.raw_bits_bs.tolist() == raw[0]
        assert outcome.raw_bits_ris.tolist() == raw[1]
        assert outcome.corrected_bs == outcome.corrected_ris == CorrectionReport(False, False, ())
        assert (outcome.pilots_used, outcome.truncated) == (4 * sent, sent < max(sizes))


@pytest.mark.parametrize("dims", [(8, 2, 4), (16, 8, 8), (64, 16, 16)])
@pytest.mark.parametrize("mode", ["on_grid", "continuous"])
def test_adaptive_layer_tables_equal_one_trial_tables(monkeypatch, dims, mode):
    # the gathered (trials, n, 2) beam stacks give the bytes of each trial's
    # own (n, 2) pair through gain_tables of a one-trial block
    geo, grid, provider, reference = adaptive_setup(*dims, False)
    channels = [draw_channel(geo, grid, mode, seed) for seed in range(experiments.TRIAL_BLOCK)]
    layers = []

    def recording(gain, snr, noise):
        layers.append(gain.copy())
        return received_power(gain, snr, noise)

    monkeypatch.setattr(training, "received_power", recording)
    runs = run_adaptive(channel_block(channels), provider, SnrSpec(0.5), None,
                        [np.random.default_rng(seed) for seed in range(len(channels))])
    assert len(layers) == max(reference.k_bs, reference.k_ris)
    for layer, tables in enumerate(layers):
        for t, ch in enumerate(channels):
            bs_pair, ris_pair = reference.layer_pairs(
                layer, tuple(runs.raw_bits_bs[t, :layer].tolist()),
                tuple(runs.raw_bits_ris[t, :layer].tolist()))
            expected = gain_tables([ch], bs_pair.columns, ris_pair.columns,
                                   check_modulus=True)[0]
            assert tables[t].tobytes() == expected.tobytes()


@lru_cache(maxsize=None)
def layered_setup(n_bs: int, rows: int, cols: int, coded: bool, ideal: bool):
    """Geometry, grid, coded or identity codes, and their codebooks."""
    geo = ArrayGeometry(n_bs, rows, cols)
    grid = make_angle_grid(geo)
    if coded:
        codes = coded_codes(n_bs, (rows, cols))
    else:
        codes = (build_identity_code(ceil_log2(n_bs)),
                 build_identity_code(ceil_log2(rows), ceil_log2(cols)))
    # the config only carries the design settings: a sweep rejects 6 RIS rows for
    # layered protocols, but the runners still take them (and clamp the index)
    cfg = ExperimentConfig(n_bs=n_bs, n_ris_rows=rows, n_ris_cols=cols, gs=FAST_GS,
                           ideal_beams=ideal, protocols=(ProtocolSpec("exhaustive"),))
    return geo, grid, codes, experiments._design_books(cfg, grid, codes)


@st.composite
def layered_cases(draw):
    """(n_bs, rows, cols, coded, decode mode); 6 RIS rows make the RIS index clamp."""
    coded = draw(st.booleans())
    mode = draw(st.sampled_from(DECODE_MODES)) if coded else "none"
    # the dimension-split RIS code needs more than 4 elements per RIS dimension
    rows = draw(st.sampled_from((6, 8) if coded else (2, 4, 6, 8)))
    cols = 8 if coded else draw(st.sampled_from((2, 4, 8)))
    return draw(POWERS_OF_TWO), rows, cols, coded, mode


@settings(max_examples=40, deadline=None)
@given(layered_cases(), MODES, st.booleans(),
       st.sampled_from((1, 7, experiments.TRIAL_BLOCK, experiments.TRIAL_BLOCK + 5)),
       st.one_of(st.none(), st.integers(4, 60)), st.floats(0.05, 30.0), SEEDS)
def test_batched_runner_matches_per_pilot_reference(case, mode, ideal, trials, budget,
                                                    snr_linear, seed):
    n_bs, rows, cols, coded, decode_mode = case
    geo, grid, codes, books = layered_setup(n_bs, rows, cols, coded, ideal)
    channels = [draw_channel(geo, grid, mode, seed + t) for t in range(trials)]
    snr = SnrSpec(snr_linear)
    runs = run_layered(channel_block(channels), books, codes, snr, budget,
                       [np.random.default_rng(seed + t) for t in range(trials)],
                       decode_mode, ideal=ideal)
    for t, ch in enumerate(channels):
        estimate, raw, reports, pilots, truncated = reference_run(
            ch, books, codes, snr, budget, np.random.default_rng(seed + t), decode_mode,
            ideal)
        outcome = trial_outcome(runs, t)
        assert (outcome.est_bs_index, outcome.est_ris_index) == estimate
        assert outcome.raw_bits_bs.tolist() == raw[0].tolist()
        assert outcome.raw_bits_ris.tolist() == raw[1].tolist()
        assert (outcome.corrected_bs, outcome.corrected_ris) == reports
        assert (outcome.pilots_used, outcome.truncated) == (pilots, truncated)


@settings(max_examples=30, deadline=None)
@given(layered_cases(), MODES, st.booleans(), st.integers(2, 20), SEEDS)
def test_block_tables_equal_one_channel_tables(case, mode, ideal, trials, seed):
    geo, grid, _, books = layered_setup(*case[:4], ideal)
    channels = [draw_channel(geo, grid, mode, seed + t) for t in range(trials)]
    matrices = [(books[0].matrix, books[1].matrix)]
    if not ideal:
        matrices.append(narrow_beam_matrices(grid, geo))
    for bs_cov, ris_cov in matrices:
        block = gain_tables(channels, bs_cov, ris_cov, ideal, check_modulus=True)
        for table, ch in zip(block, channels):
            assert table.tobytes() == gain_tables([ch], bs_cov, ris_cov, ideal)[0].tobytes()


@pytest.mark.parametrize("mode", ["on_grid", "continuous"])
def test_trial_block_size_changes_no_byte(monkeypatch, mode):
    default = experiments.TRIAL_BLOCK
    cfg = desk_snr_sweep(trials=40, master_seed=17, sampling_mode=mode, protocols=(
        ExperimentConfig().protocols
        + (ProtocolSpec("hierarchical", hierarchical_variant="adaptive"),)))
    assert 5 < default < cfg.trials
    for ideal in (False, True):  # designed beams, and ideal ones read off mask rows
        results = []
        for block in (1, 5, default):
            monkeypatch.setattr(experiments, "TRIAL_BLOCK", block)
            results.append(run_sweep(replace(cfg, ideal_beams=ideal), log_trials=True))
        assert len(results[0].trial_log) == cfg.trials * len(results[0].rows)
        assert results[0] == results[1] == results[2]


@st.composite
def exhaustive_cases(draw):
    """(n_bs, rows, cols, budget): no budget, 1, a truncating one, or one past every tuple."""
    n_bs, rows, cols = draw(st.sampled_from(
        ((16, 8, 8), (12, 8, 6), (8, 6, 8), (3, 1, 5), (1, 3, 1), (5, 3, 2))))
    total = n_bs * rows * cols
    budget = draw(st.sampled_from((None, 1, "truncating", "past")))
    if budget == "truncating":
        budget = draw(st.integers(2, total - 1))
    elif budget == "past":
        budget = total + draw(st.integers(1, 50))
    return n_bs, rows, cols, budget


@settings(max_examples=20, deadline=None)
@given(exhaustive_cases(), MODES,
       st.sampled_from((1, 7, experiments.TRIAL_BLOCK, experiments.TRIAL_BLOCK + 5)),
       st.floats(0.05, 30.0), SEEDS)
def test_exhaustive_runner_matches_per_tuple_sweep(case, mode, trials, snr_linear, seed):
    n_bs, rows, cols, budget = case
    geo = ArrayGeometry(n_bs, rows, cols)
    grid = make_angle_grid(geo)
    channels = [draw_channel(geo, grid, mode, seed + t) for t in range(trials)]
    snr = SnrSpec(snr_linear)
    runs = run_exhaustive(channel_block(channels), narrow_beam_matrices(grid, geo), snr,
                          budget, [np.random.default_rng(seed + t) for t in range(trials)])
    assert runs.raw_bits_bs.shape == runs.raw_bits_ris.shape == (trials, 0)
    assert runs.decoded == ()
    for t, ch in enumerate(channels):
        estimate, pilots, truncated = exhaustive_sweep(ch, grid, geo, snr, budget,
                                                       np.random.default_rng(seed + t))
        assert (runs.est_bs_index[t], runs.est_ris_index[t]) == estimate
        assert (runs.pilots_used, runs.truncated) == (pilots, truncated)


@pytest.mark.parametrize("dims", [(16, 8, 8), (64, 16, 16), (8, 6, 8), (12, 8, 6)])
def test_narrow_beams_are_grid_steering_vectors(dims):
    geo = ArrayGeometry(*dims)
    grid = make_angle_grid(geo)
    bs_cov, ris_cov = narrow_beam_matrices(grid, geo)
    sp = geo.spacing_over_wavelength
    for i, angle in enumerate(grid.bs_angles):
        assert bs_cov[:, i].tobytes() == ula_steering(geo.n_bs, angle, sp).tobytes()
    for j, (u, w) in enumerate(zip(grid.ris_u, grid.ris_w)):
        expected = upa_steering_uw(geo.n_ris_rows, geo.n_ris_cols, u, w, sp)
        assert ris_cov[:, j].tobytes() == expected.tobytes()


@pytest.mark.parametrize("dims", [(16, 8, 8), (64, 16, 16)])
@pytest.mark.parametrize("mode", ["on_grid", "continuous"])
def test_tuple_rates_equal_achievable_rate_bytes(dims, mode):
    geo = ArrayGeometry(*dims)
    grid = make_angle_grid(geo)
    narrow = narrow_beam_matrices(grid, geo)
    snr_eval = SnrSpec(10.0, noiseless=True)
    rng = np.random.default_rng(dims[0] + len(mode))
    for seed in range(500):
        ch = draw_channel(geo, grid, mode, seed)
        tuples = [(ch.bs_index, ch.ue_ris_index)] + [
            (int(rng.integers(geo.n_bs)) + 1, int(rng.integers(geo.n_ris)) + 1)
            for _ in range(3)]
        expected = [achievable_rate(ch, *grid_transmit_pair(ch, grid, geo, *t), snr_eval)
                    for t in tuples]
        got = tuple_rates(channel_block([ch]), 0, narrow, tuples, snr_eval)
        assert [r.hex() for r in got] == [r.hex() for r in expected]


def test_tuple_rates_reject_broken_constant_modulus(desk_geometry, desk_grid):
    ch = draw_channel(desk_geometry, desk_grid, "on_grid", 2)
    bs_cov, ris_cov = narrow_beam_matrices(desk_grid, desk_geometry)
    broken = ris_cov.copy()
    broken[0, 5] *= 2.0
    snr_eval = SnrSpec(10.0, noiseless=True)
    block = channel_block([ch])
    tuple_rates(block, 0, (bs_cov, broken), [(1, 1), (2, 3)], snr_eval)  # intact columns
    with pytest.raises(ValueError, match="constant modulus"):
        tuple_rates(block, 0, (bs_cov, broken), [(1, 1), (2, 6)], snr_eval)

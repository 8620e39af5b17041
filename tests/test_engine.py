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
from functools import lru_cache, partial
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from reference import (
    CorrectionReport,
    ReferencePrefixBeams,
    achievable_rate,
    bs_transmit,
    classification_margin,
    effective_gain,
    exhaustive_sweep,
    flipped,
    grid_transmit_pair,
    layer_pair,
    measure_power,
    per_pilot_bits,
    reference_run,
    ris_transmit,
    run_coded,
    run_hierarchical,
    sample_full_block,
    trial_outcome,
)
from risbeam import experiments, training
from risbeam.arrays import ArrayGeometry, make_angle_grid, ula_steering, upa_steering_uw
from risbeam.blockcode import DECODE_MODES, bits_to_int
from risbeam.channel import SnrSpec, pilot_noise, received_power, sample_block
from risbeam.codebook import (GsConfig, beam_pattern_matrix, build_codebooks, design_beams,
                              grid_margins, ideal_codebook)
from risbeam.experiments import (ExperimentConfig, desk_snr_sweep, export_results,
                                 export_trial_log, run_sweep)
from risbeam.seeding import derive_rng
from risbeam.training import (
    ProtocolSpec,
    beam_responses,
    narrow_beam_matrices,
    protocol_codes,
    run_adaptive,
    run_exhaustive,
    run_layered,
    tuple_rates,
)

POWERS_OF_TWO = st.sampled_from((2, 4, 8))
MODES = st.sampled_from(("on_grid", "continuous"))
SEEDS = st.integers(0, 2**32 - 1)
FAST_GS = GsConfig(seed=1, k_iter=10)
# the identity codes of the index bits; the adaptive rule also takes a one-candidate side
HIERARCHICAL = ProtocolSpec("hierarchical")
ADAPTIVE = ProtocolSpec("hierarchical", hierarchical_variant="adaptive")


@lru_cache(maxsize=None)
def small_setup(n_bs: int, rows: int, cols: int):
    """Geometry, grid, identity codes and their designed codebooks."""
    geo = ArrayGeometry(n_bs, rows, cols)
    grid = make_angle_grid(geo)
    codes = protocol_codes(HIERARCHICAL, geo)
    return geo, grid, codes, build_codebooks(*codes, grid, geo, FAST_GS)


def draw_block(geo, grid, mode, seed, trials=1):
    """A block whose trial t draws from default_rng(seed + t), with its RIS-BS matrices."""
    return sample_full_block(geo, grid,
                             [np.random.default_rng(seed + t) for t in range(trials)], mode)


def gain_tables(block, bs_cov, ris_cov, ideal=False):
    """(trials, BS columns, RIS columns) gains: outer products of the block's responses."""
    bs, ris = beam_responses(block, bs_cov, ris_cov, ideal)
    return bs[:, :, None] * ris[:, None, :]


@settings(max_examples=40, deadline=None)
@given(POWERS_OF_TWO, POWERS_OF_TWO, POWERS_OF_TWO, MODES, SEEDS)
def test_gain_table_matches_effective_gain(n_bs, rows, cols, mode, seed):
    geo, grid, _, _ = small_setup(n_bs, rows, cols)
    ch = draw_block(geo, grid, mode, seed)
    rng = np.random.default_rng(seed)
    bs_cov = rng.standard_normal((n_bs, 3)) + 1j * rng.standard_normal((n_bs, 3))
    ris_cov = np.exp(2j * np.pi * rng.random((geo.n_ris, 5))) / np.sqrt(geo.n_ris)
    table = gain_tables(ch, bs_cov, ris_cov)[0]
    assert table.shape == (3, 5)
    for i in range(3):
        for j in range(5):
            reference = effective_gain(ch, ris_transmit(ch, ris_cov[:, j]),
                                       bs_transmit(bs_cov[:, i]))
            assert abs(table[i, j] - reference) <= 1e-12
    ideal = gain_tables(ch, bs_cov.real, ris_cov.real, ideal=True)[0]
    assert np.array_equal(ideal, np.outer(bs_cov.real[ch.bs_index[0] - 1],
                                          ris_cov.real[ch.ris_index[0] - 1]))


def test_codebook_matrix_columns_follow_layers(desk_books, desk_codes, desk_grid,
                                               desk_geometry):
    # column 2l + b is layer l's codeword for mask bit b: column 2l + 1 covers
    # mask row l, column 2l its complement, and grid_margins and traces are in column order
    direct = build_codebooks(*desk_codes, desk_grid, desk_geometry, FAST_GS, direct_2d=True)
    for book in (*desk_books, direct[1]):
        n = desk_geometry.n_bs if book.side == "bs" else desk_geometry.n_ris
        assert book.matrix.shape == (n, 2 * book.n_layers) == (n, 2 * len(book.masks))
        assert book.matrix.flags.c_contiguous
        assert book.first_layers(2).matrix.flags.c_contiguous
        assert len(book.traces) == 2 * book.n_layers
        min_in, max_out = grid_margins(book, desk_grid)
        for layer, mask in enumerate(book.masks.astype(bool)):
            for column, cover in ((2 * layer + 1, mask), (2 * layer, ~mask)):
                margin = classification_margin(book.matrix[:, column].copy(), cover,
                                               desk_grid, desk_geometry, book.side)
                assert margin == (min_in[column], max_out[column])
    sizes = (desk_geometry.n_bs, desk_geometry.n_ris)
    for code, n, side in zip(desk_codes, sizes, ("bs", "ris")):
        masks = beam_pattern_matrix(code, n)
        book = ideal_codebook(masks, side)
        assert book.matrix.shape == (n, 2 * code.n) and book.matrix.flags.c_contiguous
        assert np.array_equal(book.matrix[:, 1::2].T, masks)
        assert np.array_equal(book.matrix[:, ::2].T, 1 - masks)


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
        books, _ = design_beams(geo, grid, FAST_GS, codes, ideal=True)
    ch = draw_block(geo, grid, mode, seed)
    snr = SnrSpec(snr_linear)
    sizes = (codes[0].n, codes[1].n)

    out = run_coded(ch, books, codes, snr, None, np.random.default_rng(seed), "none",
                    ideal=ideal)
    expected = per_pilot_bits(
        ch, lambda layer, *_: (layer_pair(books[0], layer % sizes[0]),
                               layer_pair(books[1], layer % sizes[1])),
        sizes, snr, np.random.default_rng(seed), ideal)
    assert (tuple(out.raw_bits_bs), tuple(out.raw_bits_ris)) == expected

    _, _, beams, adaptive_codes, reference = adaptive_setup(n_bs, rows, cols, ideal)
    out = run_hierarchical(ch, beams, adaptive_codes, snr, None, np.random.default_rng(seed),
                           ideal=ideal)
    expected = per_pilot_bits(ch, reference.layer_pairs, (reference.k_bs, reference.k_ris),
                              snr, np.random.default_rng(seed), ideal)
    assert (tuple(out.raw_bits_bs), tuple(out.raw_bits_ris)) == expected


def test_broken_constant_modulus_is_rejected(desk_books, desk_codes, desk_geometry,
                                             desk_grid):
    ch = draw_block(desk_geometry, desk_grid, "on_grid", 4)
    snr = SnrSpec(1.0)
    bs_book, ris_book = desk_books
    # the last layer's one codeword (the last column), its first element at twice the modulus
    matrix = ris_book.matrix.copy()
    matrix[0, -1] *= 2.0
    broken = replace(ris_book, matrix=matrix)
    with pytest.raises(ValueError, match="constant modulus"):
        run_coded(ch, (bs_book, broken), desk_codes, snr, None, derive_rng(0, "m"))

    # layer 2 sends the RIS prefixes 2p and 2p + 1 of length 3, where p is the
    # prefix decided in layers 0 and 1 (the same noise draws as a full run)
    beams = design_beams(desk_geometry, desk_grid, FAST_GS, adaptive=True)[1]
    codes = protocol_codes(HIERARCHICAL, desk_geometry)
    decided = run_hierarchical(ch, beams, codes, snr, 8, derive_rng(0, "m")).raw_bits_ris[:2]
    p = bits_to_int(decided)
    ris_matrix = beams[1]
    ris_matrix[0, 2**3 - 1 + 2 * (p ^ 1) + 1] *= 2.0  # a length-3 beam this run never sends
    run_hierarchical(ch, beams, codes, snr, None, derive_rng(0, "m"))
    ris_matrix[0, 2**3 - 1 + 2 * p + 1] *= 2.0  # the one beam of layer 2's RIS pair
    with pytest.raises(ValueError, match="constant modulus"):
        run_hierarchical(ch, beams, codes, snr, None, derive_rng(0, "m"))
    # the intact codebooks run
    run_coded(ch, desk_books, desk_codes, snr, None, derive_rng(0, "m"))


def test_sweep_draws_each_channel_once(monkeypatch):
    rows = []

    def counted(geometry, grid, rngs, mode="on_grid"):
        rows.append(len(rngs))
        return sample_block(geometry, grid, rngs, mode)

    monkeypatch.setattr(experiments, "sample_block", counted)
    cfg = ExperimentConfig(
        n_bs=8, n_ris_rows=8, n_ris_cols=8, snr_grid_db=(0.0, 10.0), trials=3,
        ideal_beams=True,
        protocols=ExperimentConfig().protocols + (
            ProtocolSpec("hierarchical", hierarchical_variant="adaptive"),))
    results = run_sweep(cfg, log_trials=True)
    assert sum(rows) == len(cfg.snr_grid_db) * cfg.trials
    assert len(results.rows) == len(cfg.snr_grid_db) * len(cfg.protocols)
    assert len(results.trial_log) == len(results.rows) * cfg.trials


def test_sweep_derotates_each_channel_once(monkeypatch):
    # every runner and the rate evaluation read the one de-rotated block that
    # sample_block draws per trial block; 2 points x 3 trials in blocks of 2
    # fill every block, the middle one across the points
    rows = []

    def counted(geometry, grid, rngs, mode="on_grid"):
        rows.append(len(rngs))
        return sample_block(geometry, grid, rngs, mode)

    monkeypatch.setattr(experiments, "sample_block", counted)
    monkeypatch.setattr(experiments, "trial_block", lambda geometry: 2)
    cfg = ExperimentConfig(
        n_bs=8, n_ris_rows=8, n_ris_cols=8, snr_grid_db=(0.0, 10.0), trials=3, gs=FAST_GS,
        protocols=ExperimentConfig().protocols + (
            ProtocolSpec("hierarchical", hierarchical_variant="adaptive"),))
    run_sweep(cfg)
    assert rows == [2, 2, 2]
    assert not hasattr(training, "sample_block")


def test_sweep_rates_each_trial_block_in_one_call(monkeypatch):
    # one tuple_rates call per trial block rates every protocol's estimates,
    # over blocks that span the sweep points
    calls = []

    def counted(block, narrow_beams, est_bs, est_ris, snr_eval):
        calls.append((len(block.bs_index), est_bs.shape, est_ris.shape))
        return tuple_rates(block, narrow_beams, est_bs, est_ris, snr_eval)

    monkeypatch.setattr(experiments, "tuple_rates", counted)
    monkeypatch.setattr(experiments, "trial_block", lambda geometry: 2)
    cfg = ExperimentConfig(
        n_bs=8, n_ris_rows=8, n_ris_cols=8, snr_grid_db=(0.0, 10.0), trials=3, gs=FAST_GS,
        protocols=ExperimentConfig().protocols + (
            ProtocolSpec("hierarchical", hierarchical_variant="adaptive"),))
    results = run_sweep(cfg, log_trials=True)
    protocols = len(cfg.protocols)
    assert calls == [(2, (protocols, 2), (protocols, 2))] * 3
    assert len(results.trial_log) == len(cfg.snr_grid_db) * protocols * cfg.trials


@pytest.mark.parametrize("mode", ["on_grid", "continuous"])
def test_coded_decisions_match_per_pilot_path(mode, desk_books, desk_codes,
                                              desk_geometry, desk_grid):
    sizes = (desk_codes[0].n, desk_codes[1].n)

    def pairs(layer, *_):
        return (layer_pair(desk_books[0], layer % sizes[0]),
                layer_pair(desk_books[1], layer % sizes[1]))

    for seed in range(8):
        ch = draw_block(desk_geometry, desk_grid, mode, seed)
        snr = SnrSpec(0.5)
        out = run_coded(ch, desk_books, desk_codes, snr, None,
                        np.random.default_rng(seed), "decoupled_two_bit")
        expected = per_pilot_bits(ch, pairs, sizes, snr, np.random.default_rng(seed))
        assert (tuple(out.raw_bits_bs), tuple(out.raw_bits_ris)) == expected


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(-1, 14), st.sampled_from(("bs", "ris"))), max_size=4),
       MODES, st.one_of(st.none(), st.integers(4, 50)), st.integers(1, 20),
       st.floats(0.05, 30.0), SEEDS)
def test_flipped_inverts_exactly_the_listed_bits(desk_books, desk_codes, desk_geometry,
                                                 desk_grid, flips, mode, budget, trials,
                                                 snr_linear, seed):
    # noisy designed beams leave one winner per layer, so the seam's swap is a bit flip;
    # a flip past the layers sent or past its side's word length changes nothing
    block = draw_block(desk_geometry, desk_grid, mode, seed, trials)

    def run():
        return run_layered(block, desk_books, desk_codes, SnrSpec(snr_linear), budget,
                           [np.random.default_rng(seed + t) for t in range(trials)])

    plain = run()
    with flipped(flips):
        runs = run()
    assert training.received_power is received_power
    sent = plain.pilots[0] // 4
    for side, before, after in (("bs", plain.raw_bits_bs, runs.raw_bits_bs),
                                ("ris", plain.raw_bits_ris, runs.raw_bits_ris)):
        expected = before.copy()
        for layer, _ in {flip for flip in flips if flip[1] == side}:
            if 0 <= layer < min(sent, expected.shape[1]):
                expected[:, layer] ^= 1
        assert np.array_equal(after, expected)


@lru_cache(maxsize=None)
def adaptive_setup(n_bs: int, rows: int, cols: int, ideal: bool):
    """Geometry, grid, the prefix beams, the identity codes and the per-prefix reference."""
    geo = ArrayGeometry(n_bs, rows, cols)
    grid = make_angle_grid(geo)
    return (geo, grid, design_beams(geo, grid, FAST_GS, adaptive=True, ideal=ideal)[1],
            protocol_codes(ADAPTIVE, geo),
            ReferencePrefixBeams(geo, grid, FAST_GS, ideal))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from((1, 2, 4, 8)), st.sampled_from((1, 2, 4, 8)),
       st.sampled_from((1, 2, 4, 8)), MODES, st.booleans(),
       st.sampled_from((1, 7, experiments.MIN_TRIAL_BLOCK, experiments.MIN_TRIAL_BLOCK + 5)),
       st.one_of(st.none(), st.integers(4, 30)),
       st.lists(st.tuples(st.integers(0, 6), st.sampled_from(("bs", "ris"))), max_size=3),
       st.floats(0.05, 30.0), SEEDS)
def test_adaptive_runner_matches_per_pilot_reference(n_bs, rows, cols, mode, ideal, trials,
                                                     budget, flips, snr_linear, seed):
    assume(n_bs * rows * cols > 1)  # a single candidate per side leaves nothing to train
    geo, grid, beams, codes, reference = adaptive_setup(n_bs, rows, cols, ideal)
    block = draw_block(geo, grid, mode, seed, trials)
    snr = SnrSpec(snr_linear)
    with flipped(flips):
        runs = run_adaptive(block, beams, codes, snr, budget,
                            [np.random.default_rng(seed + t) for t in range(trials)], ideal=ideal)
    sizes = (reference.k_bs, reference.k_ris)
    sent = max(sizes) if budget is None else min(max(sizes), budget // 4)
    for t in range(trials):
        bits = per_pilot_bits(block, reference.layer_pairs, sizes, snr,
                              np.random.default_rng(seed + t), ideal, layers=sent, flips=flips,
                              t=t)
        raw = [list(b) + [0] * (n - len(b)) for b, n in zip(bits, sizes)]
        outcome = trial_outcome(runs, t)
        assert (outcome.est_bs_index, outcome.est_ris_index) == (
            bits_to_int(raw[0]) + 1, bits_to_int(raw[1]) + 1)
        assert outcome.raw_bits_bs.tolist() == raw[0]
        assert outcome.raw_bits_ris.tolist() == raw[1]
        assert outcome.corrected_bs == outcome.corrected_ris == CorrectionReport(False, False, ())
        assert (outcome.pilots_used, outcome.truncated) == (4 * sent, sent < max(sizes))


@pytest.mark.parametrize("dims", [(8, 2, 4), (16, 8, 8), (64, 16, 16)])
@pytest.mark.parametrize("mode", ["on_grid", "continuous"])
def test_adaptive_layer_tables_equal_one_trial_tables(monkeypatch, dims, mode):
    # the gathered (trials, n, 2) beam stacks give the bytes of each trial's
    # own (n, 2) pair through gain_tables of a one-trial block
    geo, grid, beams, codes, reference = adaptive_setup(*dims, False)
    trials = experiments.MIN_TRIAL_BLOCK
    rows = [draw_block(geo, grid, mode, t) for t in range(trials)]  # one-trial blocks
    layers = []

    def recording(gain, snr, noise):
        layers.append(gain.copy())
        return received_power(gain, snr, noise)

    monkeypatch.setattr(training, "received_power", recording)
    runs = run_adaptive(draw_block(geo, grid, mode, 0, trials), beams, codes, SnrSpec(0.5),
                        None, [np.random.default_rng(seed) for seed in range(trials)])
    assert len(layers) == max(reference.k_bs, reference.k_ris)
    for layer, tables in enumerate(layers):
        for t, row in enumerate(rows):
            bs_pair, ris_pair = reference.layer_pairs(
                layer, tuple(runs.raw_bits_bs[t, :layer].tolist()),
                tuple(runs.raw_bits_ris[t, :layer].tolist()))
            expected = gain_tables(row, bs_pair.columns, ris_pair.columns)[0]
            assert tables[t].tobytes() == expected.tobytes()


@lru_cache(maxsize=None)
def layered_setup(n_bs: int, rows: int, cols: int, coded: bool, ideal: bool):
    """Geometry, grid, coded or identity codes, and their codebooks."""
    geo = ArrayGeometry(n_bs, rows, cols)
    grid = make_angle_grid(geo)
    codes = protocol_codes(ProtocolSpec("coded") if coded else HIERARCHICAL, geo)
    return geo, grid, codes, design_beams(geo, grid, FAST_GS, codes, ideal=ideal)[0]


@st.composite
def layered_cases(draw):
    """(n_bs, rows, cols, coded, decode mode)."""
    coded = draw(st.booleans())
    mode = draw(st.sampled_from(DECODE_MODES)) if coded else "none"
    # the dimension-split RIS code needs more than 4 elements per RIS dimension
    rows, cols = (8, 8) if coded else (draw(POWERS_OF_TWO), draw(POWERS_OF_TWO))
    return draw(POWERS_OF_TWO), rows, cols, coded, mode


@settings(max_examples=40, deadline=None)
@given(layered_cases(), MODES, st.booleans(),
       st.sampled_from((1, 7, experiments.MIN_TRIAL_BLOCK, experiments.MIN_TRIAL_BLOCK + 5)),
       st.one_of(st.none(), st.integers(4, 60)), st.floats(0.05, 30.0), SEEDS)
def test_batched_runner_matches_per_pilot_reference(case, mode, ideal, trials, budget,
                                                    snr_linear, seed):
    n_bs, rows, cols, coded, decode_mode = case
    geo, grid, codes, books = layered_setup(n_bs, rows, cols, coded, ideal)
    block = draw_block(geo, grid, mode, seed, trials)
    snr = SnrSpec(snr_linear)
    runs = run_layered(block, books, codes, snr, budget,
                       [np.random.default_rng(seed + t) for t in range(trials)],
                       decode_mode, ideal=ideal)
    for t in range(trials):
        estimate, raw, reports, pilots, truncated = reference_run(
            block, books, codes, snr, budget, np.random.default_rng(seed + t), decode_mode,
            ideal, t)
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
    block = draw_block(geo, grid, mode, seed, trials)
    rows = [draw_block(geo, grid, mode, seed + t) for t in range(trials)]
    matrices = [(books[0].matrix, books[1].matrix)]
    if not ideal:
        matrices.append(narrow_beam_matrices(grid, geo))
    for bs_cov, ris_cov in matrices:
        tables = gain_tables(block, bs_cov, ris_cov, ideal)
        for table, row in zip(tables, rows):
            assert table.tobytes() == gain_tables(row, bs_cov, ris_cov, ideal)[0].tobytes()


@pytest.mark.parametrize("mode", ["on_grid", "continuous"])
def test_trial_block_size_changes_no_byte(monkeypatch, mode):
    cfg = desk_snr_sweep(trials=40, master_seed=17, sampling_mode=mode, protocols=(
        ExperimentConfig().protocols
        + (ProtocolSpec("hierarchical", hierarchical_variant="adaptive"),)))
    default = experiments.trial_block(cfg.geometry)
    assert 5 < cfg.trials <= default  # the desk default runs every trial in one block
    per_trial = 16 * cfg.geometry.n_ris * cfg.geometry.n_bs  # one complex channel array
    for ideal in (False, True):  # designed beams, and ideal ones read off mask rows
        results = []
        for block in (1, 5, 24, default):  # blocks of 24 end on a partial block of 16
            # the memory rule itself sizes each block: room for `block` channel arrays
            monkeypatch.setattr(experiments, "MIN_TRIAL_BLOCK", 1)
            monkeypatch.setattr(experiments, "BLOCK_BYTES", block * per_trial)
            assert experiments.trial_block(cfg.geometry) == block
            results.append(run_sweep(replace(cfg, ideal_beams=ideal), log_trials=True))
        assert len(results[0].trial_log) == cfg.trials * len(results[0].rows)
        assert results[0] == results[1] == results[2] == results[3]


@pytest.mark.parametrize("mode", ["on_grid", "continuous"])
def test_partial_last_block_on_pooled_streams(monkeypatch, tmp_path, mode):
    # 2 points of 17 trials, 34 point-major rows in blocks of 5: a block spans
    # the points and the last holds 4 rows
    cfg = desk_snr_sweep(trials=17, master_seed=5, snr_grid_db=(0.0, 10.0), gs=FAST_GS,
                         sampling_mode=mode, protocols=ExperimentConfig().protocols
                         + (ProtocolSpec("hierarchical", hierarchical_variant="adaptive"),))
    files = []
    for block in (experiments.trial_block(cfg.geometry), 5):
        monkeypatch.setattr(experiments, "trial_block", lambda geometry, block=block: block)
        results = run_sweep(cfg, log_trials=True)
        export_results(results, tmp_path / "rows.csv")
        export_trial_log(results, tmp_path / "trials.csv")
        files.append([(tmp_path / name).read_bytes() for name in ("rows.csv", "trials.csv")])
    assert files[0] == files[1]


def _blocked_sweep(cfg, size):
    """cfg's results run in blocks of ``size`` rows, and the rows each sample_block drew."""
    drawn = []

    def counted(geometry, grid, rngs, mode="on_grid"):
        drawn.append(len(rngs))
        return sample_block(geometry, grid, rngs, mode)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(experiments, "sample_block", counted)
        patch.setattr(experiments, "trial_block", lambda geometry: size)
        return run_sweep(cfg, log_trials=True), drawn


@settings(max_examples=10, deadline=None)
@given(st.integers(2, 4), st.integers(1, 4), MODES, st.booleans(), st.data())
def test_snr_sweep_blocks_fill_across_sweep_points(points, trials, mode, ideal, data):
    # with fewer trials per point than a block holds, one sample_block call
    # draws each block of point-major rows, across the points, and the rows
    # and trial log are those of blocks of one row; in a pilots sweep a
    # block's rows span budgets alike
    cells = points * trials
    partial_sizes = [size for size in range(trials + 1, cells) if cells % size]
    assume(partial_sizes)
    size = data.draw(st.sampled_from(partial_sizes), label="block size")
    cfg = ExperimentConfig(
        n_bs=8, n_ris_rows=8, n_ris_cols=8, snr_grid_db=(-10.0, 0.0, 10.0, 20.0)[:points],
        trials=trials, gs=GsConfig(seed=1, k_iter=2), sampling_mode=mode, ideal_beams=ideal,
        master_seed=3, protocols=ExperimentConfig().protocols + (
            ProtocolSpec("hierarchical", hierarchical_variant="adaptive"),))
    by_row, drawn = _blocked_sweep(cfg, 1)
    assert drawn == [1] * cells
    results, drawn = _blocked_sweep(cfg, size)
    assert drawn == [min(size, cells - start) for start in range(0, cells, size)]
    assert drawn[0] > trials and drawn[-1] < size  # points share a block; a partial last
    assert results == by_row

    pilots = replace(cfg, sweep_over="pilots", snr_grid_db=(10.0,),
                     pilot_grid=(4, 12, 24, 1000)[:points])
    by_row, _ = _blocked_sweep(pilots, 1)
    results, drawn = _blocked_sweep(pilots, size)
    assert drawn == [min(size, cells - start) for start in range(0, cells, size)]
    assert results == by_row


def _row_bytes(runs, t):
    """Row t of every per-trial array of a TrainingRuns, as bytes, and its ``needed``."""
    arrays = (runs.est_bs_index, runs.est_ris_index, runs.raw_bits_bs, runs.raw_bits_ris,
              runs.pilots, *[array for side in runs.decoded for array in side])
    return [array[t].tobytes() for array in arrays] + [runs.needed]


def _desk_runners(ideal, on_grid):
    """The desk geometry and grid, and its three runners: exhaustive, coded, adaptive."""
    geo, grid, beams, identity, _ = adaptive_setup(16, 8, 8, ideal)
    _, _, codes, books = layered_setup(16, 8, 8, True, ideal)
    return geo, grid, (partial(run_exhaustive, narrow_beams=narrow_beam_matrices(grid, geo),
                               on_grid=on_grid),
                       partial(run_layered, books=books, codes=codes,
                               decode_mode="decoupled_two_bit", ideal=ideal),
                       partial(run_adaptive, beams=beams, codes=identity, ideal=ideal))


@settings(max_examples=10, deadline=None)
@given(MODES, st.lists(st.floats(0.01, 100.0), min_size=1, max_size=5), SEEDS)
def test_runners_take_a_per_row_snr(mode, snrs, seed):
    # each runner's rows under a per-row SNR are one-row calls at that row's SNR
    geo, grid, runners = _desk_runners(False, mode == "on_grid")
    block = draw_block(geo, grid, mode, seed, len(snrs))
    for runner in runners:
        runs = runner(block, snr=SnrSpec(np.array(snrs)), budget=None,
                      rngs=[np.random.default_rng(seed + 1 + t) for t in range(len(snrs))])
        for t, snr_linear in enumerate(snrs):
            one = runner(draw_block(geo, grid, mode, seed + t), snr=SnrSpec(snr_linear),
                         budget=None, rngs=[np.random.default_rng(seed + 1 + t)])
            assert _row_bytes(runs, t) == _row_bytes(one, 0)


# (exhaustive, layered) budgets on the desk arrays: 64 tuples a BS row, 1,024 in
# all; 12 coded and 6 hierarchical layers. Exhaustive training sends less than
# a BS row, one, one and a tuple, every tuple, or has a budget past them all;
# a layered budget of 7 leaves 3 pilots unused.
ROW_BUDGETS = ((1, 4), (63, 7), (64, 20), (65, 24), (1000, 44), (1024, 48), (1030, 100),
               (None, None))


@pytest.mark.parametrize("ideal, noiseless", [(False, False), (True, False), (False, True)])
@settings(max_examples=10, deadline=None)
@given(MODES, st.permutations(ROW_BUDGETS),
       st.lists(st.floats(0.01, 100.0), min_size=len(ROW_BUDGETS),
                max_size=len(ROW_BUDGETS)), SEEDS)
def test_runners_take_a_per_row_budget(ideal, noiseless, mode, budgets, snrs, seed):
    # each runner's rows under per-row budgets (and SNRs) are one-row calls at
    # that row's budget, truncated or not, and row t draws from rngs[t] exactly
    # the noise of its own pilots; exhaustive training runs twice, sampling its
    # argmax on noisy on-grid rows as a sweep does, and forming its table of powers
    geo, grid, runners = _desk_runners(ideal, mode == "on_grid")
    runners += (partial(runners[0], on_grid=False),)
    block = draw_block(geo, grid, mode, seed, len(budgets))
    exhaustive, layered = zip(*budgets)
    for runner, row_budgets in zip(runners, (exhaustive, layered, layered, exhaustive)):
        rngs = [np.random.default_rng(seed + 1 + t) for t in range(len(budgets))]
        runs = runner(block, snr=SnrSpec(np.array(snrs), noiseless), budget=list(row_budgets),
                      rngs=rngs)
        assert 0 < np.count_nonzero(runs.pilots < runs.needed) < len(budgets)
        for t, (snr_linear, budget) in enumerate(zip(snrs, row_budgets)):
            rng = np.random.default_rng(seed + 1 + t)
            one = runner(draw_block(geo, grid, mode, seed + t), snr=SnrSpec(snr_linear, noiseless),
                         budget=budget, rngs=[rng])
            assert _row_bytes(runs, t) == _row_bytes(one, 0)
            assert rngs[t].bit_generator.state == rng.bit_generator.state


@pytest.mark.parametrize("runner, budgets", [(0, [1, True]), (0, [1, 0]), (1, [4, 3]),
                                             (1, [8, 4.5]), (2, [None, 2]), (2, [4, 8, 12])])
def test_per_row_budgets_are_checked(runner, budgets):
    # every row's budget is checked, a bool beside an equal int included, and
    # a budget per row needs one per row
    geo, grid, runners = _desk_runners(False, True)
    block = draw_block(geo, grid, "on_grid", 0, 2)
    with pytest.raises(ValueError):
        runners[runner](block, snr=SnrSpec(1.0), budget=budgets,
                        rngs=[np.random.default_rng(t) for t in range(2)])


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
       st.sampled_from((1, 7, experiments.MIN_TRIAL_BLOCK, experiments.MIN_TRIAL_BLOCK + 5)),
       st.floats(0.05, 30.0), SEEDS)
def test_exhaustive_runner_matches_per_tuple_sweep(case, mode, trials, snr_linear, seed):
    n_bs, rows, cols, budget = case
    geo = ArrayGeometry(n_bs, rows, cols)
    grid = make_angle_grid(geo)
    block = draw_block(geo, grid, mode, seed, trials)
    snr = SnrSpec(snr_linear)
    # the table of powers, in either mode; on-grid training samples its argmax
    # instead, which tests/test_theory.py checks against the closed form
    runs = run_exhaustive(block, narrow_beam_matrices(grid, geo), snr, budget,
                          [np.random.default_rng(seed + t) for t in range(trials)], on_grid=False)
    assert runs.raw_bits_bs.shape == runs.raw_bits_ris.shape == (trials, 0)
    assert runs.decoded == ()
    for t in range(trials):
        estimate, pilots, truncated = exhaustive_sweep(block, grid, geo, snr, budget,
                                                       np.random.default_rng(seed + t), t)
        outcome = trial_outcome(runs, t)
        assert (outcome.est_bs_index, outcome.est_ris_index) == estimate
        assert (outcome.pilots_used, outcome.truncated) == (pilots, truncated)


@pytest.mark.parametrize("dims", [(16, 8, 8), (64, 16, 16), (8, 6, 8), (12, 8, 6)])
def test_narrow_beams_are_grid_steering_vectors(dims):
    geo = ArrayGeometry(*dims)
    grid = make_angle_grid(geo)
    bs_cov, ris_cov = narrow_beam_matrices(grid, geo)
    for i, angle in enumerate(grid.bs_angles):
        assert bs_cov[:, i].tobytes() == ula_steering(geo.n_bs, angle).tobytes()
    for j, (u, w) in enumerate(zip(grid.ris_u, grid.ris_w)):
        expected = upa_steering_uw(geo.n_ris_rows, geo.n_ris_cols, u, w)
        assert ris_cov[:, j].tobytes() == expected.tobytes()


@pytest.mark.parametrize("dims", [(16, 8, 8), (64, 16, 16)])
@pytest.mark.parametrize("mode", ["on_grid", "continuous"])
def test_tuple_rates_equal_achievable_rate_bytes(dims, mode):
    geo = ArrayGeometry(*dims)
    grid = make_angle_grid(geo)
    narrow = narrow_beam_matrices(grid, geo)
    snr_eval = SnrSpec(10.0, noiseless=True)
    rng = np.random.default_rng(dims[0] + len(mode))
    trials = 20
    for seed in range(0, 500, trials):
        ch = draw_block(geo, grid, mode, seed, trials)
        # (4, trials) estimates: the true tuple, then three random ones
        est_bs = np.vstack((ch.bs_index, rng.integers(geo.n_bs, size=(3, trials)) + 1))
        est_ris = np.vstack((ch.ris_index, rng.integers(geo.n_ris, size=(3, trials)) + 1))
        got = tuple_rates(ch, narrow, est_bs, est_ris, snr_eval)
        assert got.shape == (4, trials)
        # the factored gain and the one-tuple h_r diag(v) g_mat w round differently
        for (p, t), rate in np.ndenumerate(got):
            tx = grid_transmit_pair(ch, grid, geo, int(est_bs[p, t]), int(est_ris[p, t]), t)
            assert rate == pytest.approx(achievable_rate(ch, *tx, snr_eval, t),
                                         rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("dims", [(16, 8, 8), (64, 16, 16)])
def test_tuple_rate_depends_only_on_its_trial_and_tuple(dims):
    # not on its row of the estimates, the number of rows or the block: adding
    # a protocol moves no other protocol's rate
    geo = ArrayGeometry(*dims)
    grid = make_angle_grid(geo)
    narrow = narrow_beam_matrices(grid, geo)
    snr_eval = SnrSpec(10.0, noiseless=True)
    rng = np.random.default_rng(dims[0])
    block = draw_block(geo, grid, "on_grid", 40, trials=12)
    est_bs = np.vstack((block.bs_index, rng.integers(geo.n_bs, size=(4, 12)) + 1))
    est_ris = np.vstack((block.ris_index, rng.integers(geo.n_ris, size=(4, 12)) + 1))
    rates = tuple_rates(block, narrow, est_bs, est_ris, snr_eval)
    first = draw_block(geo, grid, "on_grid", 40)  # trial 0 alone
    for p in range(5):
        alone = tuple_rates(block, narrow, est_bs[p], est_ris[p], snr_eval)
        assert rates[p].tobytes() == alone.tobytes()
        alone = tuple_rates(first, narrow, est_bs[p, :1], est_ris[p, :1], snr_eval)
        assert rates[p, :1].tobytes() == alone.tobytes()
    tiled = tuple_rates(block, narrow, *(np.tile(est[0], (5, 1)) for est in (est_bs, est_ris)),
                        snr_eval)
    assert np.array_equal(tiled, np.tile(rates[0], (5, 1)))


@pytest.mark.parametrize("dims", [(16, 8, 8), (64, 16, 16)])
def test_every_true_grid_tuple_has_one_noiseless_rate(dims):
    # the closed-form channel rates each (BS, RIS) grid pair's true tuple with
    # the same bits, so a cell where every trial finds its tuple has a rate_ci95
    # of 0.0, not rounding; sample_block draws every pair, 1,024 rows at a time
    geo = ArrayGeometry(*dims)
    grid = make_angle_grid(geo)
    narrow = narrow_beam_matrices(grid, geo)
    pairs = np.stack(np.meshgrid(np.arange(geo.n_bs), np.arange(geo.n_ris), indexing="ij"),
                     axis=-1).reshape(-1, 2).tolist()
    rates = set()
    for start in range(0, len(pairs), 1024):
        # stand-in generators whose two integer draws are a pair's 0-based indices
        rngs = [SimpleNamespace(integers=lambda n, draws=iter(pair): next(draws))
                for pair in pairs[start:start + 1024]]
        block = sample_block(geo, grid, rngs)
        rates.update(tuple_rates(block, narrow, block.bs_index, block.ris_index,
                                 SnrSpec(10.0, noiseless=True)).tolist())
    assert len(rates) == 1
    assert rates.pop() == pytest.approx(np.log2(1 + 10.0 * geo.n_bs * geo.n_ris), rel=1e-15)


def test_tuple_rates_reject_broken_constant_modulus(desk_geometry, desk_grid):
    block = draw_block(desk_geometry, desk_grid, "on_grid", 2)
    bs_cov, ris_cov = narrow_beam_matrices(desk_grid, desk_geometry)
    broken = ris_cov.copy()
    broken[0, 5] *= 2.0
    snr_eval = SnrSpec(10.0, noiseless=True)
    tuple_rates(block, (bs_cov, broken), np.array([[1], [2]]), np.array([[1], [3]]),
                snr_eval)  # intact columns
    with pytest.raises(ValueError, match="constant modulus"):
        tuple_rates(block, (bs_cov, broken), np.array([[1], [2]]), np.array([[1], [6]]),
                    snr_eval)

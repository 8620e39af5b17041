"""Acceptance suite: one test per shipped criterion, at its stated tolerance.

Each test prints a PASS/FAIL line through the conftest report hook.
"""

import itertools
import time

import numpy as np
import pytest

from reference import (achievable_rate, channel_at, grid_transmit_pair, run_coded,
                       sample_full_block)
from risbeam.arrays import ArrayGeometry, make_angle_grid
from risbeam.blockcode import (
    build_identity_code,
    build_plain_code,
    build_reduced_code,
    decode_words,
    encode,
    int_to_bits,
    min_distance,
    syndrome,
)
from risbeam.channel import SnrSpec
from risbeam.cli import main
from risbeam.codebook import GsConfig, beam_pattern_matrix, build_codebooks, ideal_codebook
from risbeam.experiments import ExperimentConfig, export_results, run_sweep
from risbeam.seeding import derive_rng
from risbeam.training import ProtocolSpec, narrow_beam_matrices, run_exhaustive

SPLIT_Q_8X8 = np.array(
    [
        [1, 1, 0, 0, 0, 0],
        [1, 0, 1, 0, 0, 0],
        [0, 1, 1, 0, 0, 0],
        [0, 0, 0, 1, 1, 0],
        [0, 0, 0, 1, 0, 1],
        [0, 0, 0, 0, 1, 1],
    ],
    dtype=np.uint8,
)


@pytest.fixture(scope="module")
def full_scale_books():
    geometry = ArrayGeometry(64, 16, 16)
    grid = make_angle_grid(geometry)
    code_t = build_plain_code(6)
    code_r = build_reduced_code(4, 4)
    start = time.monotonic()
    books = build_codebooks(code_t, code_r, grid, geometry, GsConfig(seed=7))
    return geometry, books, time.monotonic() - start


def test_criterion_01_overhead_exactness(capsys):
    start = time.monotonic()
    assert main(["overhead", "--nt", "64", "--ris", "16x16"]) == 0
    elapsed = time.monotonic() - start
    out = capsys.readouterr().out.splitlines()
    assert out == ["exhaustive: 16384", "hierarchical: 32", "coded: 56"]
    assert elapsed < 1.0


def test_criterion_02_code_construction():
    start = time.monotonic()
    code = build_reduced_code(3, 3)
    assert np.array_equal(code.q, SPLIT_Q_8X8)
    assert min_distance(code) == 3

    info = int_to_bits(np.arange(64), 6)
    unit = np.eye(12, dtype=np.uint8)
    corrupted = (encode(code, info)[:, None, :] ^ unit).reshape(-1, 12)
    bits, *_ = decode_words(code, corrupted, "one_bit")
    single_ok = int((bits.reshape(64, 12, 6) == info[:, None, :]).all(axis=-1).sum())
    assert single_ok == 64 * 12

    side1 = [0, 1, 2, 6, 7, 8]
    side2 = [3, 4, 5, 9, 10, 11]
    pairs = np.array([unit[p1] ^ unit[p2] for p1, p2 in itertools.product(side1, side2)])
    corrupted = (encode(code, info)[:, None, :] ^ pairs).reshape(-1, 12)
    bits, *_ = decode_words(code, corrupted, "decoupled_two_bit")
    double_ok = int((bits.reshape(64, 36, 6) == info[:, None, :]).all(axis=-1).sum())
    bits1, *_ = decode_words(code, corrupted, "one_bit")
    one_bit_failures = int((bits1.reshape(64, 36, 6) != info[:, None, :]).any(axis=-1).sum())
    assert double_ok == 64 * 36
    assert one_bit_failures >= 1
    assert time.monotonic() - start < 5.0


def test_criterion_03_syndrome_anchor():
    code = build_reduced_code(3, 3)
    for value in range(64):
        word = encode(code, int_to_bits(value, 6))
        word[0] ^= 1
        assert list(syndrome(code, word)) == [1, 1, 0, 0, 0, 0]


def test_criterion_04_constant_modulus(full_scale_books, desk_books):
    _, books_16, _ = full_scale_books
    for book in (books_16[1], desk_books[1]):
        n_ris = book.matrix.shape[0]
        target = 1.0 / np.sqrt(n_ris)
        for vec in book.matrix.T:
            assert np.abs(np.abs(vec) - target).max() < 1e-12


def test_criterion_05_gs_convergence(full_scale_books):
    geometry, (_, ris_book), design_time = full_scale_books
    assert geometry.n_ris == 256
    assert ris_book.n_layers == 14
    n_traces = 0
    for traces in ris_book.traces:
        for trace in traces:
            assert trace.shape == (100,)
            assert trace[-1] < 1e-2
            assert trace[:75].min() <= 0.1 * trace[0]
            n_traces += 1
    assert n_traces >= 14  # every layer ran at least one iterative design
    assert design_time < 300.0


def test_criterion_06_mask_balance():
    cases = [
        (build_plain_code(3), 8),
        (build_plain_code(4), 16),
        (build_plain_code(6), 64),
        (build_reduced_code(3, 3), 64),
        (build_reduced_code(4, 4), 256),
    ]
    for code, n_grid in cases:
        pattern = beam_pattern_matrix(code, n_grid)
        counts = pattern.sum(axis=1)
        assert (counts == n_grid // 2).all()


def test_criterion_07_oracle_end_to_end():
    start = time.monotonic()
    geometry = ArrayGeometry(8, 8, 8)
    grid = make_angle_grid(geometry)
    codes = (build_plain_code(3), build_reduced_code(3, 3))
    books = (
        ideal_codebook(beam_pattern_matrix(codes[0], 8), "bs"),
        ideal_codebook(beam_pattern_matrix(codes[1], 64), "ris"),
    )
    hier_codes = (build_identity_code(3), build_identity_code(3, 3))
    hier_books = (
        ideal_codebook(beam_pattern_matrix(hier_codes[0], 8), "bs"),
        ideal_codebook(beam_pattern_matrix(hier_codes[1], 64), "ris"),
    )
    snr = SnrSpec(1.0, noiseless=True)
    rng = derive_rng(0, "oracle")

    checked = 0
    for bs_i in range(1, 9):
        for ris_i in range(1, 65):
            ch = channel_at(geometry, grid, bs_i, ris_i, gr_index=(bs_i * 13 + ris_i) % 64 + 1)
            for mode in ("none", "one_bit", "decoupled_two_bit"):
                out = run_coded(ch, books, codes, snr, None, rng, mode, ideal=True)
                assert (out.est_bs_index, out.est_ris_index) == (bs_i, ris_i)
            out = run_coded(ch, hier_books, hier_codes, snr, None, rng, "none", ideal=True)
            assert (out.est_bs_index, out.est_ris_index) == (bs_i, ris_i)
            checked += 1
    assert checked == 512
    assert time.monotonic() - start < 30.0


def test_criterion_08_snr_ordering():
    start = time.monotonic()
    cfg = ExperimentConfig(
        n_bs=16, n_ris_rows=8, n_ris_cols=8,
        snr_grid_db=(0.0, 20.0),
        trials=2000,
        protocols=(
            ProtocolSpec("hierarchical"),
            ProtocolSpec("coded", "one_bit"),
            ProtocolSpec("coded", "decoupled_two_bit"),
        ),
        gs=GsConfig(seed=1),
        master_seed=2024,
    )
    results = run_sweep(cfg)
    rows = {(r.protocol, r.sweep_value): r for r in results.rows}

    two_bit = rows[("coded_decoupled_two_bit", 0.0)]
    one_bit = rows[("coded_one_bit", 0.0)]
    hier = rows[("hierarchical", 0.0)]
    assert two_bit.success_rate >= one_bit.success_rate >= hier.success_rate
    # non-overlapping 95% intervals between coded one-bit and hierarchical
    assert (one_bit.success_rate - one_bit.success_ci95
            > hier.success_rate + hier.success_ci95)
    assert rows[("coded_decoupled_two_bit", 20.0)].success_rate >= 0.95
    assert time.monotonic() - start < 600.0


def test_criterion_09_pilot_sweep_shape(desk_codes):
    start = time.monotonic()
    geometry = ArrayGeometry(16, 8, 8)
    grid = make_angle_grid(geometry)
    sufficient = 4 * max(desk_codes[0].n, desk_codes[1].n)
    assert sufficient == 48

    cfg = ExperimentConfig(
        n_bs=16, n_ris_rows=8, n_ris_cols=8,
        snr_grid_db=(10.0,),
        pilot_grid=(sufficient,),
        trials=400,
        protocols=(ProtocolSpec("coded", "decoupled_two_bit"),),
        gs=GsConfig(seed=1),
        master_seed=99,
        sweep_over="pilots",
    )
    results = run_sweep(cfg, log_trials=True)
    coded_rates = np.array([rec.rate for rec in results.trial_log])

    eval_snr = SnrSpec(cfg.eval_snr_linear, noiseless=True)
    block = sample_full_block(geometry, grid, [derive_rng(
        cfg.master_seed, "channel", "pilots", float(sufficient), trial)
        for trial in range(cfg.trials)])
    # the noiseless block runner, checked against the per-tuple sweep in
    # test_engine.py, finds each channel's best tuple in a fraction of the time
    best = run_exhaustive(block, narrow_beam_matrices(grid, geometry),
                          SnrSpec(1.0, noiseless=True), None,
                          [np.random.default_rng(0)] * cfg.trials, on_grid=True)
    ceilings = np.empty(cfg.trials)
    for trial in range(cfg.trials):
        v, w = grid_transmit_pair(block, grid, geometry, int(best.est_bs_index[trial]),
                                  int(best.est_ris_index[trial]), trial)
        ceilings[trial] = achievable_rate(block, v, w, eval_snr, trial)
    assert coded_rates.mean() >= 0.99 * ceilings.mean()

    cfg_ex = ExperimentConfig(
        n_bs=16, n_ris_rows=8, n_ris_cols=8,
        snr_grid_db=(10.0,),
        pilot_grid=(100,),
        trials=400,
        protocols=(ProtocolSpec("exhaustive"),),
        master_seed=99,
        sweep_over="pilots",
    )
    row = run_sweep(cfg_ex).rows[0]
    coverage_fraction = 100 / (16 * 64)
    assert row.success_rate < 5.0 * coverage_fraction
    assert time.monotonic() - start < 600.0


def test_criterion_10_determinism(tmp_path):
    cfg = ExperimentConfig(
        n_bs=8, n_ris_rows=8, n_ris_cols=8,
        snr_grid_db=(0.0,),
        trials=25,
        protocols=(ProtocolSpec("coded", "one_bit"), ProtocolSpec("hierarchical")),
        gs=GsConfig(seed=4, k_iter=40),
        master_seed=11,
    )
    files = []
    for tag in ("a", "b"):
        results = run_sweep(cfg)
        csv_path = tmp_path / f"{tag}.csv"
        json_path = tmp_path / f"{tag}.json"
        export_results(results, csv_path, "csv")
        export_results(results, json_path, "json")
        files.append((csv_path.read_bytes(), json_path.read_bytes()))
    assert files[0][0] == files[1][0]
    assert files[0][1] == files[1][1]

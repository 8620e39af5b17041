"""Ideal-beam and exhaustive sweeps against the closed forms of ``tests/theory.py``."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from risbeam import training
from risbeam.arrays import ArrayGeometry, make_angle_grid
from risbeam.channel import ChannelBlock, SnrSpec, pilot_noise, sample_block
from risbeam.experiments import PRESETS, desk_snr_sweep, run_sweep
from risbeam.training import ProtocolSpec, narrow_beam_matrices, protocol_codes, run_exhaustive
from theory import (adaptive_success, decodable_patterns, exhaustive_success,
                    hierarchical_success, layered_success, p0)

CODED = (ProtocolSpec("coded", "one_bit"), ProtocolSpec("coded", "decoupled_two_bit"))
ADAPTIVE = ProtocolSpec("hierarchical", hierarchical_variant="adaptive")
EXHAUSTIVE = (ProtocolSpec("exhaustive"),)


def assert_within_4_sigma(rows, success) -> None:
    """Each row's success count within 4 binomial sigma of ``success(row)`` trials."""
    for row in rows:
        p = success(row)
        successes = round(row.success_rate * row.trials)
        sigma = np.sqrt(row.trials * p * (1 - p))
        assert abs(successes - row.trials * p) <= 4 * sigma, (row, p)


def linear(row) -> float:
    return 10 ** (row.sweep_value / 10)


@pytest.mark.parametrize("snr_linear", [0.0, 0.3, 1.0, 3.2, 10.0, 31.6])
def test_p0_is_the_true_tuples_argmax_probability(snr_linear):
    # 2X ~ ncx2(2, 2s) for the true power X = |sqrt(s) + n|^2, n ~ CN(0, 1), and the
    # three noise-only powers are Exp(1): the true tuple wins with E[(1 - e^-X)^3]
    true_power = stats.ncx2(df=2, nc=2 * snr_linear, scale=0.5)
    quadrature, _ = integrate.quad(lambda x: (1 - np.exp(-x)) ** 3 * true_power.pdf(x),
                                   0, np.inf)
    assert p0(snr_linear) == pytest.approx(quadrature, abs=1e-9)


def test_ideal_hierarchical_sweep_matches_the_closed_form():
    # desk: k_bs = 4 and k_ris = 6 layers; each point within 4 binomial sigma
    cfg = desk_snr_sweep(trials=4000, master_seed=0, snr_grid_db=(-5.0, 0.0, 5.0, 10.0, 15.0),
                         ideal_beams=True, protocols=(ProtocolSpec("hierarchical"),))
    rows = run_sweep(cfg).rows
    assert [row.sweep_value for row in rows] == list(cfg.snr_grid_db)
    assert_within_4_sigma(rows, lambda row: hierarchical_success(linear(row), 4, 6))


def test_layered_form_with_identity_codes_is_the_hierarchical_form():
    # identity codes decode in mode "none": only the all-zero error word decodes right
    codes = protocol_codes(ProtocolSpec("hierarchical"), desk_snr_sweep().geometry)
    for snr_linear in (0.3, 1.0, 3.2):
        assert layered_success(snr_linear, codes, "none") == pytest.approx(
            hierarchical_success(snr_linear, 4, 6), rel=1e-12)


def test_ideal_coded_sweep_matches_the_closed_form():
    # desk: 8 BS and 64 RIS error words decode right in both modes
    cfg = desk_snr_sweep(trials=4000, master_seed=0, snr_grid_db=(-5.0, 0.0, 5.0, 10.0),
                         ideal_beams=True, protocols=CODED)
    codes = protocol_codes(CODED[0], cfg.geometry)
    for mode in ("one_bit", "decoupled_two_bit"):
        assert [len(decodable_patterns(code, m))
                for code, m in zip(codes, ("one_bit", mode))] == [8, 64]
    rows = run_sweep(cfg).rows
    assert [row.protocol for row in rows] == [p.tag for p in CODED] * len(cfg.snr_grid_db)
    assert_within_4_sigma(rows, lambda row: layered_success(
        linear(row), codes, row.protocol.removeprefix("coded_")))


def test_ideal_adaptive_sweep_matches_the_closed_form():
    cfg = desk_snr_sweep(trials=4000, master_seed=0, snr_grid_db=(-5.0, 0.0, 5.0, 10.0),
                         ideal_beams=True, protocols=(ADAPTIVE,))
    assert_within_4_sigma(run_sweep(cfg).rows,
                          lambda row: adaptive_success(linear(row), 4, 6))


def test_exhaustive_sweep_matches_the_closed_form():
    # the narrow beams are the grid's steering columns: one tuple of gain sqrt(1024)
    cfg = desk_snr_sweep(trials=4000, master_seed=0, protocols=EXHAUSTIVE,
                         snr_grid_db=(-36.0, -33.0, -30.0, -27.0, -24.0, -21.0))
    assert_within_4_sigma(run_sweep(cfg).rows,
                          lambda row: exhaustive_success(linear(row), 16, 64))


@pytest.mark.parametrize("snr_db", [-40.0, -32.0])
def test_full_exhaustive_pilots_sweep_matches_the_closed_form(snr_db):
    # every budget of the full pilots preset, 4 tuples to past all 16,384
    cfg = PRESETS["full"]["pilots"](trials=4000, snr_grid_db=(snr_db,), protocols=EXHAUSTIVE)
    rows = run_sweep(cfg).rows
    assert [row.sweep_value for row in rows] == list(cfg.pilot_grid)
    assert_within_4_sigma(rows, lambda row: exhaustive_success(
        10 ** (snr_db / 10), 64, 256, row.sweep_value))


# -- on-grid exhaustive training draws its argmax: against the table, and its edge cases

DESK = ArrayGeometry(16, 8, 8)


def block_at(geometry, bs_index, ris_index) -> ChannelBlock:
    """``sample_block``'s on-grid block whose trial t has the true 1-based tuple
    (bs_index[t], ris_index[t])."""
    stand_ins = [SimpleNamespace(integers=lambda n, draws=iter((b - 1, r - 1)): next(draws))
                 for b, r in zip(bs_index, ris_index)]
    return sample_block(geometry, make_angle_grid(geometry), stand_ins)


def exhaustive(geometry, block, snr, budget, seeds, on_grid=True):
    """run_exhaustive on a block, trial t's noise from default_rng(seeds[t]), and its rngs."""
    rngs = [np.random.default_rng(seed) for seed in seeds]
    narrow = narrow_beam_matrices(make_angle_grid(geometry), geometry)
    return run_exhaustive(block, narrow, snr, budget, rngs, on_grid=on_grid), rngs


@pytest.mark.parametrize("snr_db", [-30.0, -24.0])
def test_sampled_and_table_runs_both_match_the_closed_form(snr_db):
    # paired runs at equal seeds on one block, half the trials sending 300 tuples
    trials = 4000
    grid = make_angle_grid(DESK)
    block = sample_block(DESK, grid, [np.random.default_rng(t) for t in range(trials)])
    budgets = [None, 300] * (trials // 2)
    snr = SnrSpec(10 ** (snr_db / 10))
    for on_grid in (True, False):
        runs, _ = exhaustive(DESK, block, snr, budgets, range(trials, 2 * trials), on_grid)
        hits = (runs.est_bs_index == block.bs_index) & (runs.est_ris_index == block.ris_index)
        assert list(runs.pilots) == [1024, 300] * (trials // 2)
        for first, budget in enumerate(budgets[:2]):
            rows = [SimpleNamespace(trials=trials // 2,
                                    success_rate=hits[first::2].mean())]
            assert_within_4_sigma(rows, lambda row: exhaustive_success(
                snr.snr_linear, 16, 64, budget))


@pytest.mark.parametrize("dims, budget, snr_linear", [((2, 1, 1), None, 0.01),
                                                      ((1, 3, 1), 2, 0.5),
                                                      ((5, 3, 2), 7, 0.1)])
def test_small_grids_match_the_closed_form(dims, budget, snr_linear):
    # on two to 30 tuples a loser that could be the true tuple would show
    geometry, trials = ArrayGeometry(*dims), 4000
    block = sample_block(geometry, make_angle_grid(geometry),
                         [np.random.default_rng(t) for t in range(trials)])
    runs, _ = exhaustive(geometry, block, SnrSpec(snr_linear), budget,
                         range(trials, 2 * trials))
    hits = (runs.est_bs_index == block.bs_index) & (runs.est_ris_index == block.ris_index)
    assert_within_4_sigma([SimpleNamespace(trials=trials, success_rate=hits.mean())],
                          lambda row: exhaustive_success(snr_linear, dims[0],
                                                         dims[1] * dims[2], budget))


SMALL = st.sampled_from([(1, 1, 1), (3, 1, 5), (1, 3, 1), (5, 3, 2), (16, 8, 8)])


@settings(max_examples=25, deadline=None)
@given(SMALL, st.data(), st.floats(1e-3, 1e3), st.integers(0, 2**32 - 1))
def test_one_tuple_sent_is_the_estimate(dims, data, snr_linear, seed):
    # a budget of 1 sends tuple 0 alone: the true tuple 0 has no competitor
    # (m = 0) and any other true tuple goes unsent; each trial draws 4 uniforms
    geometry = ArrayGeometry(*dims)
    bs = data.draw(st.integers(1, geometry.n_bs))
    ris = data.draw(st.integers(1, geometry.n_ris))
    runs, rngs = exhaustive(geometry, block_at(geometry, [1, bs], [1, ris]),
                            SnrSpec(snr_linear), 1, [seed, seed + 1])
    assert list(runs.est_bs_index) == list(runs.est_ris_index) == [1, 1]
    assert list(runs.pilots) == [1, 1]
    for rng, used in zip(rngs, (seed, seed + 1)):
        fresh = np.random.default_rng(used)
        fresh.random(4)
        assert rng.bit_generator.state == fresh.bit_generator.state


@settings(max_examples=25, deadline=None)
@given(SMALL, st.data(), st.floats(1e-3, 1e6), st.integers(0, 2**32 - 1))
def test_a_true_tuple_not_sent_leaves_a_sent_estimate(dims, data, snr_linear, seed):
    geometry = ArrayGeometry(*dims)
    total = geometry.n_bs * geometry.n_ris
    true = data.draw(st.integers(0, total - 1))
    budget = data.draw(st.integers(1, max(1, true)))  # tuple `true` not sent if true > 0
    trials = 16
    block = block_at(geometry, [true // geometry.n_ris + 1] * trials,
                     [true % geometry.n_ris + 1] * trials)
    runs, _ = exhaustive(geometry, block, SnrSpec(snr_linear), budget,
                         range(seed, seed + trials))
    estimates = (runs.est_bs_index - 1) * geometry.n_ris + runs.est_ris_index - 1
    assert (estimates < budget).all()


@settings(max_examples=10, deadline=None)
@given(SMALL, st.integers(1, 50), st.floats(1e-3, 1e3), st.integers(0, 2**32 - 1))
def test_a_budget_past_every_tuple_sends_them_all(dims, extra, snr_linear, seed):
    geometry = ArrayGeometry(*dims)
    total = geometry.n_bs * geometry.n_ris
    grid = make_angle_grid(geometry)
    block = sample_block(geometry, grid, [np.random.default_rng(seed + t) for t in range(8)])
    past, past_rngs = exhaustive(geometry, block, SnrSpec(snr_linear), total + extra,
                                 range(seed, seed + 8))
    every, every_rngs = exhaustive(geometry, block, SnrSpec(snr_linear), None,
                                   range(seed, seed + 8))
    assert list(past.pilots) == [total] * 8
    for array in ("est_bs_index", "est_ris_index", "pilots"):
        assert getattr(past, array).tobytes() == getattr(every, array).tobytes()
    assert [r.bit_generator.state for r in past_rngs] == [
        r.bit_generator.state for r in every_rngs]


@pytest.mark.parametrize("overrides, table", [({}, False),
                                              ({"sampling_mode": "continuous"}, True),
                                              ({"noiseless": True}, True)])
def test_only_noisy_on_grid_training_samples(monkeypatch, overrides, table):
    # continuous and noiseless sweeps form each trial's table, one pilot_noise call a trial
    calls = []
    monkeypatch.setattr(training, "pilot_noise",
                        lambda *args: calls.append(args) or pilot_noise(*args))
    cfg = desk_snr_sweep(trials=5, snr_grid_db=(0.0, 10.0), protocols=EXHAUSTIVE, **overrides)
    run_sweep(cfg)
    assert len(calls) == (10 if table else 0)

"""Ideal-beam sweeps against the closed forms of ``tests/theory.py``."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import integrate, stats

from risbeam.experiments import desk_snr_sweep, run_sweep
from risbeam.training import ProtocolSpec, protocol_codes
from theory import (adaptive_success, decodable_patterns, exhaustive_success,
                    hierarchical_success, layered_success, p0)

CODED = (ProtocolSpec("coded", "one_bit"), ProtocolSpec("coded", "decoupled_two_bit"))
ADAPTIVE = ProtocolSpec("hierarchical", hierarchical_variant="adaptive")


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
    cfg = desk_snr_sweep(trials=2000, master_seed=0, snr_grid_db=(-30.0, -27.0, -24.0, -21.0),
                         protocols=(ProtocolSpec("exhaustive"),))
    assert_within_4_sigma(run_sweep(cfg).rows,
                          lambda row: exhaustive_success(linear(row), 16, 64))

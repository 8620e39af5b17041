"""Ideal-beam sweeps against the closed forms of ``tests/theory.py``."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import integrate, stats

from risbeam.experiments import desk_snr_sweep, run_sweep
from risbeam.training import ProtocolSpec
from theory import hierarchical_success, p0


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
    for row in rows:
        p = hierarchical_success(10 ** (row.sweep_value / 10), 4, 6)
        successes = round(row.success_rate * row.trials)
        sigma = np.sqrt(row.trials * p * (1 - p))
        assert abs(successes - row.trials * p) <= 4 * sigma, row

"""Closed-form success probabilities of training with ideal beams on the grid.

With ideal (mask-valued) beams and an on-grid channel, the true tuple of a
layer has gain 1 and the other three gain 0. Each power is
``|sqrt(s) g + n|^2`` with unit complex Gaussian noise, so the layer's argmax
is the true tuple with probability ``p0(s)``, and each wrong-bit pattern (BS
only, RIS only, both) with probability ``(1 - p0) / 3``. Exhaustive training
sends the grid's narrow beams, whose off-true tuples have gain zero up to
rounding. Tests import it as ``theory``, like ``reference``.
"""

from __future__ import annotations

from math import comb, exp

import numpy as np
from scipy import integrate, stats

from risbeam.blockcode import decode_words, int_to_bits


def p0(snr_linear: float) -> float:
    """Probability that the gain-1 tuple has the largest of four powers at linear SNR s.

    ``E[(1 - e^-X)^3]`` for the true power X, whose Laplace transform is
    ``E[e^-kX] = exp(-k s / (k + 1)) / (k + 1)``.
    """
    return sum(comb(3, k) * (-1) ** k / (k + 1) * exp(-k * snr_linear / (k + 1))
               for k in range(4))


def _power(snr_linear: float, gain2: float = 1.0):
    """The distribution of ``|sqrt(s) g + n|^2`` for ``|g|^2 = gain2``: 2X ~ ncx2(2, 2 s gain2)."""
    return stats.ncx2(df=2, nc=2 * snr_linear * gain2, scale=0.5)


def p2(snr_linear: float) -> float:
    """Probability that the larger of two gain-1 powers beats the larger of two noise-only
    powers: ``integral of 2 f(x) F(x) (1 - e^-x)^2 dx`` for the gain-1 power's f and F."""
    power = _power(snr_linear)
    value, _ = integrate.quad(lambda x: 2 * power.pdf(x) * power.cdf(x) * (1 - exp(-x)) ** 2,
                              0, np.inf)
    return value


def hierarchical_success(snr_linear: float, k_bs: int, k_ris: int) -> float:
    """Full-coverage hierarchical training: ``p0^k_bs * (p0 + (1 - p0)/3)^(k_ris - k_bs)``.

    While both sides have bits left, a layer is right only if both bits are.
    Once the shorter side is resolved, its bit no longer counts, so the true
    tuple or the wrong pattern on that side alone will do.
    """
    p = p0(snr_linear)
    return p ** min(k_bs, k_ris) * (p + (1 - p) / 3) ** abs(k_ris - k_bs)


def decodable_patterns(code, mode: str) -> np.ndarray:
    """The (patterns, n) error words after which a side decodes its information right.

    Syndrome decoding sees only the error word, so a received word decodes
    right exactly when its error word decodes to zero information bits; all
    ``2**n`` words are decoded once to find them.
    """
    words = int_to_bits(np.arange(2**code.n), code.n)
    return words[~decode_words(code, words, mode)[0].any(axis=1)]


def layered_success(snr_linear: float, codes, decode_mode: str) -> float:
    """Layered training (``run_layered``): the probability of each pair of decodable error
    words, summed.

    Layer l decides bit l of each side whose code is longer than l. A layer
    that decides both bits is right with probability ``p0``, and each wrong
    pattern has ``q = (1 - p0)/3``. A layer that decides one side's bit only
    is right with ``p0 + q``. The BS side decodes with one-bit correction in
    the decoupled two-bit mode.
    """
    p = p0(snr_linear)
    q = (1 - p) / 3
    bs_mode = "one_bit" if decode_mode == "decoupled_two_bit" else decode_mode
    e_bs, e_ris = (decodable_patterns(code, mode)
                   for code, mode in zip(codes, (bs_mode, decode_mode)))
    both = min(e_bs.shape[1], e_ris.shape[1])
    joint = np.where(e_bs[:, None, :both] | e_ris[None, :, :both], q, p).prod(axis=-1)
    alone = [np.where(e[:, both:], 2 * q, p + q).prod(axis=-1) for e in (e_bs, e_ris)]
    return float((alone[0][:, None] * joint * alone[1][None, :]).sum())


def adaptive_success(snr_linear: float, k_bs: int, k_ris: int) -> float:
    """Adaptive hierarchical training: ``p0^min(k) * p2^|k_bs - k_ris|``.

    A layer with bits left on both sides sends one gain-1 tuple. Once the
    shorter side is resolved it repeats its final beam, so two tuples carry
    gain 1 and the longer side's bit is right with ``p2``.
    """
    return p0(snr_linear) ** min(k_bs, k_ris) * p2(snr_linear) ** abs(k_bs - k_ris)


def exhaustive_success(snr_linear: float, n_bs: int, n_ris: int, budget=None) -> float:
    """Exhaustive training on the grid under a budget of c tuples (None for all N):
    ``(c / N) * integral of f(x) (1 - e^-x)^(c - 1) dx``.

    The true tuple is uniform over the N tuples, so it is among the c sent with
    probability c / N. Its gain is ``sqrt(N)``, so f is the density of its
    power, and it must beat the c - 1 noise-only powers of the other tuples sent.
    """
    n = n_bs * n_ris
    c = n if budget is None else min(int(budget), n)
    power = _power(snr_linear, n)
    value, _ = integrate.quad(lambda x: power.pdf(x) * exp((c - 1) * np.log1p(-exp(-x))),
                              0, np.inf)
    return c / n * value

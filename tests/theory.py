"""Closed-form success probabilities of training with ideal beams on the grid.

With ideal (mask-valued) beams and an on-grid channel, the true tuple of a
layer has gain 1 and the other three gain 0. Each power is
``|sqrt(s) g + n|^2`` with unit complex Gaussian noise, so the layer's argmax
is the true tuple with probability ``p0(s)``, and each wrong-bit pattern (BS
only, RIS only, both) with probability ``(1 - p0) / 3``. Tests import it as
``theory``, like ``reference``.
"""

from __future__ import annotations

from math import comb, exp


def p0(snr_linear: float) -> float:
    """Probability that the gain-1 tuple has the largest of four powers at linear SNR s.

    ``E[(1 - e^-X)^3]`` for the true power X, whose Laplace transform is
    ``E[e^-kX] = exp(-k s / (k + 1)) / (k + 1)``.
    """
    return sum(comb(3, k) * (-1) ** k / (k + 1) * exp(-k * snr_linear / (k + 1))
               for k in range(4))


def hierarchical_success(snr_linear: float, k_bs: int, k_ris: int) -> float:
    """Full-coverage hierarchical training: ``p0^k_bs * (p0 + (1 - p0)/3)^(k_ris - k_bs)``.

    While both sides have bits left, a layer is right only if both bits are.
    Once the shorter side is resolved, its bit no longer counts, so the true
    tuple or the wrong pattern on that side alone will do.
    """
    p = p0(snr_linear)
    return p ** min(k_bs, k_ris) * (p + (1 - p) / 3) ** abs(k_ris - k_bs)

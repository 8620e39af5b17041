"""Pinned design bytes: SHA-256 digests of designed codebooks and prefix beams.

The golden sweeps in tests/data/ only move when a decision flips, so a
codeword that moves by one ulp can pass them. These digests cover every
byte of the designs themselves: the codebook matrices, masks, GS traces and
grid margins of ``build_codebooks``, and the prefix-beam matrices of
``prefix_beams``. Regenerate them only for an intended change of
the designs, and say why in CHANGES.md:

    PYTHONPATH=src python tests/test_design_digests.py
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from risbeam.arrays import ArrayGeometry, make_angle_grid
from risbeam.codebook import GsConfig, build_codebooks, prefix_beams
from risbeam.training import coded_codes

# name -> (n_bs, n_ris_rows, n_ris_cols, GsConfig, direct_2d)
CODEBOOK_CASES = {
    "16_8x8": (16, 8, 8, GsConfig(), False),
    "64_16x16": (64, 16, 16, GsConfig(), False),
    "16_8x8_direct_k10": (16, 8, 8, GsConfig(k_iter=10), True),
    "32_8x16": (32, 8, 16, GsConfig(), False),
}
# name -> (n_bs, n_ris_rows, n_ris_cols); designed with GsConfig()
PROVIDER_CASES = {
    "16_8x8": (16, 8, 8),
    "8_4x4": (8, 4, 4),
    "32_8x16": (32, 8, 16),
}

CODEBOOK_DIGESTS = {
    "16_8x8": "1b06a29b0e0d2ce1d7b709b080869d08e050a4aad971c083094326a961ae8c52",
    "64_16x16": "1982f193169fc3a5ef75bf41c58fa08e6c718ebd397194fa42b7d5d3c29c4ba0",
    "16_8x8_direct_k10": "bd7c758fc45af1c7a49f3c0d92ae19d699b18714a3dcdcbcb4a8bab600c13d61",
    "32_8x16": "33270341e2ac5ce1a251381299995524610fc0fa3040399449acc0528bbe6417",
}
PROVIDER_DIGESTS = {
    "16_8x8": "a5049efb87b92b28fd06e092c4a4cd46a17f75e9fbbdf3d76172f64a66c46617",
    "8_4x4": "e99da430b7d4c29405413b27edb8c093102320651805c67716313c8e7afaaadc",
    "32_8x16": "4ac9a7fc65a5eaf424ce077ee97ca101b9e240990371684860159c40617881e1",
}


def _digest(arrays) -> str:
    sha = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        sha.update(f"{array.dtype.str}{array.shape}".encode())
        sha.update(array.tobytes())
    return sha.hexdigest()


def codebook_digest(name: str) -> str:
    n_bs, rows, cols, cfg, direct_2d = CODEBOOK_CASES[name]
    geometry = ArrayGeometry(n_bs, rows, cols)
    books = build_codebooks(*coded_codes(n_bs, (rows, cols)), make_angle_grid(geometry),
                            geometry, cfg, direct_2d=direct_2d)
    arrays = []
    for book in books:
        arrays += [book.matrix, book.masks]
        for report in (rep for pair in book.reports for rep in pair):
            arrays += list(report.traces)
            arrays.append(np.array([report.min_in, report.max_out]))
    return _digest(arrays)


def prefix_beam_digest(name: str) -> str:
    geometry = ArrayGeometry(*PROVIDER_CASES[name])
    return _digest(prefix_beams(geometry, make_angle_grid(geometry), GsConfig()))


@pytest.mark.parametrize("name", sorted(CODEBOOK_CASES))
def test_codebook_design_bytes_are_pinned(name):
    assert codebook_digest(name) == CODEBOOK_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(PROVIDER_CASES))
def test_provider_prefix_beam_bytes_are_pinned(name):
    assert prefix_beam_digest(name) == PROVIDER_DIGESTS[name]


if __name__ == "__main__":
    print("CODEBOOK_DIGESTS = {")
    for case in CODEBOOK_CASES:
        print(f'    "{case}": "{codebook_digest(case)}",')
    print("}\nPROVIDER_DIGESTS = {")
    for case in PROVIDER_CASES:
        print(f'    "{case}": "{prefix_beam_digest(case)}",')
    print("}")

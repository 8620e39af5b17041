"""Pinned channel bytes: SHA-256 digests of drawn channel blocks.

The golden sweeps in tests/data/ only move when a decision flips, so a
channel that moves by one ulp can pass them. These digests cover every byte
of a drawn block: the 1-based indices, the de-rotation ``comp``, ``beta``,
``h_r`` and every RIS-BS matrix in ``g_mats``, for 16 trials on the streams
``run_sweep`` uses at 0 dB. Regenerate them only for an intended change of
the channel draw, and say why in CHANGES.md:

    PYTHONPATH=src python tests/test_channel_digests.py
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from risbeam.arrays import ArrayGeometry, make_angle_grid
from risbeam.channel import sample_block
from risbeam.seeding import derive_rng

TRIALS = 16
# name -> (n_bs, n_ris_rows, n_ris_cols, sampling mode)
CASES = {
    "16_8x8_on_grid": (16, 8, 8, "on_grid"),
    "16_8x8_continuous": (16, 8, 8, "continuous"),
    "64_16x16_on_grid": (64, 16, 16, "on_grid"),
    "64_16x16_continuous": (64, 16, 16, "continuous"),
}

DIGESTS = {
    "16_8x8_on_grid": "e60413fd17fe5073f85b337eb592d9c6ad92f529c14b0d48b8b309ecb0bf5ee6",
    "16_8x8_continuous": "ec4cc5c8a6ce054196b74080ff8bd7d57c2bc6b325065d53cccc190f5257213f",
    "64_16x16_on_grid": "8844556406fa5ea11369751fd54b03de9a721bbbb6bc5b25a197aa8fafaee8ed",
    "64_16x16_continuous": "29f6aa1841b96ac3e362fbecbfb8b7f08905722f9cded8f031fdf65d1e080741",
}


def block_digest(name: str) -> str:
    n_bs, rows, cols, mode = CASES[name]
    geometry = ArrayGeometry(n_bs, rows, cols)
    grid = make_angle_grid(geometry)
    rngs = [derive_rng(0, "channel", "snr_db", 0.0, trial) for trial in range(TRIALS)]
    block = sample_block(geometry, grid, rngs, mode)
    sha = hashlib.sha256()
    for array in (block.bs_index, block.ris_index, block.comp, block.beta, block.h_r,
                  *block.g_mats):
        array = np.ascontiguousarray(array)
        sha.update(f"{array.dtype.str}{array.shape}".encode())
        sha.update(array.tobytes())
    return sha.hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_channel_block_bytes_are_pinned(name):
    assert block_digest(name) == DIGESTS[name]


def test_full_size_channel_bytes_do_not_depend_on_the_blas_thread_count():
    # OpenBLAS splits a dot product of more than 10,000 entries across its
    # threads; a 64 x 256 RIS-BS matrix has 16,384. The benchmark runs on one.
    names = [name for name in sorted(CASES) if name.startswith("64_")]
    here = Path(__file__).resolve().parent
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join((str(here.parent / "src"), str(here)))}
    script = ("import sys; from test_channel_digests import block_digest; "
              "print(*map(block_digest, sys.argv[1:]))")
    out = subprocess.run([sys.executable, "-c", script, *names], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == [DIGESTS[name] for name in names]


if __name__ == "__main__":
    print("DIGESTS = {")
    for case in CASES:
        print(f'    "{case}": "{block_digest(case)}",')
    print("}")

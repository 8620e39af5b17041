"""Pinned channel bytes: SHA-256 digests of drawn channel blocks.

The golden sweeps in tests/data/ only move when a decision flips, so a
channel that moves by one ulp can pass them. These digests cover every byte
of a drawn block: the 1-based indices, ``beta`` and ``h_r``, for 16 trials
on the streams ``run_sweep`` uses at 0 dB. Regenerate them only for an
intended change of the channel draw, and say why in CHANGES.md:

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
    "16_8x8_on_grid": "d6bf74de377cd4495440057fd7ad4caba95ee5fa1214d322644a4c0f91e34a18",
    "16_8x8_continuous": "07dcde294c05c4a7d534bd216412a7c0192c8172301a623b4dfbfaa9d64d0345",
    "64_16x16_on_grid": "da42bb7bd991cf795452cdfc6d51635dff85c060af2a5d0dbc8abdcba09400b7",
    "64_16x16_continuous": "98ccc7c232f33bf487e93107a68a06ffdc6e34249cc8f1482c417d044c73493c",
}


def block_digest(name: str) -> str:
    n_bs, rows, cols, mode = CASES[name]
    geometry = ArrayGeometry(n_bs, rows, cols)
    grid = make_angle_grid(geometry)
    rngs = [derive_rng(0, "channel", "snr_db", 0.0, trial) for trial in range(TRIALS)]
    block = sample_block(geometry, grid, rngs, mode)
    sha = hashlib.sha256()
    for array in (block.bs_index, block.ris_index, block.beta, block.h_r):
        array = np.ascontiguousarray(array)
        sha.update(f"{array.dtype.str}{array.shape}".encode())
        sha.update(array.tobytes())
    return sha.hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_channel_block_bytes_are_pinned(name):
    assert block_digest(name) == DIGESTS[name]


def test_full_size_channel_bytes_do_not_depend_on_the_blas_thread_count():
    # OpenBLAS splits a dot product of more than 10,000 entries across its
    # threads; a 64 x 256 RIS-BS matrix, whose norm scales beta, has 16,384.
    # The benchmark runs on one.
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

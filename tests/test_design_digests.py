"""Pinned design bytes: SHA-256 digests of designed codebooks and prefix beams.

The golden sweeps in tests/data/ only move when a decision flips, so a
codeword that moves by one ulp can pass them. These digests cover every
byte of the designs themselves: the codebook matrices, masks and GS traces
of ``build_codebooks`` with the ``grid_margins`` of their columns, the
prefix-beam matrices of ``design_beams``, and the file ``risbeam
design-codebook`` writes. Regenerate them only for an intended change of
the designs, and say why in CHANGES.md:

    PYTHONPATH=src python tests/test_design_digests.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from risbeam import cli
from risbeam.arrays import ArrayGeometry, make_angle_grid
from risbeam.codebook import GsConfig, build_codebooks, design_beams, grid_margins
from risbeam.training import ProtocolSpec, protocol_codes

# name -> (n_bs, n_ris_rows, n_ris_cols, GsConfig, direct_2d)
CODEBOOK_CASES = {
    "16_8x8": (16, 8, 8, GsConfig(), False),
    "64_16x16": (64, 16, 16, GsConfig(), False),
    "16_8x8_direct_k10": (16, 8, 8, GsConfig(k_iter=10), True),
    "32_8x16": (32, 8, 16, GsConfig(), False),
    "32_16x16_direct_k5": (32, 16, 16, GsConfig(k_iter=5), True),
}
# direct 2-D designs on 128- and 256-square sampling matrices, whose products
# OpenBLAS may split across threads; same form as CODEBOOK_CASES
THREAD_CASES = {
    "32_8x16_direct_k5": (32, 8, 16, GsConfig(k_iter=5), True),
    "32_16x16_direct_k5": CODEBOOK_CASES["32_16x16_direct_k5"],
}
# name -> (n_bs, n_ris_rows, n_ris_cols); designed with GsConfig()
PROVIDER_CASES = {
    "16_8x8": (16, 8, 8),
    "8_4x4": (8, 4, 4),
    "32_8x16": (32, 8, 16),
}

CODEBOOK_DIGESTS = {
    "16_8x8": "e1ebf7fabb2eb0fcb66f2bd49c432479bf4391c16e13f2f29323ea09cdfb90f8",
    "64_16x16": "9ceb66e1876b535ab751afc2e6c837bcc2c04f6cff03849bbc4df435433e559f",
    "16_8x8_direct_k10": "13820704b6f26b266959a49a83b7d21cefe02a83406505bb03ca8b6ccc9eebf5",
    "32_8x16": "31ccd93a9a16cf8a64d82db20ebe299d8aa17f8a6982934c63bbe9690210b6de",
    "32_16x16_direct_k5": "aae43d2ee5f4ef4a9319ac8ef411be28769923ff08b9f9f750c0cf8a27f1a048",
}
# name -> the design-codebook arguments besides --out
DESIGN_FILE_CASES = {
    "16_8x8": ["--nt", "16", "--ris", "8x8"],
    "16_8x8_direct_k10": ["--nt", "16", "--ris", "8x8", "--direct-2d", "--iters", "10"],
}
DESIGN_FILE_DIGESTS = {
    "16_8x8": "870b9347d94038f5ada2832c107b2cbcd0200cd60cbea00cd536f1bb67ff3898",
    "16_8x8_direct_k10": "91affee49b225b1978d7100fa345f3dd905c191ca6f9270f766726fc10956703",
}
PROVIDER_DIGESTS = {
    "16_8x8": "98008e3f4cd36ec756597bd1f0cdc8249f11fac4389bbf0da45174293dab4412",
    "8_4x4": "b190d7b354c5b4109fd0798e63fc8294b35a2a03365c32cebbfd83d7422a9a14",
    "32_8x16": "fb3b361b4afcdc9041fbfe4e962d65e4575a7504edbec828ba63adff4ad8d133",
}


def _digest(arrays) -> str:
    sha = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        sha.update(f"{array.dtype.str}{array.shape}".encode())
        sha.update(array.tobytes())
    return sha.hexdigest()


def codebook_digest(name: str) -> str:
    n_bs, rows, cols, cfg, direct_2d = {**CODEBOOK_CASES, **THREAD_CASES}[name]
    geometry = ArrayGeometry(n_bs, rows, cols)
    grid = make_angle_grid(geometry)
    books = build_codebooks(*protocol_codes(ProtocolSpec("coded"), geometry), grid, geometry,
                            cfg, direct_2d=direct_2d)
    arrays = []
    for book in books:
        arrays += [book.matrix, book.masks]
        min_in, max_out = grid_margins(book, grid)
        for c in (c for layer in range(book.n_layers) for c in (2 * layer + 1, 2 * layer)):
            arrays += list(book.traces[c])
            arrays.append(np.array([min_in[c], max_out[c]]))
    return _digest(arrays)


def design_file_digest(name: str, directory: Path) -> str:
    out = directory / f"{name}.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["design-codebook", *DESIGN_FILE_CASES[name], "--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


def prefix_beam_digest(name: str) -> str:
    geometry = ArrayGeometry(*PROVIDER_CASES[name])
    return _digest(design_beams(geometry, make_angle_grid(geometry), GsConfig(),
                                adaptive=True)[1])


@pytest.mark.parametrize("name", sorted(CODEBOOK_CASES))
def test_codebook_design_bytes_are_pinned(name):
    assert codebook_digest(name) == CODEBOOK_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(DESIGN_FILE_CASES))
def test_design_codebook_file_bytes_are_pinned(name, tmp_path):
    # the JSON file holds every codeword, margin and trace as printed floats
    assert design_file_digest(name, tmp_path) == DESIGN_FILE_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(PROVIDER_CASES))
def test_provider_prefix_beam_bytes_are_pinned(name):
    assert prefix_beam_digest(name) == PROVIDER_DIGESTS[name]


def test_direct_design_bytes_do_not_depend_on_the_blas_thread_count():
    # a design on one BLAS thread has the bytes of one on the default count, also
    # where the GS maps are 128- and 256-square products OpenBLAS may split
    names = sorted(THREAD_CASES)
    here = Path(__file__).resolve().parent
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join((str(here.parent / "src"), str(here)))}
    script = ("import sys; from test_design_digests import codebook_digest; "
              "print(*map(codebook_digest, sys.argv[1:]))")
    out = subprocess.run([sys.executable, "-c", script, *names], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == [codebook_digest(name) for name in names]


if __name__ == "__main__":
    print("CODEBOOK_DIGESTS = {")
    for case in CODEBOOK_CASES:
        print(f'    "{case}": "{codebook_digest(case)}",')
    print("}\nDESIGN_FILE_DIGESTS = {")
    with tempfile.TemporaryDirectory() as directory:
        for case in DESIGN_FILE_CASES:
            print(f'    "{case}": "{design_file_digest(case, Path(directory))}",')
    print("}\nPROVIDER_DIGESTS = {")
    for case in PROVIDER_CASES:
        print(f'    "{case}": "{prefix_beam_digest(case)}",')
    print("}")

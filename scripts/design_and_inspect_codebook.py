#!/usr/bin/env python3
"""Design the desk-scale codebooks and print per-layer margins and traces.

Useful for eyeballing how cleanly each layer separates its covered grid
points from the rest, and how fast the iterative designs settle.
"""

import argparse

from risbeam.arrays import ArrayGeometry, make_angle_grid
from risbeam.codebook import GsConfig, build_codebooks
from risbeam.training import coded_codes


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nt", type=int, default=16)
    parser.add_argument("--ris", default="8x8")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--direct-2d", action="store_true")
    args = parser.parse_args()

    rows, cols = (int(x) for x in args.ris.lower().split("x"))
    geometry = ArrayGeometry(args.nt, rows, cols)
    grid = make_angle_grid(geometry)
    books = build_codebooks(*coded_codes(args.nt, (rows, cols)), grid, geometry,
                            GsConfig(seed=args.seed), direct_2d=args.direct_2d)

    for book in books:
        print(f"== {book.side} codebook, {book.n_layers} layers ==")
        for i, (rep_one, rep_zero) in enumerate(book.reports):
            for tag, rep in (("one", rep_one), ("zero", rep_zero)):
                finals = [t[-1] for t in rep.traces]
                final = f"{max(finals):.2e}" if finals else "closed form"
                print(f"  layer {i + 1:2d} {tag:4s}  min_in {rep.min_in:.4f}  "
                      f"max_out {rep.max_out:.4f}  final_trace {final}")


if __name__ == "__main__":
    main()

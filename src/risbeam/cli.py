"""Command-line interface: code validation, codebook design, and sweeps."""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from dataclasses import asdict, replace
from functools import partial
from pathlib import Path

import numpy as np

from .arrays import ArrayGeometry, make_angle_grid
from .blockcode import (
    BlockCode,
    decode_words,
    encode,
    int_to_bits,
    min_distance,
)
from .codebook import GsConfig, build_codebooks, grid_margins
from .experiments import (
    PRESETS,
    export_results,
    export_trial_log,
    load_config,
    run_sweep,
)
from .training import PROTOCOL_KINDS, ProtocolSpec, protocol_codes, training_overhead


def _parse_ris(text: str) -> tuple[int, int]:
    try:
        rows, cols = text.lower().split("x")
        dims = int(rows), int(cols)
    except ValueError as exc:
        raise ValueError(f"--ris expects ROWSxCOLS, got {text!r}") from exc
    if min(dims) < 1:
        raise ValueError(f"--ris needs at least one row and one column, got {text!r}")
    return dims


def _matrix_lines(mat: np.ndarray) -> list[str]:
    return [" ".join(str(int(v)) for v in row) for row in mat]


def _corrected(code: BlockCode, errors: np.ndarray, mode: str) -> str:
    """"ok/total" over every codeword received with each (patterns, n) error pattern."""
    info = int_to_bits(np.arange(2**code.k), code.k)
    received = encode(code, info)[:, None, :] ^ errors
    decoded, *_ = decode_words(code, received.reshape(-1, code.n), mode)
    ok = (decoded.reshape(*received.shape[:2], code.k) == info[:, None, :]).all(axis=-1)
    return f"{ok.sum()}/{ok.size}"


def _correction_coverage(code: BlockCode) -> list[str]:
    """Brute-force correction counts for the printable report."""
    single = np.eye(code.n, dtype=np.uint8)
    lines = [f"single-bit errors corrected (one_bit): {_corrected(code, single, 'one_bit')}"]
    if code.split is not None:
        k1, m1, _, _ = code.split
        side1 = list(range(k1)) + list(range(code.k, code.k + m1))
        side2 = list(range(k1, code.k)) + list(range(code.k + m1, code.n))
        pairs = [single[p1] ^ single[p2] for p1, p2 in itertools.product(side1, side2)]
        lines.append("cross-dimension double errors corrected (decoupled_two_bit): "
                     + _corrected(code, np.array(pairs), "decoupled_two_bit"))
    return lines


def _print_code(title: str, code: BlockCode) -> None:
    print(f"== {title} ==")
    split = ""
    if code.split is not None:
        k1, m1, k2, m2 = code.split
        split = f" split=(k1={k1}, m1={m1}, k2={k2}, m2={m2})"
    print(f"k={code.k} n={code.n}{split}")
    print("generator:")
    for line in _matrix_lines(code.generator):
        print(f"  {line}")
    print("check:")
    for line in _matrix_lines(code.check):
        print(f"  {line}")
    print(f"d_min: {min_distance(code)}")
    for line in _correction_coverage(code):
        print(line)


def cmd_overhead(args) -> int:
    ris = _parse_ris(args.ris)
    counts = [(kind, training_overhead(kind, args.nt, ris)) for kind in PROTOCOL_KINDS]
    for kind, count in counts:
        print(f"{kind}: {count}")
    return 0


def cmd_validate_code(args) -> int:
    if args.ris is None and args.nt is None:
        raise ValueError("give --ris ROWSxCOLS and/or --nt N")
    ris = None if args.ris is None else _parse_ris(args.ris)
    # a side not given stands in at the least size coded training takes
    geometry = ArrayGeometry(2 if args.nt is None else args.nt, *(ris or (8, 8)))
    code_t, code_r = protocol_codes(ProtocolSpec("coded"), geometry)
    if args.nt is not None:
        _print_code(f"bs {args.nt} plain code", code_t)
    if ris is not None:
        _print_code(f"ris {ris[0]}x{ris[1]} dimension-split code", code_r)
    return 0


def _codeword_entry(vec: np.ndarray, traces, min_in: float, max_out: float) -> dict:
    return {
        "codeword": [[float(c.real), float(c.imag)] for c in vec],
        "min_in": min_in,
        "max_out": max_out,
        "final_trace": float(traces[-1][-1]) if traces else None,
        "traces": [[float(x) for x in t] for t in traces],
    }


def _report_line(index: int, polarity: str, entry: dict) -> str:
    """One codeword's margins and final trace; a codeword with min_in <= max_out is flagged."""
    final = entry["final_trace"]
    line = (f"  layer {index:2d} {polarity:4s}  min_in {entry['min_in']:.4f}  "
            f"max_out {entry['max_out']:.4f}  final_trace "
            + ("closed form" if final is None else f"{final:.2e}"))
    return line + ("  FLAG min_in <= max_out" if entry["min_in"] <= entry["max_out"] else "")


def cmd_design_codebook(args) -> int:
    ris = _parse_ris(args.ris)
    geometry = ArrayGeometry(args.nt, ris[0], ris[1])
    codes = protocol_codes(ProtocolSpec("coded"), geometry)
    grid = make_angle_grid(geometry)
    cfg = GsConfig(delta=args.delta, k_iter=args.iters, seed=args.seed)
    books = build_codebooks(*codes, grid, geometry, cfg, direct_2d=args.direct_2d)
    payload = {"geometry": asdict(geometry), "gs": asdict(cfg)}
    for book in books:
        print(f"== {book.side} codebook, {book.n_layers} layers ==")
        min_in, max_out = grid_margins(book, grid)
        layers = []
        for i in range(book.n_layers):
            layer = {"index": i + 1}
            for c, polarity in ((2 * i + 1, "one"), (2 * i, "zero")):
                layer[polarity] = _codeword_entry(book.matrix[:, c], book.traces[c],
                                                  min_in[c], max_out[c])
                print(_report_line(i + 1, polarity, layer[polarity]))
            layers.append(layer)
        payload[book.side] = {"layers": layers}
    out = Path(args.out)
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0


def _sweep_config(args, sweep_over: str):
    if args.config is not None and args.scale is not None:
        raise ValueError("--scale picks a preset and --config a file: give one of them")
    if args.config is not None:
        cfg = load_config(args.config, sweep_over)
    else:
        cfg = PRESETS[args.scale or "desk"][sweep_over]()
    flags = {"trials": args.trials, "master_seed": args.seed,
             "noiseless": args.noiseless or None, "ideal_beams": args.ideal_beams or None}
    return replace(cfg, **{name: value for name, value in flags.items() if value is not None})


def _run_and_export(args, sweep_over: str) -> int:
    out = Path(args.out or f"results.{args.format}")
    if args.log_trials is not None and Path(args.log_trials).resolve() == out.resolve():
        raise ValueError(f"--log-trials names the results file {out}: give it another path")
    logs = () if args.log_trials is None else (Path(args.log_trials),)
    for path in (out, *logs):  # checked before the sweep, which may run long
        if path.is_dir():
            raise ValueError(f"cannot write {path}: it is a directory")
        if not path.parent.is_dir():
            raise ValueError(f"cannot write {path}: no directory {path.parent}")
    cfg = _sweep_config(args, sweep_over)
    results = run_sweep(cfg)
    export_results(results, out, args.format)
    if args.log_trials is not None:
        export_trial_log(results, args.log_trials)
    print(f"wrote {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="risbeam",
        description="Coded beam training for RIS-assisted links",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    over = subs.add_parser("overhead", help="print pilot overheads per framework")
    over.add_argument("--nt", type=int, required=True)
    over.add_argument("--ris", required=True, help="ROWSxCOLS, e.g. 16x16")
    over.set_defaults(func=cmd_overhead)

    val = subs.add_parser("validate-code", help="print code matrices and coverage")
    val.add_argument("--nt", type=int)
    val.add_argument("--ris", help="ROWSxCOLS, e.g. 8x8")
    val.set_defaults(func=cmd_validate_code)

    des = subs.add_parser("design-codebook", help="design and save the codebooks")
    des.add_argument("--nt", type=int, required=True)
    des.add_argument("--ris", required=True)
    des.add_argument("--delta", type=float, default=GsConfig.delta)
    des.add_argument("--iters", type=int, default=GsConfig.k_iter)
    des.add_argument("--seed", type=int, default=GsConfig.seed)
    des.add_argument("--direct-2d", action="store_true",
                     help="design RIS codewords with the direct 2-D iteration")
    des.add_argument("--out", default="codebook.json")
    des.set_defaults(func=cmd_design_codebook)

    for sweep_over, versus in (("snr", "SNR"), ("pilots", "budget")):
        sub = subs.add_parser(f"sweep-{sweep_over}", help=f"success rate and rate vs {versus}")
        sub.add_argument("--config", help="JSON experiment config file")
        sub.add_argument("--scale", choices=tuple(PRESETS), help="preset (default desk)")
        sub.add_argument("--trials", type=int)
        sub.add_argument("--seed", type=int)
        sub.add_argument("--out", help="output file (default results.<format>)")
        sub.add_argument("--format", choices=("csv", "json"), default="csv")
        sub.add_argument("--noiseless", action="store_true")
        sub.add_argument("--ideal-beams", action="store_true")
        sub.add_argument("--log-trials", metavar="PATH",
                         help="also write a per-trial CSV log")
        sub.set_defaults(func=partial(_run_and_export, sweep_over=sweep_over))

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "nt", None) is not None and args.nt < 1:  # each command's --nt
            raise ValueError(f"--nt needs at least one antenna, got {args.nt}")
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:  # MemoryError: sizes too large to run
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Monte-Carlo sweeps over SNR or pilot budget, metrics, and result files.

A sweep is one point-major sequence of (sweep point, trial) rows, run in
blocks of at most ``trial_block(geometry)`` rows that span its points, in an
SNR sweep and a pilots sweep alike. Per-trial channels are seeded
independently of the protocol, so one ``sample_block`` call draws each
channel of a block once, and every protocol runs on that ``ChannelBlock`` at
each row's SNR and pilot budget; the measurement noise stream is seeded per
(protocol, sweep point, trial), so the block size changes no result. Every
channel and noise stream of the sweep is seeded before the first trial, one
``derive_seeds`` call per (tag, sweep point) and one ``stream_words`` call for
all, and ``word_streams`` builds each block's generators from their words.
Before the first trial, one ``design_beams`` call designs
the codebooks and the prefix beams, every RIS GS design of both in one GS
loop, and each protocol gets one block runner, called once per block:
``run_exhaustive``, ``run_layered`` for coded and full-coverage hierarchical
training (the latter with identity codes, whose codebooks are the first k
layers of the coded ones), or ``run_adaptive`` with the same identity codes
and the prefix-beam matrices. Exhaustive training samples in on-grid
sweeps with noise: each trial draws its true tuple's power and the maximum
of the other tuples' noise-only powers. Continuous and noiseless sweeps keep
each trial's table of powers. One ``tuple_rates`` call rates every
protocol's estimates of a block, and one comparison with the true indices
scores them. Each statistic of the result rows is one reduction over the
trials of every (protocol, sweep point) cell, and the ``ResultSet`` keeps
those hits and rates as a bool and a float64 array row per result row.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import MISSING, dataclass, field, fields, replace
from functools import partial
from operator import attrgetter
from pathlib import Path

import numpy as np

from .arrays import ArrayGeometry, make_angle_grid, real_number, whole_number
from .channel import SAMPLING_MODES, SnrSpec, sample_block
from .codebook import GsConfig, design_beams
from .seeding import derive_seeds, stream_words, word_streams
from .training import (
    ProtocolSpec,
    check_budget,
    check_sizes,
    narrow_beam_matrices,
    protocol_codes,
    run_adaptive,
    run_exhaustive,
    run_layered,
    tuple_rates,
)

# A trial block's channels are drawn together and each protocol runs once per
# block. The results do not depend on its size.
MIN_TRIAL_BLOCK = 16
BLOCK_BYTES = 2 * 2**20


def trial_block(geometry: ArrayGeometry) -> int:
    """Trials per block: the most for which a (trials, n_ris, n_bs) complex array
    would fit in BLOCK_BYTES, and at least MIN_TRIAL_BLOCK (128 on the desk arrays,
    16 on full). No block array has that shape; the rule bounds those that grow
    with trials x n_ris: ``sample_block``'s steering gathers and ``h_r``, and the
    narrow-beam columns ``tuple_rates`` gathers for every protocol. 32- and 64-row
    blocks at full size change no result; 64 rows raised the 200-trial full SNR
    preset's peak RSS from 40.9 to 43.3 MB, and 32 rows gained no clear CPU time
    (one BLAS thread)."""
    return max(MIN_TRIAL_BLOCK, BLOCK_BYTES // (16 * geometry.n_ris * geometry.n_bs))

@dataclass(frozen=True)
class ExperimentConfig:
    n_bs: int = 16
    n_ris_rows: int = 8
    n_ris_cols: int = 8
    snr_grid_db: tuple = (0.0,)
    pilot_grid: tuple = ()
    trials: int = 2000
    protocols: tuple = (
        ProtocolSpec("exhaustive"),
        ProtocolSpec("hierarchical"),
        ProtocolSpec("coded", "one_bit"),
        ProtocolSpec("coded", "decoupled_two_bit"),
    )
    gs: GsConfig = field(default_factory=GsConfig)
    sampling_mode: str = "on_grid"
    master_seed: int = 0
    eval_snr_linear: float = 10.0
    ideal_beams: bool = False
    noiseless: bool = False
    sweep_over: str = "snr"  # "snr" | "pilots"

    def __post_init__(self) -> None:
        for name in ("n_bs", "n_ris_rows", "n_ris_cols", "trials", "master_seed"):
            object.__setattr__(self, name, whole_number(getattr(self, name), name))
        for name in ("ideal_beams", "noiseless"):
            if not isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be true or false, got {getattr(self, name)!r}")
        for db in self.snr_grid_db:
            _linear_snr(db)
        if not 0.0 < real_number(self.eval_snr_linear, "eval_snr_linear") < math.inf:
            raise ValueError(f"eval_snr_linear must be positive and finite, "
                             f"got {self.eval_snr_linear!r}")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.sweep_over not in ("snr", "pilots"):
            raise ValueError("sweep_over must be 'snr' or 'pilots'")
        if self.sweep_over == "snr" and not self.snr_grid_db:
            raise ValueError("snr_grid_db must be nonempty")
        if self.sweep_over == "pilots" and not self.pilot_grid:
            raise ValueError("pilot_grid must be nonempty")
        if self.sweep_over == "pilots" and len(self.snr_grid_db) != 1:
            raise ValueError(f"a pilots sweep runs at one SNR, got snr_grid_db="
                             f"{list(self.snr_grid_db)}")
        if not self.protocols:
            raise ValueError("at least one protocol is required")
        if self.sampling_mode not in SAMPLING_MODES:
            raise ValueError(f"unknown sampling mode {self.sampling_mode!r}")
        geometry = self.geometry
        for proto in self.protocols:
            check_sizes(proto, geometry)
        if self.sweep_over == "pilots":
            for proto in self.protocols:
                if proto.pilot_budget is not None:
                    raise ValueError(f"a pilots sweep takes every budget from pilot_grid, "
                                     f"got pilot_budget={proto.pilot_budget} for {proto.tag}")
                for budget in self.pilot_grid:
                    check_budget(proto.kind, budget)
        # a repeat would write two rows for one cell; numbers compare as numbers (8 == 8.0)
        axis = "snr_grid_db" if self.sweep_over == "snr" else "pilot_grid"
        for name, keys in ((axis, getattr(self, axis)),
                           ("protocols", [proto.tag for proto in self.protocols])):
            repeated = [key for i, key in enumerate(keys) if key in keys[:i]]
            if repeated:
                raise ValueError(f"{name} repeats {repeated[0]!r}: one cell would get two rows")

    @property
    def geometry(self) -> ArrayGeometry:
        return ArrayGeometry(self.n_bs, self.n_ris_rows, self.n_ris_cols)


@dataclass(frozen=True)
class ResultRow:
    protocol: str
    sweep_variable: str
    sweep_value: float
    trials: int
    pilots: int
    success_rate: float
    success_ci95: float
    mean_rate: float
    rate_ci95: float


CSV_COLUMNS = tuple(f.name for f in fields(ResultRow))


TRIAL_LOG_COLUMNS = ("protocol", "sweep_value", "trial", "success", "rate")


@dataclass(frozen=True, eq=False)
class ResultSet:
    """A sweep's rows and each trial in 9 bytes: (rows, trials) arrays ``success`` (bool)
    and ``rate`` (float64). It equals a set of equal rows and bitwise equal arrays."""
    rows: tuple[ResultRow, ...]
    success: np.ndarray = field(default_factory=partial(np.zeros, (0, 0), bool))
    rate: np.ndarray = field(default_factory=partial(np.zeros, (0, 0)))

    def __eq__(self, other) -> bool:
        return isinstance(other, ResultSet) and self.rows == other.rows and all(
            (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
            for a, b in ((self.success, other.success), (self.rate, other.rate)))


def _linear_snr(db) -> float:
    """10^(db/10) for a real dB value; a ValueError unless it is positive and finite."""
    try:
        linear = 10.0 ** (real_number(db, "an SNR in dB") / 10.0)
    except OverflowError:
        linear = math.inf
    if not 0.0 < linear < math.inf:
        raise ValueError(f"an SNR of {db!r} dB has no positive and finite linear value")
    return linear


def _build_runners(cfg: ExperimentConfig, grid, narrow) -> list:
    """One block runner per protocol, each called as run(block, snr=, budget=, rngs=).

    Every beam is designed here, in one ``design_beams`` call, for the codes of
    ``protocol_codes``. The identity codes' codebooks are the systematic layers
    of the coded codebooks, so they are designed on their own only without a
    coded protocol.
    """
    codes = {p.kind: protocol_codes(p, cfg.geometry) for p in cfg.protocols}
    adaptive = any(p.hierarchical_variant == "adaptive" for p in cfg.protocols)
    layered = {p.kind for p in cfg.protocols if p.kind != "exhaustive"
               and p.hierarchical_variant != "adaptive"}
    designed = "coded" if "coded" in layered else "hierarchical"
    books, beams = design_beams(cfg.geometry, grid, cfg.gs, codes[designed] if layered else None,
                                adaptive, ideal=cfg.ideal_beams)
    runners = []
    for proto in cfg.protocols:
        if proto.kind == "exhaustive":
            runners.append(partial(run_exhaustive, narrow_beams=narrow))
        elif proto.hierarchical_variant == "adaptive":
            runners.append(partial(run_adaptive, beams=beams, codes=codes[proto.kind],
                                   ideal=cfg.ideal_beams))
        else:
            proto_books = books if proto.kind == designed else tuple(
                book.first_layers(code.k) for book, code in zip(books, codes[proto.kind]))
            mode = proto.decode_mode if proto.kind == "coded" else "none"
            runners.append(partial(run_layered, books=proto_books, codes=codes[proto.kind],
                                   decode_mode=mode, ideal=cfg.ideal_beams))
    return runners


def run_sweep(cfg: ExperimentConfig) -> ResultSet:
    """Run every protocol over the sweep grid and aggregate the metrics.

    The config has checked every array size (``check_sizes``), so no
    infeasible configuration reaches a trial.
    """
    geometry = cfg.geometry
    grid = make_angle_grid(geometry)
    narrow = narrow_beam_matrices(grid, geometry)
    eval_snr = SnrSpec(cfg.eval_snr_linear, noiseless=True)
    runners = _build_runners(cfg, grid, narrow)
    size = trial_block(geometry)

    sweep_values = cfg.snr_grid_db if cfg.sweep_over == "snr" else cfg.pilot_grid
    sweep_name = "snr_db" if cfg.sweep_over == "snr" else "pilots"
    protocols, trials, cells = cfg.protocols, cfg.trials, len(sweep_values) * cfg.trials
    linear = np.resize([_linear_snr(db) for db in cfg.snr_grid_db], len(sweep_values))
    budgets = np.array([[proto.pilot_budget if cfg.sweep_over == "snr" else int(value)
                         for proto in protocols] for value in sweep_values], dtype=object)

    # every channel and noise stream of the sweep, by (tag, sweep point, trial)
    tags = ["channel"] + [proto.tag for proto in protocols]
    words = stream_words(np.concatenate([
        derive_seeds(cfg.master_seed, (tag, sweep_name, float(value)), trials)
        for tag in tags for value in sweep_values])).reshape(len(tags), cells, 4)

    hits, rates = np.zeros((len(protocols), cells), dtype=bool), np.empty((len(protocols), cells))
    pilots = np.empty((len(protocols), cells), dtype=np.intp)
    for start in range(0, cells, size):
        stop = min(start + size, cells)
        points = np.arange(start, stop) // trials
        streams = [word_streams(tag_words[start:stop]) for tag_words in words]
        block = sample_block(geometry, grid, streams[0], cfg.sampling_mode)
        snr = SnrSpec(linear[points], noiseless=cfg.noiseless)
        runs = [runner(block, snr=snr, budget=budget, rngs=rngs)
                for runner, budget, rngs in zip(runners, budgets[points].T, streams[1:])]
        est = np.array([(r.est_bs_index, r.est_ris_index) for r in runs])  # (P, 2, rows)
        hits[:, start:stop] = np.all(est == np.stack((block.bs_index, block.ris_index)), axis=1)
        rates[:, start:stop] = tuple_rates(block, narrow, est[:, 0], est[:, 1], eval_snr)
        pilots[:, start:stop] = [r.pilots for r in runs]

    # (P, S, T) arrays, and each cell's protocol tag and sweep value, point-major
    hits, rates = (a.reshape(len(protocols), len(sweep_values), trials) for a in (hits, rates))
    keys = [(tag, float(value)) for value in sweep_values for tag in tags[1:]]
    # a point's trials share its budget, so its first trial's pilots are every trial's
    rows = _result_rows(keys, sweep_name, hits, rates, pilots[:, ::trials])
    return ResultSet(rows, *(a.swapaxes(0, 1).reshape(len(keys), trials) for a in (hits, rates)))


def _result_rows(keys, sweep_name: str, hits: np.ndarray, rates: np.ndarray,
                 pilots: np.ndarray) -> tuple[ResultRow, ...]:
    """The rows of the point-major (tag, value) cell keys from (P, S, T) hits and rates
    and (P, S) pilots: each statistic is one reduction over every cell's trials."""
    trials = hits.shape[-1]
    p_hat = hits.sum(axis=-1) / trials
    success_ci = 1.96 * np.sqrt(p_hat * (1.0 - p_hat) / trials)
    # equal rates give exactly 0, not the rounding noise of their mean; one trial has no std
    rate_ci = np.zeros(p_hat.shape)
    if trials > 1:
        rate_ci = np.where(np.ptp(rates, axis=-1) > 0,
                           1.96 * rates.std(axis=-1, ddof=1) / np.sqrt(trials), 0.0)
    stats = zip(*(a.T.ravel().tolist()
                  for a in (pilots, p_hat, success_ci, rates.mean(axis=-1), rate_ci)))
    return tuple(ResultRow(tag, sweep_name, value, trials, *cell_stats)
                 for (tag, value), cell_stats in zip(keys, stats))


def export_results(results: ResultSet, path, fmt: str = "csv") -> None:
    """Write the aggregated rows; CSV floats carry 10 significant digits."""
    path = Path(path)
    if fmt == "csv":
        with path.open("w", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(CSV_COLUMNS)
            writer.writerows([format(v, ".10g") if isinstance(v, float) else v for v in values]
                             for values in map(attrgetter(*CSV_COLUMNS), results.rows))
    elif fmt == "json":
        rows = [{name: getattr(row, name) for name in CSV_COLUMNS} for row in results.rows]
        payload = {"schema": list(CSV_COLUMNS), "rows": rows}
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        raise ValueError(f"unknown format {fmt!r}")


def import_results(path) -> ResultSet:
    """Read back a JSON result file written by export_results."""
    rows = json.loads(Path(path).read_text())["rows"]
    return ResultSet(rows=tuple(ResultRow(**row) for row in rows))


def export_trial_log(results: ResultSet, path) -> None:
    """Write each row's trials, floats to 10 significant digits and success as 0 or 1;
    results without them (``import_results`` reads rows only) are a ValueError. No cell
    needs CSV quoting: a tag is a ProtocolSpec.tag identifier, and the rest are numbers."""
    if not results.success.size or len(results.success) != len(results.rows):
        raise ValueError("a trial log needs the trials of every row: these results lack them")
    with Path(path).open("w", newline="") as handle:
        handle.write(",".join(TRIAL_LOG_COLUMNS) + "\n")
        for row, hits, rates in zip(results.rows, results.success, results.rate):
            line = (f"{row.protocol},{row.sweep_value:.10g}," + "{},{},{:.10g}\n").format
            handle.write("".join(map(line, range(len(hits)), hits.view(np.uint8).tolist(),
                                     rates.tolist())))


# -- presets ---------------------------------------------------------------
# The shipped sweeps, each called with keyword overrides as in
# ``desk_snr_sweep(trials=12)``: desk is ExperimentConfig's 16-antenna BS and 8x8
# RIS, full a 64-antenna BS and 16x16 RIS. SNR sweeps run from -10 to 20 dB,
# pilots sweeps at 10 dB.

def _preset(**settings):
    return lambda **overrides: replace(ExperimentConfig(**settings), **overrides)


_SNR_GRID_DB = (-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0)
_PILOTS = dict(snr_grid_db=(10.0,), sweep_over="pilots")
_FULL = dict(n_bs=64, n_ris_rows=16, n_ris_cols=16)
PRESETS = {
    "desk": {"snr": _preset(snr_grid_db=_SNR_GRID_DB),
             "pilots": _preset(**_PILOTS, pilot_grid=tuple(range(4, 101, 8)))},
    "full": {"snr": _preset(**_FULL, snr_grid_db=_SNR_GRID_DB, trials=500),
             "pilots": _preset(**_FULL, **_PILOTS, trials=200,
                               pilot_grid=(4, 20, 32, 56, 100, 1000, 4000, 8000, 16384, 20000))},
}
desk_snr_sweep, desk_pilot_sweep = PRESETS["desk"]["snr"], PRESETS["desk"]["pilots"]


def _known_keys(cls, data: dict, where: str) -> dict:
    """A JSON object as a dict, if every key names a field of the dataclass ``cls``
    and every field without a default has a key."""
    if not isinstance(data, dict):
        raise ValueError(f"a {where} must be a JSON object, got {data!r}")
    unknown = sorted(set(data) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"unknown {where} key(s): {', '.join(unknown)}")
    missing = [f.name for f in fields(cls) if f.name not in data
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ValueError(f"missing {where} key(s): {', '.join(missing)}")
    return dict(data)


def config_from_dict(data: dict) -> ExperimentConfig:
    """The config a JSON object describes; a malformed key or value is a ValueError."""
    data = _known_keys(ExperimentConfig, data, "config")
    for key in ("snr_grid_db", "pilot_grid", "protocols"):
        if key in data:
            if not isinstance(data[key], (list, tuple)):
                raise ValueError(f"{key} must be a JSON array, got {data[key]!r}")
            data[key] = tuple(data[key])
    if "protocols" in data:
        data["protocols"] = tuple(ProtocolSpec(**_known_keys(ProtocolSpec, p, "protocol"))
                                  for p in data["protocols"])
    if "gs" in data:
        data["gs"] = GsConfig(**_known_keys(GsConfig, data["gs"], "gs"))
    return ExperimentConfig(**data)


def load_config(path, sweep_over: str) -> ExperimentConfig:
    """The config of a JSON file for a sweep over ``sweep_over``: a file without
    that key sweeps over it, and a file that names the other sweep is rejected."""
    data = json.loads(Path(path).read_text())
    if isinstance(data, dict) and data.setdefault("sweep_over", sweep_over) != sweep_over:
        raise ValueError(f"{path} sets sweep_over={data['sweep_over']!r}, but this "
                         f"command sweeps over {sweep_over!r}")
    return config_from_dict(data)

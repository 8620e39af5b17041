"""Monte-Carlo sweeps over SNR or pilot budget, metrics, and result files.

A sweep point runs in blocks of ``TRIAL_BLOCK`` trials. Per-trial channels
are seeded independently of the protocol, so a block draws each (sweep point,
trial) channel once, forms one ``ChannelBlock``, and runs every protocol on
it; the measurement noise stream is seeded per (protocol, sweep point,
trial), so the block size changes no result. Before the first trial, each
protocol gets one block runner, called once per block: ``run_exhaustive``,
``run_layered`` for coded and full-coverage hierarchical training
(hierarchical training uses identity codes, whose codebooks are the first k
layers of the coded ones), or ``run_adaptive`` with the prefix-beam matrices
of the beam provider. Within a trial the rate of an estimated tuple is
evaluated once, however many protocols chose it, from the narrow-beam
columns (``tuple_rates``). Codebooks and prefix beams are designed once per
configuration and reused across trials.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, field, fields, replace
from functools import partial
from pathlib import Path

import numpy as np

from .arrays import ArrayGeometry, make_angle_grid
from .blockcode import build_identity_code
from .channel import (SAMPLING_MODES, SnrSpec, channel_block, normalize_channel,
                      sample_channel)
from .codebook import GsConfig, beam_pattern_matrix, build_codebooks, ideal_codebook
from .seeding import derive_rng
from .training import (
    HierarchicalBeamProvider,
    ProtocolSpec,
    ceil_log2,
    check_budget,
    coded_codes,
    narrow_beam_matrices,
    run_adaptive,
    run_exhaustive,
    run_layered,
    tuple_rates,
)

# Trials per block: a block's channels are drawn together and each layered
# protocol runs once per block. The results do not depend on it.
TRIAL_BLOCK = 16

CSV_COLUMNS = (
    "protocol", "sweep_variable", "sweep_value", "trials", "pilots",
    "success_rate", "success_ci95", "mean_rate", "rate_ci95",
)


@dataclass(frozen=True)
class ExperimentConfig:
    n_bs: int = 16
    n_ris_rows: int = 8
    n_ris_cols: int = 8
    spacing_over_wavelength: float = 0.5
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
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.sweep_over not in ("snr", "pilots"):
            raise ValueError("sweep_over must be 'snr' or 'pilots'")
        if self.sweep_over == "snr" and not self.snr_grid_db:
            raise ValueError("snr_grid_db must be nonempty")
        if self.sweep_over == "pilots" and not self.pilot_grid:
            raise ValueError("pilot_grid must be nonempty")
        if not self.protocols:
            raise ValueError("at least one protocol is required")
        if self.sampling_mode not in SAMPLING_MODES:
            raise ValueError(f"unknown sampling mode {self.sampling_mode!r}")
        layered = any(_is_layered(p) for p in self.protocols)
        for name in ("n_bs", "n_ris_rows", "n_ris_cols"):
            n = getattr(self, name)
            if n & (n - 1) and layered:
                raise ValueError(
                    f"{name}={n} is not a power of two: coded and full-coverage "
                    "hierarchical training decode each index from a bit word, and "
                    "every word must name a grid point")
        if self.n_bs < 2 and layered:
            raise ValueError(
                f"n_bs={self.n_bs}: coded and full-coverage hierarchical training "
                "need at least two BS candidates")
        if self.n_ris_rows * self.n_ris_cols < 2 and layered:
            raise ValueError(
                f"n_ris={self.n_ris_rows * self.n_ris_cols}: coded and full-coverage "
                "hierarchical training need at least two RIS candidates")
        if self.sweep_over == "pilots":
            for budget in self.pilot_grid:
                for proto in self.protocols:
                    check_budget(proto.kind, budget)

    @property
    def geometry(self) -> ArrayGeometry:
        return ArrayGeometry(self.n_bs, self.n_ris_rows, self.n_ris_cols,
                             self.spacing_over_wavelength)


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


@dataclass(frozen=True)
class TrialRecord:
    protocol: str
    sweep_value: float
    trial: int
    success: bool
    rate: float


@dataclass(frozen=True)
class ResultSet:
    rows: tuple[ResultRow, ...]
    trial_log: tuple[TrialRecord, ...] = ()


def _is_layered(proto: ProtocolSpec) -> bool:
    """Coded and full-coverage hierarchical protocols run through run_layered."""
    return proto.kind == "coded" or (proto.kind == "hierarchical"
                                     and proto.hierarchical_variant == "full_coverage")


def _design_books(cfg: ExperimentConfig, grid, codes):
    geometry = cfg.geometry
    if cfg.ideal_beams:
        return (
            ideal_codebook(beam_pattern_matrix(codes[0], geometry.n_bs, side="bs")),
            ideal_codebook(beam_pattern_matrix(codes[1], geometry.n_ris, side="ris")),
        )
    return build_codebooks(*codes, grid, geometry, cfg.gs)


def _build_layered_assets(cfg: ExperimentConfig, grid) -> dict:
    """(codes, codebooks) for run_layered, keyed by protocol kind.

    The identity codes' codebooks are the systematic layers of the coded
    codebooks, so they are designed on their own only without a coded protocol.
    """
    geometry = cfg.geometry
    k_bs = ceil_log2(geometry.n_bs)
    k_u, k_w = ceil_log2(geometry.n_ris_rows), ceil_log2(geometry.n_ris_cols)
    identity = (build_identity_code(k_bs), build_identity_code(k_u, k_w))
    if not any(p.kind == "coded" for p in cfg.protocols):
        return {"hierarchical": (identity, _design_books(cfg, grid, identity))}
    codes = coded_codes(geometry.n_bs, (geometry.n_ris_rows, geometry.n_ris_cols))
    books = _design_books(cfg, grid, codes)
    systematic = tuple(book.first_layers(code.k) for book, code in zip(books, identity))
    return {"coded": (codes, books), "hierarchical": (identity, systematic)}


def _build_runners(cfg: ExperimentConfig, grid, narrow) -> list:
    """One block runner per protocol, each called as run(block, snr=, budget=, rngs=)."""
    provider = None
    if any(p.kind == "hierarchical" and not _is_layered(p) for p in cfg.protocols):
        provider = HierarchicalBeamProvider(cfg.geometry, grid, cfg.gs, ideal=cfg.ideal_beams)
    layered = {}
    if any(_is_layered(p) for p in cfg.protocols):
        layered = _build_layered_assets(cfg, grid)
    runners = []
    for proto in cfg.protocols:
        if proto.kind == "exhaustive":
            runners.append(partial(run_exhaustive, narrow_beams=narrow))
        elif _is_layered(proto):
            codes, books = layered[proto.kind]
            mode = proto.decode_mode if proto.kind == "coded" else "none"
            runners.append(partial(run_layered, books=books, codes=codes, decode_mode=mode,
                                   ideal=cfg.ideal_beams))
        else:
            runners.append(partial(run_adaptive, provider=provider))
    return runners


def run_sweep(cfg: ExperimentConfig, log_trials: bool = False) -> ResultSet:
    """Run every protocol over the sweep grid and aggregate the metrics.

    Infeasible configurations (for example a RIS dimension too small for the
    dimension-split code, or an array size that is not a power of two for
    adaptive hierarchical training) surface before any trial runs.
    """
    geometry = cfg.geometry
    grid = make_angle_grid(geometry)
    narrow = narrow_beam_matrices(grid, geometry)
    eval_snr = SnrSpec(cfg.eval_snr_linear, noiseless=True)
    runners = _build_runners(cfg, grid, narrow)

    sweep_values = cfg.snr_grid_db if cfg.sweep_over == "snr" else cfg.pilot_grid
    sweep_name = "snr_db" if cfg.sweep_over == "snr" else "pilots"
    protocols = cfg.protocols
    snr_db = (sweep_values if cfg.sweep_over == "snr"
              else cfg.snr_grid_db[:1] * len(sweep_values))
    snrs = [SnrSpec(10.0 ** (float(db) / 10.0), noiseless=cfg.noiseless) for db in snr_db]

    rows = []
    log: list[TrialRecord] = []
    for value, snr in zip(sweep_values, snrs):
        if cfg.sweep_over == "snr":
            budgets = [proto.pilot_budget for proto in protocols]
        else:
            budgets = [int(value)] * len(protocols)
        hits = np.zeros((len(protocols), cfg.trials), dtype=bool)
        rates = np.empty((len(protocols), cfg.trials))
        pilots_used = [0] * len(protocols)
        for start in range(0, cfg.trials, TRIAL_BLOCK):
            trials = range(start, min(start + TRIAL_BLOCK, cfg.trials))
            block = channel_block([normalize_channel(sample_channel(
                geometry, grid, derive_rng(cfg.master_seed, "channel", sweep_name,
                                           float(value), trial), cfg.sampling_mode))
                for trial in trials])
            estimates = []  # per protocol: the block's (BS, RIS) index estimates
            for p, (proto, run, budget) in enumerate(zip(protocols, runners, budgets)):
                rngs = [derive_rng(cfg.master_seed, proto.tag, sweep_name, float(value),
                                   trial) for trial in trials]
                result = run(block, snr=snr, budget=budget, rngs=rngs)
                hits[p, start:trials.stop] = ((result.est_bs_index == block.bs_index)
                                              & (result.est_ris_index == block.ris_index))
                estimates.append(list(zip(result.est_bs_index.tolist(),
                                          result.est_ris_index.tolist())))
                pilots_used[p] = result.pilots_used
            for t, trial in enumerate(trials):
                chosen = [est[t] for est in estimates]
                distinct = list(dict.fromkeys(chosen))
                rate_of = dict(zip(distinct, tuple_rates(block, t, narrow, distinct, eval_snr)))
                rates[:, trial] = [rate_of[estimate] for estimate in chosen]
        for p, proto in enumerate(protocols):
            rows.append(_result_row(proto.tag, sweep_name, float(value), hits[p],
                                    rates[p], pilots_used[p]))
            if log_trials:
                log.extend(TrialRecord(proto.tag, float(value), trial, bool(hits[p, trial]),
                                       float(rates[p, trial]))
                           for trial in range(cfg.trials))
    return ResultSet(rows=tuple(rows), trial_log=tuple(log))


def _result_row(tag: str, sweep_name: str, value: float, hits: np.ndarray,
                rates: np.ndarray, pilots: int) -> ResultRow:
    trials = hits.size
    p_hat = int(hits.sum()) / trials
    success_ci = 1.96 * np.sqrt(p_hat * (1.0 - p_hat) / trials)
    rate_ci = 1.96 * rates.std(ddof=1) / np.sqrt(trials) if trials > 1 else 0.0
    return ResultRow(
        protocol=tag,
        sweep_variable=sweep_name,
        sweep_value=value,
        trials=trials,
        pilots=int(pilots),
        success_rate=float(p_hat),
        success_ci95=float(success_ci),
        mean_rate=float(rates.mean()),
        rate_ci95=float(rate_ci),
    )


def export_results(results: ResultSet, path, fmt: str = "csv") -> None:
    """Write the aggregated rows; CSV floats carry 10 significant digits."""
    path = Path(path)
    if fmt == "csv":
        with path.open("w", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(CSV_COLUMNS)
            for row in results.rows:
                writer.writerow([
                    row.protocol, row.sweep_variable,
                    _fmt(row.sweep_value), row.trials, row.pilots,
                    _fmt(row.success_rate), _fmt(row.success_ci95),
                    _fmt(row.mean_rate), _fmt(row.rate_ci95),
                ])
    elif fmt == "json":
        payload = {
            "schema": list(CSV_COLUMNS),
            "rows": [asdict(row) for row in results.rows],
        }
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        raise ValueError(f"unknown format {fmt!r}")


def _fmt(value: float) -> str:
    return f"{value:.10g}"


def import_results(path) -> ResultSet:
    """Read back a JSON result file written by export_results."""
    payload = json.loads(Path(path).read_text())
    rows = tuple(ResultRow(**row) for row in payload["rows"])
    return ResultSet(rows=rows)


def export_trial_log(results: ResultSet, path) -> None:
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(("protocol", "sweep_value", "trial", "success", "rate"))
        for rec in results.trial_log:
            writer.writerow([rec.protocol, _fmt(rec.sweep_value), rec.trial,
                             int(rec.success), _fmt(rec.rate)])


# -- presets ---------------------------------------------------------------

def desk_snr_sweep(**overrides) -> ExperimentConfig:
    """CI-speed sweep: 16-antenna BS, 8x8 RIS, SNR from -10 to 20 dB."""
    base = ExperimentConfig(
        snr_grid_db=(-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0),
        sweep_over="snr",
    )
    return replace(base, **overrides)


def desk_pilot_sweep(**overrides) -> ExperimentConfig:
    base = ExperimentConfig(
        snr_grid_db=(10.0,),
        pilot_grid=tuple(range(4, 101, 8)),
        sweep_over="pilots",
    )
    return replace(base, **overrides)


def full_snr_sweep(**overrides) -> ExperimentConfig:
    """Full-scale sweep: 64-antenna BS, 16x16 RIS (minutes, not CI time)."""
    base = ExperimentConfig(
        n_bs=64, n_ris_rows=16, n_ris_cols=16,
        snr_grid_db=(-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0),
        trials=500,
        sweep_over="snr",
    )
    return replace(base, **overrides)


def full_pilot_sweep(**overrides) -> ExperimentConfig:
    base = ExperimentConfig(
        n_bs=64, n_ris_rows=16, n_ris_cols=16,
        snr_grid_db=(10.0,),
        pilot_grid=(4, 20, 32, 56, 100, 1000, 4000, 8000, 16384, 20000),
        trials=200,
        sweep_over="pilots",
    )
    return replace(base, **overrides)


PRESETS = {
    "desk": {"snr": desk_snr_sweep, "pilots": desk_pilot_sweep},
    "full": {"snr": full_snr_sweep, "pilots": full_pilot_sweep},
}


def config_to_dict(cfg: ExperimentConfig) -> dict:
    data = asdict(cfg)
    data["protocols"] = [asdict(p) for p in cfg.protocols]
    data["gs"] = asdict(cfg.gs)
    return data


def _known_keys(cls, data: dict, where: str) -> dict:
    """A JSON object as a dict, if every key names a field of the dataclass ``cls``."""
    if not isinstance(data, dict):
        raise ValueError(f"a {where} must be a JSON object, got {data!r}")
    unknown = sorted(set(data) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"unknown {where} key(s): {', '.join(unknown)}")
    return dict(data)


def config_from_dict(data: dict) -> ExperimentConfig:
    """The config a JSON object describes; a key that names no field is a ValueError."""
    data = _known_keys(ExperimentConfig, data, "config")
    if "protocols" in data:
        data["protocols"] = tuple(ProtocolSpec(**_known_keys(ProtocolSpec, p, "protocol"))
                                  for p in data["protocols"])
    if "gs" in data:
        data["gs"] = GsConfig(**_known_keys(GsConfig, data["gs"], "gs"))
    for key in ("snr_grid_db", "pilot_grid"):
        if key in data:
            data[key] = tuple(data[key])
    return ExperimentConfig(**data)


def load_config(path) -> ExperimentConfig:
    return config_from_dict(json.loads(Path(path).read_text()))

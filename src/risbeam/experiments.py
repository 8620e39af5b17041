"""Monte-Carlo sweeps over SNR or pilot budget, metrics, and result files.

A sweep is one point-major sequence of (sweep point, trial) rows, run in
blocks of at most ``trial_block(geometry)`` rows that span its points, in an
SNR sweep and a pilots sweep alike. Per-trial channels are seeded
independently of the protocol, so one ``sample_block`` call draws each
channel of a block once, and every protocol runs on that ``ChannelBlock`` at
each row's SNR and pilot budget; the measurement noise stream is seeded per
(protocol, sweep point, trial), so the block size changes no result. Every
channel and noise stream of the sweep is seeded at once before the first
trial (``stream_words``), and ``word_streams`` builds each block's generators
from their words. Before the first trial, one ``design_beams`` call designs
the codebooks and the prefix beams, every RIS GS design of both in one GS
loop, and each protocol gets one block runner, called once per block:
``run_exhaustive``, ``run_layered`` for coded and full-coverage hierarchical
training (the latter with identity codes, whose codebooks are the first k
layers of the coded ones), or ``run_adaptive`` with the same identity codes
and the prefix-beam matrices. One ``tuple_rates`` call rates every
protocol's estimates of a block, and one comparison with the true indices
scores them.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from functools import partial
from pathlib import Path

import numpy as np

from .arrays import (ArrayGeometry, ceil_log2, check_powers_of_two, make_angle_grid,
                     real_number, whole_number)
from .blockcode import build_identity_code
from .channel import SAMPLING_MODES, SnrSpec, sample_block
from .codebook import GsConfig, design_beams
from .seeding import derive_seed, stream_words, word_streams
from .training import (
    ProtocolSpec,
    check_budget,
    coded_codes,
    narrow_beam_matrices,
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
    16 on full). No block array has that shape (``sample_block`` forms the RIS-BS
    matrices ``channel.STACK_BYTES`` at a time); the rule bounds those that grow
    with trials x n_ris: ``sample_block``'s steering gathers and ``h_r``, and the
    narrow-beam columns ``tuple_rates`` gathers for every protocol. 128-row blocks
    at full size change no result but raised a 50-trial full SNR sweep's peak RSS
    from 41.4 to 46.2 MiB (one BLAS thread)."""
    return max(MIN_TRIAL_BLOCK, BLOCK_BYTES // (16 * geometry.n_ris * geometry.n_bs))

CSV_COLUMNS = (
    "protocol", "sweep_variable", "sweep_value", "trials", "pilots",
    "success_rate", "success_ci95", "mean_rate", "rate_ci95",
)


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
        layered = any(_is_layered(p) for p in self.protocols)
        if layered:
            check_powers_of_two(
                (self.n_bs, self.n_ris_rows, self.n_ris_cols),
                "coded and full-coverage hierarchical training decode each index "
                "from a bit word, and every word must name a grid point")
        if self.n_bs < 2 and layered:
            raise ValueError(
                f"n_bs={self.n_bs}: coded and full-coverage hierarchical training "
                "need at least two BS candidates")
        if self.n_ris_rows * self.n_ris_cols < 2 and layered:
            raise ValueError(
                f"n_ris={self.n_ris_rows * self.n_ris_cols}: coded and full-coverage "
                "hierarchical training need at least two RIS candidates")
        if self.sweep_over == "pilots":
            for proto in self.protocols:
                if proto.pilot_budget is not None:
                    raise ValueError(f"a pilots sweep takes every budget from pilot_grid, "
                                     f"got pilot_budget={proto.pilot_budget} for {proto.tag}")
                for budget in self.pilot_grid:
                    check_budget(proto.kind, budget)

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


def _linear_snr(db) -> float:
    """10^(db/10) for a real dB value; a ValueError unless it is positive and finite."""
    try:
        linear = 10.0 ** (real_number(db, "an SNR in dB") / 10.0)
    except OverflowError:
        linear = math.inf
    if not 0.0 < linear < math.inf:
        raise ValueError(f"an SNR of {db!r} dB has no positive and finite linear value")
    return linear


def _is_layered(proto: ProtocolSpec) -> bool:
    """Coded and full-coverage hierarchical protocols run through run_layered."""
    return proto.kind == "coded" or (proto.kind == "hierarchical"
                                     and proto.hierarchical_variant == "full_coverage")


def _build_runners(cfg: ExperimentConfig, grid, narrow) -> list:
    """One block runner per protocol, each called as run(block, snr=, budget=, rngs=).

    Every beam is designed here, in one ``design_beams`` call. The identity
    codes' codebooks are the systematic layers of the coded codebooks, so they
    are designed on their own only without a coded protocol.
    """
    geometry = cfg.geometry
    k_bs, k_u, k_w = map(ceil_log2, (geometry.n_bs, geometry.n_ris_rows, geometry.n_ris_cols))
    identity = (build_identity_code(k_bs), build_identity_code(k_u, k_w))
    kinds = [p.kind for p in cfg.protocols if _is_layered(p)]
    codes = (coded_codes(cfg.n_bs, (cfg.n_ris_rows, cfg.n_ris_cols)) if "coded" in kinds
             else identity if kinds else None)
    adaptive = any(p.kind == "hierarchical" and not _is_layered(p) for p in cfg.protocols)
    books, beams = design_beams(geometry, grid, cfg.gs, codes, adaptive, ideal=cfg.ideal_beams)
    layered = {"coded": (codes, books),
               "hierarchical": (identity, books and tuple(
                   book.first_layers(code.k) for book, code in zip(books, identity)))}
    runners = []
    for proto in cfg.protocols:
        if proto.kind == "exhaustive":
            runners.append(partial(run_exhaustive, narrow_beams=narrow))
        elif _is_layered(proto):
            proto_codes, proto_books = layered[proto.kind]
            mode = proto.decode_mode if proto.kind == "coded" else "none"
            runners.append(partial(run_layered, books=proto_books, codes=proto_codes,
                                   decode_mode=mode, ideal=cfg.ideal_beams))
        else:
            runners.append(partial(run_adaptive, beams=beams, codes=identity,
                                   ideal=cfg.ideal_beams))
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
    size = trial_block(geometry)

    sweep_values = cfg.snr_grid_db if cfg.sweep_over == "snr" else cfg.pilot_grid
    sweep_name = "snr_db" if cfg.sweep_over == "snr" else "pilots"
    protocols, trials, cells = cfg.protocols, cfg.trials, len(sweep_values) * cfg.trials
    linear = np.resize([_linear_snr(db) for db in cfg.snr_grid_db], len(sweep_values))
    budgets = np.array([[proto.pilot_budget if cfg.sweep_over == "snr" else int(value)
                         for proto in protocols] for value in sweep_values], dtype=object)

    # every channel and noise stream of the sweep, by (tag, sweep point, trial)
    tags = ["channel"] + [proto.tag for proto in protocols]
    words = stream_words(np.fromiter(
        (derive_seed(cfg.master_seed, tag, sweep_name, float(value), trial)
         for tag in tags for value in sweep_values for trial in range(trials)),
        np.uint64)).reshape(len(tags), cells, 4)

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

    rows = []
    log: list[TrialRecord] = []
    hits, rates = (a.reshape(len(protocols), len(sweep_values), trials) for a in (hits, rates))
    for point, value in enumerate(sweep_values):
        for p, proto in enumerate(protocols):
            # a point's trials share its budget, so its first trial's pilots are every trial's
            rows.append(_result_row(proto.tag, sweep_name, float(value), hits[p, point],
                                    rates[p, point], pilots[p, point * trials]))
            if log_trials:
                log.extend(TrialRecord(proto.tag, float(value), trial,
                                       bool(hits[p, point, trial]), float(rates[p, point, trial]))
                           for trial in range(trials))
    return ResultSet(rows=tuple(rows), trial_log=tuple(log))


def _result_row(tag: str, sweep_name: str, value: float, hits: np.ndarray,
                rates: np.ndarray, pilots: int) -> ResultRow:
    trials = hits.size
    p_hat = int(hits.sum()) / trials
    success_ci = 1.96 * np.sqrt(p_hat * (1.0 - p_hat) / trials)
    # equal rates give exactly 0, not the rounding noise of their mean
    rate_ci = 1.96 * rates.std(ddof=1) / np.sqrt(trials) if np.ptp(rates) > 0 else 0.0
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
    """Full-scale sweep: 64-antenna BS, 16x16 RIS, SNR from -10 to 20 dB, 500 trials."""
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

#!/usr/bin/env python3
"""risbeam benchmark: Monte-Carlo sweep time, set-up time, memory, correctness.

Run from the repository root:

    python3 perfbench/run.py --workload desk-snr --seed 0 --seconds 40 --trace 0

One run is one process and one closed-loop client: sweeps run one after
another through the in-process ``risbeam.cli.main`` entry point, with the
BLAS and OpenMP pools pinned to one thread. The workload seed becomes the
sweep's ``master_seed``; the codeword-design seed ``gs.seed`` stays fixed.

``--trace 0`` repeats set-ups and sweeps for ``--seconds`` and prints the
end-to-end metrics (see measure_untraced). ``--trace 1`` alternates untraced
and traced sweeps and prints the per-layer metrics of tracing.py. Every
sweep's output is checked: each (protocol, sweep point) cell must satisfy the
invariants of failed_cells and, on the seed the pinned rows under
``reference/`` were recorded with, match them. A cell that is
wrong or missing, or whose sweep raised, counts as failed. The last stdout
line is one JSON object with the keys correct, attempted, failed and metrics,
where attempted and failed count cells over all sweeps of the run.
"""

from __future__ import annotations

import os

# Pin the native thread pools before numpy is imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
MIN_SETUPS = 5
MIN_SWEEPS = 3
SETUP_SHARE = 0.2  # share of the measured time spent on set-ups (trace 0)
MEAN_RATE_RTOL = 1e-9
# Calibration time on an uncontended CPU of the reference host (2-CPU Intel
# Xeon VM, Python 3.11, numpy 2.4): between its 1st and 5th percentile over 20 s.
CAL_REF_S = 0.00114

@dataclass(frozen=True)
class Workload:
    command: str  # "sweep-snr" | "sweep-pilots"
    trials: int
    scale: str = ""  # a shipped preset, or empty with `config`
    config: dict | None = None  # JSON experiment config passed via --config
    log_trials: bool = False


# Why each workload was chosen is in BENCHMARK.json. The trial counts keep one
# sweep near half a second to a second on a 2-CPU Xeon VM with numpy 2.4, so a
# run repeats it often enough to meet the host's fast spells.
WORKLOADS = {
    "desk-snr": Workload(
        "sweep-snr", trials=12, scale="desk"),
    "full-pilots": Workload(
        "sweep-pilots", trials=4, scale="full"),
    "desk-continuous-adaptive": Workload(
        "sweep-snr", trials=10, log_trials=True,
        config={
            "n_bs": 16, "n_ris_rows": 8, "n_ris_cols": 8,
            "snr_grid_db": [-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0],
            "protocols": [
                {"kind": "hierarchical", "hierarchical_variant": "adaptive"},
                {"kind": "coded", "decode_mode": "one_bit"},
                {"kind": "coded", "decode_mode": "decoupled_two_bit"},
            ],
            "sampling_mode": "continuous",
            "sweep_over": "snr",
        }),
}


def import_risbeam():
    """Import risbeam from this checkout's src/, never from an installed copy."""
    if not (SRC / "risbeam" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'risbeam'} not found; run from a risbeam checkout")
    sys.path.insert(0, str(SRC))
    import risbeam
    from risbeam import arrays, blockcode, channel, cli, codebook, experiments, training

    if Path(risbeam.__file__).resolve().parent != (SRC / "risbeam").resolve():
        raise SystemExit(f"error: imported risbeam from {risbeam.__file__}, not {SRC}")
    return {"arrays": arrays, "blockcode": blockcode, "channel": channel, "cli": cli,
            "codebook": codebook, "experiments": experiments, "training": training}


def experiment_config(rb, wl: Workload, seed: int):
    experiments = rb["experiments"]
    if wl.config is not None:
        cfg = experiments.config_from_dict(wl.config)
    else:
        cfg = experiments.PRESETS[wl.scale]["snr" if wl.command == "sweep-snr" else "pilots"]()
    return replace(cfg, trials=wl.trials, master_seed=seed)


def cells(cfg) -> list[tuple[str, float]]:
    values = cfg.snr_grid_db if cfg.sweep_over == "snr" else cfg.pilot_grid
    return [(p.tag, float(v)) for v in values for p in cfg.protocols]


def set_up(rb, cfg) -> None:
    """What every sweep of cfg builds before its first trial."""
    geometry = cfg.geometry
    grid = rb["arrays"].make_angle_grid(geometry)
    ceil_log2 = rb["training"].ceil_log2
    code_t = rb["blockcode"].build_plain_code(ceil_log2(geometry.n_bs))
    code_r = rb["blockcode"].build_reduced_code(ceil_log2(geometry.n_ris_rows),
                                                ceil_log2(geometry.n_ris_cols))
    rb["codebook"].build_codebooks(code_t, code_r, grid, geometry, cfg.gs)
    rb["training"].narrow_beam_matrices(grid, geometry)


# -- correctness -------------------------------------------------------------

def expected_pilots(rb, cfg, proto, value: float) -> int:
    """training_overhead capped by the budget (layered protocols use whole layers)."""
    geometry = cfg.geometry
    overhead = rb["training"].training_overhead(
        proto.kind, geometry.n_bs, (geometry.n_ris_rows, geometry.n_ris_cols))
    budget = proto.pilot_budget if cfg.sweep_over == "snr" else int(value)
    if budget is None:
        return overhead
    if proto.kind == "exhaustive":
        return min(overhead, budget)
    return min(overhead, budget - budget % 4)


def reference_rows(rows) -> list[dict]:
    return [{"protocol": r["protocol"], "sweep_value": r["sweep_value"],
             "trials": r["trials"], "pilots": r["pilots"],
             "successes": round(r["success_rate"] * r["trials"]),
             "mean_rate": r["mean_rate"]} for r in rows]


def failed_cells(rb, cfg, rows, log_rows, reference) -> list[str]:
    """One entry per cell that breaks an invariant or the pinned reference."""
    expected = cells(cfg)
    by_key = {(r["protocol"], float(r["sweep_value"])): r for r in rows}
    protos = {p.tag: p for p in cfg.protocols}
    ref = ({(r["protocol"], float(r["sweep_value"])): r for r in reference["rows"]}
           if reference is not None else None)
    logged: dict = {}
    for rec in log_rows or ():
        key = (rec["protocol"], float(rec["sweep_value"]))
        count, hits = logged.get(key, (0, 0))
        logged[key] = (count + 1, hits + int(rec["success"]))
    if len(rows) != len(expected):
        return [f"{key}: {len(rows)} rows for {len(expected)} cells" for key in expected]
    failed = []
    for key in expected:
        row = by_key.get(key)
        if row is None or not _row_ok(rb, cfg, protos[key[0]], key[1], row):
            failed.append(f"{key}: {row}")
            continue
        successes = round(row["success_rate"] * row["trials"])
        if log_rows is not None and logged.get(key) != (cfg.trials, successes):
            failed.append(f"{key}: trial log {logged.get(key)} != {(cfg.trials, successes)}")
            continue
        if ref is not None:
            pinned = ref.get(key)
            if (pinned is None or pinned["successes"] != successes
                    or pinned["pilots"] != row["pilots"]
                    or not math.isclose(pinned["mean_rate"], row["mean_rate"],
                                        rel_tol=MEAN_RATE_RTOL, abs_tol=0.0)):
                failed.append(f"{key}: {row} != reference {pinned}")
    return failed


def _row_ok(rb, cfg, proto, value, row) -> bool:
    successes = row["success_rate"] * row["trials"]
    return (row["trials"] == cfg.trials
            and abs(successes - round(successes)) < 1e-6
            and 0 <= round(successes) <= cfg.trials
            and all(math.isfinite(row[k]) for k in ("mean_rate", "rate_ci95",
                                                     "success_ci95"))
            and row["mean_rate"] >= 0.0
            and row["pilots"] == expected_pilots(rb, cfg, proto, value))


def read_trial_log(path: Path) -> list[dict]:
    with path.open(newline="") as handle:
        return list(csv.DictReader(handle))


# -- the run -----------------------------------------------------------------

class Clock:
    """Times a call in wall seconds and in reference seconds.

    Neighbours on a shared VM host slow this machine by up to 2x in spells
    that last from seconds to minutes, so a whole run can fall inside one.
    A fixed calibration loop runs right before and right after each timed
    call. Reference seconds are wall seconds times CAL_REF_S over the mean
    calibration time: the call's time on the uncontended host. The loop
    mixes the sweeps' two kinds of work in about equal time, Python calls
    into tiny numpy products and BLAS matrix-vector products, because the
    host's contention slows the two by different factors.
    """

    def __init__(self) -> None:
        self._vec = np.ones(64, dtype=complex)
        self._mat = np.full((256, 64), 1.0 + 1.0j)
        self.speeds: list[float] = []  # CAL_REF_S / calibration time, per call

    def _calibrate(self) -> float:
        vec, mat = self._vec, self._mat
        best = math.inf
        for _ in range(3):
            t0 = perf_counter()
            for _ in range(500):
                abs(complex(vec @ vec))
            for _ in range(120):
                mat @ vec
            best = min(best, perf_counter() - t0)
        return best

    def timed(self, fn, *args):
        """(fn's result, wall seconds, reference seconds)."""
        gc.collect()
        before = self._calibrate()
        t0 = perf_counter()
        result = fn(*args)
        wall = perf_counter() - t0
        speed = CAL_REF_S / ((before + self._calibrate()) / 2)
        self.speeds.append(speed)
        return result, wall, wall * speed


class Sweeper:
    """Runs one workload's sweep through cli.main and checks each output."""

    def __init__(self, rb, wl: Workload, seed: int, workdir: Path, reference):
        self.rb = rb
        self.cfg = experiment_config(rb, wl, seed)
        self.reference = reference
        self.results = workdir / "results.json"
        self.log = workdir / "trials.csv" if wl.log_trials else None
        argv = [wl.command, "--trials", str(wl.trials), "--seed", str(seed),
                "--format", "json", "--out", str(self.results)]
        if wl.config is not None:
            config_path = workdir / "config.json"
            config_path.write_text(json.dumps(wl.config))
            argv += ["--config", str(config_path)]
        else:
            argv += ["--scale", wl.scale]
        if self.log is not None:
            argv += ["--log-trials", str(self.log)]
        self.argv = argv
        self.attempted = 0
        self.failures: list[str] = []

    def _main(self, call):
        main = self.rb["cli"].main
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                return call(main, self.argv) if call else main(self.argv)
        except Exception:
            traceback.print_exc()
            return None

    def run(self, clock: Clock, call=None) -> tuple[float, float]:
        """One timed sweep (cli.main, export included), then its check."""
        self.results.unlink(missing_ok=True)
        status, *elapsed = clock.timed(self._main, call)
        self.attempted += len(cells(self.cfg))
        if status != 0:
            self.failures += [f"{cell}: sweep exited with {status}"
                              for cell in cells(self.cfg)]
            return elapsed
        try:
            rows = json.loads(self.results.read_text())["rows"]
            log_rows = read_trial_log(self.log) if self.log else None
        except (OSError, ValueError, KeyError) as exc:
            self.failures += [f"{cell}: unreadable output: {exc!r}" for cell in cells(self.cfg)]
        else:
            self.failures += failed_cells(self.rb, self.cfg, rows, log_rows,
                                          self.reference)
        return elapsed

    def write_reference(self, path: Path) -> None:
        rows = reference_rows(json.loads(self.results.read_text())["rows"])
        lines = ",\n".join("  " + json.dumps(row) for row in rows)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(f'{{"seed": {self.cfg.master_seed}, "trials": {self.cfg.trials}, '
                        f'"rows": [\n{lines}\n]}}\n')


def manifest(rb, wl_name: str, seed: int, sweeper: Sweeper, reps: dict) -> dict:
    import numpy

    cpu_model = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    digest = hashlib.sha256()
    for path in sorted((SRC / "risbeam").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": wl_name,
        "seed": seed,
        "trials": sweeper.cfg.trials,
        "cells_per_sweep": len(cells(sweeper.cfg)),
        **reps,
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "thread_pins": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout read from .git, or None outside a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def measure_untraced(rb, sweeper: Sweeper, seconds: float) -> tuple[dict, dict]:
    """Interleave set-ups and sweeps over the run; report medians in reference seconds."""
    clock = Clock()
    setups, sweeps = [], []  # (wall, reference) seconds per repetition
    start = perf_counter()
    while (len(sweeps) < MIN_SWEEPS or len(setups) < MIN_SETUPS
           or perf_counter() - start < seconds):
        setup_wall = sum(wall for wall, _ in setups)
        if (len(setups) < MIN_SETUPS
                or setup_wall < SETUP_SHARE * (setup_wall + sum(wall for wall, _ in sweeps))):
            _, *elapsed = clock.timed(set_up, rb, sweeper.cfg)
            setups.append(elapsed)
        else:
            sweeps.append(sweeper.run(clock))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "sweep_s": (statistics.median(ref for _, ref in sweeps), "s"),
        "setup_s": (statistics.median(ref for _, ref in setups), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    return metrics, {"sweeps": len(sweeps), "setups": len(setups),
                     "median_speed": statistics.median(clock.speeds),
                     "sweep_wall_s": [wall for wall, _ in sweeps],
                     "sweep_ref_s": [ref for _, ref in sweeps],
                     "setup_wall_s": [wall for wall, _ in setups],
                     "setup_ref_s": [ref for _, ref in setups]}


def measure_traced(rb, sweeper: Sweeper, seconds: float, spans_path: Path):
    """Alternate untraced and traced sweeps.

    The layer metrics are the wall times and counts of the traced sweep that
    ran fastest; the overhead compares medians in reference seconds.
    """
    from tracing import Tracer

    clock = Clock()
    tracer = Tracer()
    untraced, traced, per_sweep = [], [], []
    points = len(cells(sweeper.cfg)) // len(sweeper.cfg.protocols)
    start = perf_counter()
    while len(traced) < MIN_SWEEPS or perf_counter() - start < seconds:
        untraced.append(sweeper.run(clock))
        tracer.install(rb)
        try:
            traced.append(sweeper.run(clock, call=tracer.traced_call))
        finally:
            tracer.remove()
        per_sweep.append(tracer.sweep_metrics(len(tracer.sweeps) - 1,
                                              sweeper.cfg.trials, points))
    tracer.write(spans_path)
    fastest = min(range(len(traced)), key=lambda i: traced[i][0])
    layer = per_sweep[fastest]
    base = statistics.median(ref for _, ref in untraced)
    layer["trace.overhead_share"] = statistics.median(ref for _, ref in traced) / base - 1.0
    return layer, {"sweeps": len(untraced) + len(traced), "untraced_sweep_s": base,
                   "median_speed": statistics.median(clock.speeds),
                   "spans": len(tracer.name_ids),
                   "spans_file": str(spans_path.relative_to(ROOT))}


def load_reference(path: Path, seed: int):
    """The pinned rows if they were recorded for this seed, else None."""
    if not path.is_file():
        raise SystemExit(f"error: reference file {path} is missing")
    reference = json.loads(path.read_text())
    return reference if reference["seed"] == seed else None


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--reference", type=Path,
                        help="pinned rows to check against (default: reference/<workload>.json)")
    parser.add_argument("--write-reference", action="store_true",
                        help="record the first sweep's rows as the reference for --seed "
                             "instead of checking against it")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        raise SystemExit("error: --seconds must be positive")
    wl = WORKLOADS[args.workload]
    ref_path = args.reference or HERE / "reference" / f"{args.workload}.json"
    rb = import_risbeam()
    reference = None if args.write_reference else load_reference(ref_path, args.seed)
    if reference is not None and reference["trials"] != wl.trials:
        raise SystemExit(f"error: {ref_path} pins {reference['trials']} trials, "
                         f"the workload runs {wl.trials}")
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        sweeper = Sweeper(rb, wl, args.seed, workdir, reference)
        if args.trace:
            spans_path = OUT / f"spans-{args.workload}.json"
            values, reps = measure_traced(rb, sweeper, args.seconds, spans_path)
            units = per_layer_units()
            metrics = {name: (values[name], units[name]) for name in units}
        else:
            metrics, reps = measure_untraced(rb, sweeper, args.seconds)
        if args.write_reference:
            sweeper.write_reference(ref_path)
            print(f"wrote {ref_path}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(sweeper.failures)
    info = manifest(rb, args.workload, args.seed, sweeper, reps)
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(info, indent=1) + "\n")
    for line in sweeper.failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    print("manifest " + json.dumps(info))
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:.6g} {unit}")
    failed_share = failed / sweeper.attempted
    print(f"{'failed_share':40s} {failed_share:.6g} cells ({failed} of {sweeper.attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sweeper.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def per_layer_units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())

"""Pinned sweep outputs: fresh runs must reproduce tests/data/ byte for byte.

Each case writes its JSON results and its trial-log CSV. A change to any
number, tie break or noise-stream order shows up here as a byte difference.
Regenerate the files only for an intended change of the results, and say
why in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from risbeam.experiments import (
    ExperimentConfig,
    desk_pilot_sweep,
    desk_snr_sweep,
    export_results,
    export_trial_log,
    run_sweep,
)
from risbeam.training import ProtocolSpec

DATA = Path(__file__).parent / "data"

DEFAULT_AND_ADAPTIVE = ExperimentConfig().protocols + (
    ProtocolSpec("hierarchical", hierarchical_variant="adaptive"),
)
BOTH_HIERARCHICAL = (
    ProtocolSpec("hierarchical"),
    ProtocolSpec("hierarchical", hierarchical_variant="adaptive"),
)

CASES = {
    "desk_snr": desk_snr_sweep(trials=12, master_seed=3,
                               protocols=DEFAULT_AND_ADAPTIVE),
    "desk_pilots": desk_pilot_sweep(trials=10, master_seed=5,
                                    protocols=DEFAULT_AND_ADAPTIVE),
    "continuous": desk_snr_sweep(
        trials=12, master_seed=7, snr_grid_db=(-5.0, 5.0, 15.0),
        sampling_mode="continuous",
        protocols=BOTH_HIERARCHICAL + (ProtocolSpec("coded", "one_bit"),
                                       ProtocolSpec("coded", "decoupled_two_bit"))),
    "ideal_beams": desk_snr_sweep(
        trials=12, master_seed=11, snr_grid_db=(-10.0, 0.0, 10.0),
        ideal_beams=True, protocols=DEFAULT_AND_ADAPTIVE),
    "hierarchical_4x4": ExperimentConfig(
        n_bs=8, n_ris_rows=4, n_ris_cols=4, snr_grid_db=(-5.0, 5.0, 15.0),
        trials=15, master_seed=13, protocols=BOTH_HIERARCHICAL),
}


def write_case(name: str, directory: Path) -> tuple[Path, Path]:
    results = run_sweep(CASES[name], log_trials=True)
    result_path = directory / f"{name}.json"
    log_path = directory / f"{name}.trials.csv"
    export_results(results, result_path, "json")
    export_trial_log(results, log_path)
    return result_path, log_path


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_outputs_byte_identical(name, tmp_path):
    for fresh in write_case(name, tmp_path):
        pinned = DATA / fresh.name
        assert fresh.read_bytes() == pinned.read_bytes(), f"{fresh.name} differs"


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    for case in sorted(CASES):
        for path in write_case(case, DATA):
            print(path, file=sys.stderr)

import argparse
import dataclasses
import json
import re
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import reference
from reference import (achievable_rate, grid_transmit_pair, noiseless_best_tuple, result_row,
                       sample_full_block, success_rate)
from risbeam.arrays import make_angle_grid
from risbeam import codebook, experiments
from risbeam.cli import build_parser
from risbeam.codebook import GsConfig
from risbeam.experiments import (
    CSV_COLUMNS,
    ExperimentConfig,
    ResultRow,
    ResultSet,
    config_from_dict,
    desk_pilot_sweep,
    export_results,
    export_trial_log,
    import_results,
    run_sweep,
)
from risbeam.experiments import _result_rows
from risbeam.seeding import derive_rng
from risbeam.training import ProtocolSpec, protocol_codes


def _tiny_config(**overrides):
    base = dict(
        n_bs=8, n_ris_rows=8, n_ris_cols=8,
        snr_grid_db=(0.0,),
        trials=4,
        protocols=(ProtocolSpec("coded", "one_bit"),),
        gs=GsConfig(seed=1, k_iter=20),
        master_seed=7,
        ideal_beams=True,
        noiseless=True,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_oracle_sweep_is_perfect():
    results = run_sweep(_tiny_config(trials=6,
                                     protocols=(ProtocolSpec("coded", "one_bit"),
                                                ProtocolSpec("hierarchical"))))
    for row in results.rows:
        assert row.success_rate == 1.0
        assert row.success_ci95 == 0.0
        assert row.mean_rate > 0


def test_rate_interval_is_exactly_zero_when_every_rate_is_equal():
    # a noiseless cell rates every trial at its true tuple; the interval of 20
    # equal rates is 0, not the rounding noise of their mean (1.6e-15 here)
    results = run_sweep(_tiny_config(trials=20, protocols=(ProtocolSpec("exhaustive"),)))
    (row,) = results.rows
    assert len(set(results.rate.ravel().tolist())) == 1
    assert row.success_rate == 1.0 and row.rate_ci95 == 0.0


def _bits(value):
    """A field as compared bit for bit: a float by its IEEE bytes, with its type."""
    return (type(value), struct.pack("<d", value) if isinstance(value, float) else value)


@pytest.mark.parametrize("shape", [(1, 1, 1), (1, 1, 12), (4, 7, 1), (4, 7, 12), (3, 2, 129)],
                         ids=["one cell, one trial", "one cell", "one trial", "desk", "long cells"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_result_rows_are_the_per_cell_reference(shape, data):
    # each statistic is one reduction over the (P, S, T) arrays; every field must be
    # the per-cell reference's, floats bit for bit, with no warning at one trial
    hits = data.draw(arrays(bool, shape), label="hits")
    rates = data.draw(arrays(np.float64, shape, elements=st.floats(-1e6, 1e6)), label="rates")
    pilots = data.draw(arrays(np.intp, shape[:2], elements=st.integers(1, 20000)), label="pilots")
    # per cell: free, p = 0, p = 1, or all rates equal
    kinds = data.draw(arrays(np.int8, shape[:2], elements=st.integers(0, 3)), label="kinds")
    hits[kinds == 1], hits[kinds == 2] = False, True
    rates[kinds == 3] = rates[kinds == 3][:, :1]
    cells = [(f"protocol_{p}", float(s)) for s in range(shape[1]) for p in range(shape[0])]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = _result_rows(cells, "snr_db", hits, rates, pilots)
        expected = [result_row(tag, "snr_db", value, hits[p, s], rates[p, s], pilots[p, s])
                    for (tag, value), (s, p) in zip(cells, np.ndindex(shape[1], shape[0]))]
    assert len(rows) == len(expected)
    for row, want in zip(rows, expected):
        for name in CSV_COLUMNS:
            assert _bits(getattr(row, name)) == _bits(getattr(want, name)), name
    for row, kind in zip(rows, kinds.T.ravel()):
        if kind in (1, 2):
            assert row.success_rate == kind - 1 and row.success_ci95 == 0.0
        if kind == 3 or shape[2] == 1:
            assert _bits(row.rate_ci95) == _bits(0.0)


@pytest.mark.parametrize("hit", [True, False])
def test_numpy_scalars_write_the_cells_of_python_scalars(tmp_path, hit):
    # the cell path tests a value's type, not its field's: numpy's scalars must
    # write what the Python scalars they stand for write; a row's sweep value, which
    # the trial log repeats, may be an np.float64 or a Python float
    row = ResultRow("coded_one_bit", "snr_db", -5.0, 12, 48, 0.25, 0.245, 3.14159265358979, 0.1)
    np_row = ResultRow("coded_one_bit", "snr_db", np.float64(-5.0), np.int64(12), np.int64(48),
                       np.float64(0.25), np.float64(0.245), np.float64(3.14159265358979),
                       np.float64(0.1))
    trials = (np.array([[True, False, True, hit]]),
              np.array([[0.0, 1e-26, 13.322068976196087, 1 / 3]]))
    written = []
    for results in (ResultSet((row,), *trials), ResultSet((np_row,), *trials)):
        export_results(results, tmp_path / "r.csv")
        export_trial_log(results, tmp_path / "t.csv")
        written.append(((tmp_path / "r.csv").read_text(), (tmp_path / "t.csv").read_text()))
    assert written[0] == written[1]
    assert written[0][1].splitlines()[1:] == [
        "coded_one_bit,-5,0,1,0", "coded_one_bit,-5,1,0,1e-26",
        "coded_one_bit,-5,2,1,13.32206898", f"coded_one_bit,-5,3,{int(hit)},0.3333333333"]


def _results_of(keys, hits, rates):
    """A ResultSet of point-major (tag, value) cell keys and (P, S, T) hits and rates, as
    run_sweep keeps them; the trial log reads only the rows' tags and sweep values."""
    rows = tuple(ResultRow(tag, "snr_db", value, hits.shape[-1], 4, 0.0, 0.0, 0.0, 0.0)
                 for tag, value in keys)
    return ResultSet(rows, *(a.swapaxes(0, 1).reshape(len(keys), hits.shape[-1])
                             for a in (hits, rates)))


TAGS = [spec.tag for spec in (ProtocolSpec("exhaustive"), ProtocolSpec("hierarchical"),
                              ProtocolSpec("hierarchical", hierarchical_variant="adaptive"),
                              ProtocolSpec("coded", "none"), ProtocolSpec("coded", "one_bit"),
                              ProtocolSpec("coded", "decoupled_two_bit"))]


@pytest.mark.parametrize("shape", [(1, 1, 1), (3, 2, 1), (2, 3, 9), (1, 2, 10), (2, 2, 11),
                                   (1, 1, 101), (2, 1, 1001)],
                         ids=["one trial", "one trial per cell", "9 trials", "10 trials",
                              "11 trials", "101 trials", "1001 trials"])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_trial_log_export_is_the_record_path(tmp_path_factory, shape, data):
    # the rows and their trial arrays write the bytes csv.writer writes of the reference's
    # per-trial records
    hits = data.draw(arrays(bool, shape), label="hits")
    rates = data.draw(arrays(np.float64, shape, elements=st.one_of(
        st.sampled_from([0.0, 1e-26, 13.322068976196087]),
        st.floats(0.0, 20.0), st.floats())), label="rates")
    # per cell: free, all misses or all hits
    kinds = data.draw(arrays(np.int8, shape[:2], elements=st.integers(0, 2)), label="kinds")
    hits[kinds == 1], hits[kinds == 2] = False, True
    values = data.draw(st.lists(st.one_of(
        st.sampled_from([-0.0, 0.0, 1e-300, 4.0, 100.0, 20000.0, -10.0]),
        st.integers(-100, 20000).map(float), st.floats(-1e3, 1e3)),
        min_size=shape[1], max_size=shape[1]), label="sweep values")
    tags = data.draw(st.permutations(TAGS), label="tags")[:shape[0]]
    keys = [(tag, value) for value in values for tag in tags]
    records = reference.trial_records(keys, hits, rates)
    assert len(records) == hits.size
    out = tmp_path_factory.mktemp("trial_log")
    export_trial_log(_results_of(keys, hits, rates), out / "columns.csv")
    reference.export_trial_records(records, out / "records.csv")
    assert (out / "columns.csv").read_bytes() == (out / "records.csv").read_bytes()


def test_sweep_keeps_the_trial_log_as_its_two_arrays(monkeypatch):
    # the trials run_sweep keeps are its (P, S, T) hits and rates, one bool and one
    # float64 per trial, a row per result row; no flag asks for them
    seen = []

    def kept(keys, sweep_name, hits, rates, pilots):
        seen.append((list(keys), hits.copy(), rates.copy()))
        return _result_rows(keys, sweep_name, hits, rates, pilots)

    monkeypatch.setattr(experiments, "_result_rows", kept)
    cfg = _tiny_config(trials=5, noiseless=False, snr_grid_db=(-5.0, 0.0, 5.0),
                       protocols=(ProtocolSpec("coded", "one_bit"), ProtocolSpec("hierarchical")))
    results = run_sweep(cfg)
    (keys, hits, rates), = seen
    assert (results.success.dtype, results.rate.dtype) == (np.dtype(bool), np.dtype(np.float64))
    assert results.success.shape == results.rate.shape == (6, 5)
    assert results.success.nbytes + results.rate.nbytes == 9 * 30
    assert [(row.protocol, row.sweep_value) for row in results.rows] == keys
    assert results == dataclasses.replace(_results_of(keys, hits, rates), rows=results.rows)
    assert results == run_sweep(cfg)


def test_trial_log_equality_is_bitwise():
    # results are equal when their rows are and their trial arrays are, bit for bit
    results = _results_of([("coded_one_bit", 0.0)], np.ones((1, 1, 3), bool),
                          np.zeros((1, 1, 3)))
    assert results == dataclasses.replace(results, rate=results.rate.copy())
    assert results != dataclasses.replace(results, rate=-results.rate)  # -0.0 is not 0.0
    assert results != dataclasses.replace(results, success=~results.success)
    assert results != dataclasses.replace(results, rate=results.rate.astype(np.float32))
    assert results != dataclasses.replace(results, rate=results.rate[:, :2])
    assert results != dataclasses.replace(
        results, rows=(dataclasses.replace(results.rows[0], sweep_value=1.0),))
    assert results != dataclasses.replace(results, rows=())
    assert ResultSet(()) == ResultSet(()) and ResultSet(()) != results.rows


# The tracemalloc peak of writing a 28-cell, 2,000-trial log (the shipped desk SNR
# preset's). On a 2-CPU x86-64 VM with Python 3.11 and numpy 2.4, the columns read
# 0.30 MB and the records (built from the same arrays, then written through
# csv.writer) 10.4 MB.
EXPORT_PEAK_BYTES = 2 * 2**20


def test_trial_log_export_memory_is_bounded(tmp_path):
    rng = np.random.default_rng(0)
    shape = (4, 7, 2000)
    hits, rates = rng.random(shape) < 0.6, 13.3 * rng.random(shape)
    keys = [(tag, value) for value in np.arange(-10.0, 25.0, 5.0) for tag in TAGS[:4]]
    results = _results_of(keys, hits, rates)
    tracemalloc.start()
    try:
        export_trial_log(results, tmp_path / "t.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < EXPORT_PEAK_BYTES
    assert len((tmp_path / "t.csv").read_text().splitlines()) == 1 + 56_000


def test_sweep_determinism_bitwise(tmp_path):
    cfg = _tiny_config(noiseless=False, trials=5)
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    export_results(run_sweep(cfg), out_a)
    export_results(run_sweep(cfg), out_b)
    assert out_a.read_bytes() == out_b.read_bytes()


def test_sweep_channels_shared_across_protocols():
    cfg = _tiny_config(protocols=(ProtocolSpec("coded", "one_bit"),
                                  ProtocolSpec("coded", "decoupled_two_bit")),
                       trials=3, noiseless=False)
    results = run_sweep(cfg)
    # the rate ceiling is a per-channel quantity; verify per trial against the
    # noiseless exhaustive sweep on the same derived channel
    geometry = cfg.geometry
    grid = make_angle_grid(geometry)
    from risbeam.channel import SnrSpec

    for trial, rates in enumerate(results.rate.T):
        ch_rng = derive_rng(cfg.master_seed, "channel", "snr_db", 0.0, trial)
        ch = sample_full_block(geometry, grid, [ch_rng])
        best = noiseless_best_tuple(ch, grid, geometry)
        v, w = grid_transmit_pair(ch, grid, geometry, *best)
        ceiling = achievable_rate(ch, v, w, SnrSpec(cfg.eval_snr_linear, noiseless=True))
        assert rates.max() <= ceiling + 1e-12


def test_aggregate_matches_trial_log():
    cfg = _tiny_config(trials=8, noiseless=False, snr_grid_db=(-5.0,))
    results = run_sweep(cfg)
    row = results.rows[0]
    hits = results.success[0].sum()
    assert row.success_rate == pytest.approx(hits / cfg.trials)
    assert row.trials == cfg.trials


def test_pilot_sweep_budgets():
    cfg = _tiny_config(sweep_over="pilots", pilot_grid=(8, 48),
                       snr_grid_db=(10.0,))
    results = run_sweep(cfg)
    by_value = {row.sweep_value: row for row in results.rows}
    assert by_value[8.0].pilots == 8
    assert by_value[48.0].pilots == 48
    assert by_value[48.0].success_rate >= by_value[8.0].success_rate


def test_success_rate_counting():
    class Stub:
        def __init__(self, bs, ris):
            self.est_bs_index, self.est_ris_index = bs, ris

    outs = [Stub(1, 1), Stub(2, 2), Stub(3, 4), Stub(4, 4)]
    truths = [(1, 1), (2, 2), (3, 3), (4, 4)]
    assert success_rate(outs, truths) == 0.75
    assert success_rate(outs[:2], truths[:2]) == 1.0
    assert success_rate(outs[2:3], truths[2:3]) == 0.0
    with pytest.raises(ValueError):
        success_rate([], [])
    with pytest.raises(ValueError):
        success_rate(outs, truths[:2])


def test_export_csv_schema(tmp_path):
    cfg = _tiny_config(protocols=(ProtocolSpec("coded", "one_bit"),
                                  ProtocolSpec("hierarchical")),
                       snr_grid_db=(0.0, 10.0))
    results = run_sweep(cfg)
    out = tmp_path / "r.csv"
    export_results(results, out)
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + 2 * 2  # header + protocols x sweep points


def test_export_empty_resultset(tmp_path):
    out = tmp_path / "empty.csv"
    export_results(ResultSet(rows=()), out)
    assert out.read_text().splitlines() == [",".join(CSV_COLUMNS)]


def test_json_roundtrip_exact(tmp_path):
    results = run_sweep(_tiny_config(noiseless=False))
    out = tmp_path / "r.json"
    export_results(results, out, "json")
    loaded = import_results(out)
    assert loaded.rows == results.rows


def test_export_rejects_unknown_format(tmp_path):
    with pytest.raises(ValueError):
        export_results(ResultSet(rows=()), tmp_path / "x.bin", "parquet")


def test_trial_log_export(tmp_path):
    results = run_sweep(_tiny_config(trials=3))
    out = tmp_path / "log.csv"
    export_trial_log(results, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "protocol,sweep_value,trial,success,rate"
    assert len(lines) == 1 + 3


def test_trial_log_of_results_without_trials_is_rejected(tmp_path):
    # import_results reads rows only, and results whose trials do not match their rows
    # have no trial log to write: a ValueError, and no file
    results = run_sweep(_tiny_config(trials=3))
    export_results(results, tmp_path / "r.json", "json")
    for lacking in (import_results(tmp_path / "r.json"), ResultSet(()),
                    dataclasses.replace(results, rows=results.rows * 2)):
        with pytest.raises(ValueError, match="^a trial log needs the trials of every row"):
            export_trial_log(lacking, tmp_path / "t.csv")
        assert not (tmp_path / "t.csv").exists()


def test_config_json_roundtrip():
    every_kind = (ProtocolSpec("exhaustive", pilot_budget=8), ProtocolSpec("hierarchical"),
                  ProtocolSpec("hierarchical", hierarchical_variant="adaptive"),
                  ProtocolSpec("coded", "none"), ProtocolSpec("coded", "decoupled_two_bit"))
    for cfg in (_tiny_config(trials=9), _tiny_config(protocols=every_kind),
                desk_pilot_sweep()):
        data = json.loads(json.dumps(dataclasses.asdict(cfg)))
        assert config_from_dict(data) == cfg


def test_presets_are_the_shipped_sweeps():
    snr_grid = (-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0)
    full = dict(n_bs=64, n_ris_rows=16, n_ris_cols=16)
    shipped = {
        "desk": {
            "snr": ExperimentConfig(snr_grid_db=snr_grid, sweep_over="snr"),
            "pilots": ExperimentConfig(snr_grid_db=(10.0,), pilot_grid=tuple(range(4, 101, 8)),
                                       sweep_over="pilots"),
        },
        "full": {
            "snr": ExperimentConfig(**full, snr_grid_db=snr_grid, trials=500, sweep_over="snr"),
            "pilots": ExperimentConfig(
                **full, snr_grid_db=(10.0,),
                pilot_grid=(4, 20, 32, 56, 100, 1000, 4000, 8000, 16384, 20000),
                trials=200, sweep_over="pilots"),
        },
    }
    assert {scale: {sweep: make() for sweep, make in sweeps.items()}
            for scale, sweeps in experiments.PRESETS.items()} == shipped
    subcommands = next(action.choices for action in build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction))
    for command in ("sweep-snr", "sweep-pilots"):
        scale = subcommands[command]._option_string_actions["--scale"]
        assert tuple(scale.choices) == ("desk", "full") and scale.default is None


def test_config_rejects_the_gs_target_amplitude():
    # every GS design targets its mask's energy-consistent level: the key is unknown
    for value in (1.0, None):
        with pytest.raises(ValueError, match=r"unknown gs key\(s\): target_amplitude"):
            config_from_dict({"gs": {"target_amplitude": value}})


@pytest.mark.parametrize("make,message", [
    (lambda: ProtocolSpec("exhaustive", decode_mode="decoupled_two_bit"),
     "decode_mode applies to coded training only"),
    (lambda: ProtocolSpec("hierarchical", decode_mode="none"),
     "decode_mode applies to coded training only"),
    (lambda: ProtocolSpec("coded", hierarchical_variant="adaptive"),
     "hierarchical_variant applies to hierarchical training only"),
    (lambda: desk_pilot_sweep(pilot_grid=(20,),
                              protocols=(ProtocolSpec("coded", pilot_budget=8),)),
     "a pilots sweep takes every budget from pilot_grid"),
], ids=["exhaustive_decode_mode", "hierarchical_decode_mode", "coded_variant",
        "budget_in_pilots_sweep"])
def test_protocol_fields_a_sweep_ignores_are_rejected(make, message):
    # each used to run: the tag or the pilot count did not show the field
    with pytest.raises(ValueError, match=message):
        make()


def test_config_validation():
    with pytest.raises(ValueError):
        _tiny_config(trials=0)
    with pytest.raises(ValueError):
        _tiny_config(snr_grid_db=())
    with pytest.raises(ValueError):
        _tiny_config(sweep_over="pilots")  # empty pilot grid
    with pytest.raises(ValueError):
        _tiny_config(protocols=())
    with pytest.raises(ValueError, match="sampling mode"):
        _tiny_config(sampling_mode="contnuous")


@pytest.mark.parametrize("data,message", [
    ({"snr_grid_db": [0, 0]}, "snr_grid_db repeats 0"),
    ({"snr_grid_db": [0.0, -0.0]}, "snr_grid_db repeats -0.0"),
    ({"sweep_over": "pilots", "pilot_grid": [8, 8.0]}, "pilot_grid repeats 8.0"),
    ({"protocols": [{"kind": "coded"}, {"kind": "coded"}]},
     "protocols repeats 'coded_one_bit'"),
], ids=["snr", "signed_zero", "pilots", "protocol"])
def test_repeated_sweep_points_and_protocols_are_rejected(data, message):
    # each used to run and write two rows for one cell
    with pytest.raises(ValueError, match=f"^{re.escape(message)}: one cell would get two rows$"):
        config_from_dict(data)


def test_repeat_checks_read_checked_values_and_the_sweep_axis_only():
    # an entry that is not a number is named as such, not as a repeat
    with pytest.raises(ValueError, match="must be a real number"):
        config_from_dict({"snr_grid_db": [[0], [0]]})
    with pytest.raises(ValueError, match="must be a whole number"):
        config_from_dict({"sweep_over": "pilots", "pilot_grid": [[8], [8]]})
    # one config file serves both sweeps: an SNR sweep does not read pilot_grid
    assert config_from_dict({"pilot_grid": [8, 8]}).pilot_grid == (8, 8)


@pytest.mark.parametrize("snr_grid_db", [(), (0.0, 10.0)])
def test_pilots_sweep_runs_at_exactly_one_snr(snr_grid_db):
    # a pilots sweep used to run at the first SNR and drop the rest, or to
    # return no row at all for an empty SNR grid
    with pytest.raises(ValueError, match=r"a pilots sweep runs at one SNR, got snr_grid_db="):
        _tiny_config(sweep_over="pilots", pilot_grid=(8,), snr_grid_db=snr_grid_db)
    _tiny_config(snr_grid_db=(0.0, 10.0))  # an SNR sweep takes the whole grid


def test_pilot_budgets_below_the_minimum_rejected_at_config():
    # layered protocols send whole 4-tuple layers, exhaustive at least one tuple
    hierarchical = (ProtocolSpec("hierarchical"),)
    for protocols in (hierarchical, (ProtocolSpec("coded", "one_bit"),),
                      (ProtocolSpec("hierarchical", hierarchical_variant="adaptive"),)):
        with pytest.raises(ValueError, match="at least 4, got 2"):
            _tiny_config(sweep_over="pilots", pilot_grid=(8, 2), protocols=protocols)
    with pytest.raises(ValueError, match="at least 1, got 0"):
        _tiny_config(sweep_over="pilots", pilot_grid=(0,),
                     protocols=(ProtocolSpec("exhaustive"),))
    with pytest.raises(ValueError, match="at least 4, got 3"):
        ProtocolSpec("coded", pilot_budget=3)
    with pytest.raises(ValueError, match="at least 1, got 0"):
        ProtocolSpec("exhaustive", pilot_budget=0)
    # the smallest budgets run
    results = run_sweep(_tiny_config(sweep_over="pilots", pilot_grid=(1,), trials=2,
                                     protocols=(ProtocolSpec("exhaustive"),)))
    assert results.rows[0].pilots == 1
    results = run_sweep(_tiny_config(protocols=(ProtocolSpec("hierarchical", pilot_budget=4),
                                                ProtocolSpec("exhaustive", pilot_budget=1))))
    assert [row.pilots for row in results.rows] == [4, 1]


@pytest.mark.parametrize("bad", [10.5, True, float("nan"), float("inf"), "8"])
def test_pilot_budgets_must_be_whole_numbers(bad):
    # 10.5 used to run as 10 on the pilot grid, and to fail mid-sweep as a protocol budget
    with pytest.raises(ValueError, match="whole number"):
        _tiny_config(sweep_over="pilots", pilot_grid=(8, bad))
    for kind in ("exhaustive", "coded"):
        with pytest.raises(ValueError, match="whole number"):
            ProtocolSpec(kind, pilot_budget=bad)
    with pytest.raises(ValueError, match="whole number"):
        desk_pilot_sweep(pilot_grid=(bad,))


def test_whole_number_config_fields_are_stored_as_ints():
    cfg = _tiny_config(n_bs=8.0, n_ris_rows=8.0, trials=4.0, master_seed=7.0,
                       gs=GsConfig(seed=1.0, k_iter=20.0))
    assert cfg == _tiny_config()
    for value in (cfg.n_bs, cfg.n_ris_rows, cfg.trials, cfg.master_seed, cfg.gs.seed,
                  cfg.gs.k_iter):
        assert type(value) is int
    for bad in (dict(n_ris_cols=8.5), dict(trials=True), dict(master_seed="7")):
        with pytest.raises(ValueError, match="whole number"):
            _tiny_config(**bad)


def test_whole_number_float_budgets_run_as_ints():
    assert ProtocolSpec("exhaustive", pilot_budget=8.0).pilot_budget == 8
    both = (ProtocolSpec("exhaustive"), ProtocolSpec("coded", "one_bit"))
    results = run_sweep(_tiny_config(sweep_over="pilots", pilot_grid=(12.0,), trials=2,
                                     protocols=both))
    assert [(row.sweep_value, row.pilots) for row in results.rows] == [(12.0, 12)] * 2
    results = run_sweep(_tiny_config(trials=2, protocols=(
        ProtocolSpec("exhaustive", pilot_budget=8.0),
        ProtocolSpec("coded", "one_bit", pilot_budget=12.0))))
    assert [row.pilots for row in results.rows] == [8, 12]


@pytest.mark.parametrize("overrides", [
    {"snr_grid_db": (0.0, float("nan"))},
    {"snr_grid_db": (float("inf"),)},
    {"sweep_over": "pilots", "pilot_grid": (8,), "snr_grid_db": (float("nan"),)},
    {"eval_snr_linear": float("nan")},
    {"eval_snr_linear": float("inf")},
])
def test_non_finite_snrs_rejected_before_any_trial(monkeypatch, overrides):
    # a NaN training SNR used to report success 0.0 and rate 0.0 for every protocol
    def no_draw(*args, **kwargs):
        raise AssertionError("a channel was drawn")

    monkeypatch.setattr(experiments, "sample_block", no_draw)
    with pytest.raises(ValueError, match="positive and finite"):
        run_sweep(_tiny_config(**overrides))


def test_single_antenna_bs_rejected_for_layered_protocols():
    for protocols in ((ProtocolSpec("coded", "one_bit"),), (ProtocolSpec("hierarchical"),)):
        with pytest.raises(ValueError, match="at least two candidates on each side, got n_bs=1$"):
            _tiny_config(n_bs=1, protocols=protocols)
    # adaptive hierarchical training has nothing to search on the BS side and runs
    adaptive = (ProtocolSpec("hierarchical", hierarchical_variant="adaptive"),)
    results = run_sweep(_tiny_config(n_bs=1, protocols=adaptive, trials=3))
    assert results.rows[0].success_rate == 1.0


def test_single_element_ris_rejected_for_layered_protocols():
    for protocols in ((ProtocolSpec("coded", "one_bit"),), (ProtocolSpec("hierarchical"),)):
        with pytest.raises(ValueError, match="at least two candidates on each side, got n_ris=1$"):
            _tiny_config(n_ris_rows=1, n_ris_cols=1, protocols=protocols)
    # adaptive hierarchical training has nothing to search on the RIS side and runs
    adaptive = (ProtocolSpec("hierarchical", hierarchical_variant="adaptive"),)
    results = run_sweep(_tiny_config(n_ris_rows=1, n_ris_cols=1, protocols=adaptive,
                                     trials=3))
    assert results.rows[0].success_rate == 1.0


def test_infeasible_geometry_reported_before_trials():
    # when the config is built: the dimension-split RIS code needs more than 4
    # elements per RIS axis
    with pytest.raises(ValueError, match="^coded training needs more than 4 elements per RIS "
                                         "axis, got 4x4$"):
        ExperimentConfig(n_bs=8, n_ris_rows=4, n_ris_cols=4, snr_grid_db=(0.0,), trials=2,
                         protocols=(ProtocolSpec("coded", "one_bit"),),
                         ideal_beams=True, noiseless=True)


def test_layered_protocols_need_power_of_two_ris_columns():
    hierarchical = (ProtocolSpec("hierarchical"),)
    for protocols in (hierarchical, (ProtocolSpec("coded", "one_bit"),)):
        with pytest.raises(ValueError, match="n_ris_cols=6"):
            _tiny_config(n_ris_rows=8, n_ris_cols=6, protocols=protocols)
    # a row count that is not a power of two is rejected as well, at the boundary
    with pytest.raises(ValueError, match="n_ris_rows=6"):
        _tiny_config(n_ris_rows=6, n_ris_cols=8, protocols=hierarchical)


def test_layered_protocols_need_power_of_two_bs_and_ris_rows():
    # a decoded word past the grid would name no grid point, so these sizes
    # fail when the config is built
    layered = ((ProtocolSpec("hierarchical"),), (ProtocolSpec("coded", "one_bit"),),
               (ProtocolSpec("exhaustive"), ProtocolSpec("coded", "decoupled_two_bit")))
    for protocols in layered:
        with pytest.raises(ValueError, match="n_bs=12 is not a power of two"):
            _tiny_config(n_bs=12, protocols=protocols)
        with pytest.raises(ValueError, match="n_ris_rows=6 is not a power of two"):
            _tiny_config(n_ris_rows=6, protocols=protocols)
    # exhaustive training has no bit words: any size runs and finds every tuple
    results = run_sweep(_tiny_config(n_bs=12, n_ris_rows=6, trials=3,
                                     protocols=(ProtocolSpec("exhaustive"),)))
    assert results.rows[0].success_rate == 1.0


def test_adaptive_hierarchical_needs_power_of_two_arrays():
    # rejected when the config is built, whatever the noise would have decided
    adaptive = (ProtocolSpec("hierarchical", hierarchical_variant="adaptive"),)
    for dims, name in (((12, 8, 8), "n_bs=12"), ((8, 8, 6), "n_ris_cols=6"),
                       ((8, 6, 8), "n_ris_rows=6")):
        with pytest.raises(ValueError, match=f"^{name} is not a power of two: layered "
                                             "training decodes each index from a bit word$"):
            _tiny_config(n_bs=dims[0], n_ris_rows=dims[1], n_ris_cols=dims[2],
                         protocols=adaptive)
    # so is an array with one candidate on each side, which leaves nothing to train
    with pytest.raises(ValueError, match="^adaptive training needs at least two candidates "
                                         "on one side, got n_bs=1 and n_ris=1$"):
        _tiny_config(n_bs=1, n_ris_rows=1, n_ris_cols=1, protocols=adaptive)



def test_adaptive_sweep_designs_its_prefix_beams_once(monkeypatch):
    # the prefix beams are designed once, before the first trial, and no
    # design function runs inside run_adaptive: two sweep points of a block
    # and 5 trials each fill two blocks and end on a block of 10 rows
    events = []

    def recording(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            events.append(name)
            result = fn(*args, **kwargs)
            events.append("/" + name)
            return result
        monkeypatch.setattr(module, name, wrapper)

    for module, name in ((experiments, "design_beams"), (experiments, "run_adaptive"),
                         (codebook, "design_bs_codewords"), (codebook, "relaxed_gs_batch")):
        recording(module, name)
    trials = experiments.trial_block(_tiny_config().geometry) + 5
    cfg = _tiny_config(trials=trials, snr_grid_db=(0.0, 10.0), ideal_beams=False,
                       noiseless=False,
                       protocols=(ProtocolSpec("hierarchical", hierarchical_variant="adaptive"),))
    results = run_sweep(cfg)
    assert [row.trials for row in results.rows] == [trials, trials]
    assert events == (["design_beams", "design_bs_codewords", "/design_bs_codewords",
                       "relaxed_gs_batch", "/relaxed_gs_batch", "/design_beams"]
                      + ["run_adaptive", "/run_adaptive"] * 3)


@pytest.mark.parametrize("ideal", [False, True])
def test_sweep_computes_no_grid_margins(monkeypatch, ideal):
    # a codebook is what training sends: its grid margins are computed only when read
    def refuse(*args):
        raise AssertionError("a sweep computed grid margins")

    monkeypatch.setattr(codebook, "grid_margins", refuse)
    cfg = _tiny_config(trials=2, ideal_beams=ideal, noiseless=False,
                       gs=GsConfig(seed=3, k_iter=5), protocols=(
                           ProtocolSpec("hierarchical"),
                           ProtocolSpec("hierarchical", hierarchical_variant="adaptive"),
                           ProtocolSpec("coded", "one_bit"),
                           ProtocolSpec("coded", "decoupled_two_bit")))
    assert [row.trials for row in run_sweep(cfg).rows] == [2] * 4


def _book_bytes(book):
    return (book.side, book.matrix.tobytes(), book.masks.tobytes(),
            [[t.tobytes() for t in traces] for traces in book.traces])


@pytest.mark.parametrize("ideal", [False, True])
@pytest.mark.parametrize("n_bs, rows, cols", [(16, 8, 8), (32, 8, 16)])
def test_sweep_designs_every_beam_in_one_gs_call(monkeypatch, n_bs, rows, cols, ideal):
    # a sweep with coded and adaptive protocols designs the coded codebooks and
    # the prefix beams in one relaxed_gs_batch call (at 8x16 it holds both axis
    # shapes), and each equals build_codebooks or the adaptive design_beams called alone,
    # byte for byte; ideal beams run no GS at all
    calls, runners = [], []
    batch, build_runners = codebook.relaxed_gs_batch, experiments._build_runners
    monkeypatch.setattr(codebook, "relaxed_gs_batch",
                        lambda *args: calls.append(args) or batch(*args))
    monkeypatch.setattr(experiments, "_build_runners",
                        lambda *args: runners.extend(build_runners(*args)) or runners)
    cfg = _tiny_config(n_bs=n_bs, n_ris_rows=rows, n_ris_cols=cols, trials=2,
                       snr_grid_db=(0.0, 10.0), ideal_beams=ideal, noiseless=False,
                       gs=GsConfig(seed=3, k_iter=10), protocols=(
                           ProtocolSpec("hierarchical", hierarchical_variant="adaptive"),
                           ProtocolSpec("coded", "one_bit"),
                           ProtocolSpec("coded", "decoupled_two_bit")))
    run_sweep(cfg)
    monkeypatch.undo()
    assert len(calls) == (0 if ideal else 1)
    if not ideal:
        shapes = {matrix.shape for matrix, *_ in calls[0][0]}
        assert shapes == {(rows, rows), (cols, cols)}
    geometry, grid = cfg.geometry, make_angle_grid(cfg.geometry)
    codes = protocol_codes(ProtocolSpec("coded"), geometry)
    if ideal:
        alone = tuple(codebook.ideal_codebook(codebook.beam_pattern_matrix(code, n), side)
                      for code, n, side in zip(codes, (geometry.n_bs, geometry.n_ris),
                                               ("bs", "ris")))
    else:
        alone = codebook.build_codebooks(*codes, grid, geometry, cfg.gs)
    beams = codebook.design_beams(geometry, grid, cfg.gs, adaptive=True, ideal=ideal)[1]
    adaptive, *coded = (runner.keywords for runner in runners)
    assert [b.tobytes() for b in adaptive["beams"]] == [b.tobytes() for b in beams]
    for keywords in coded:
        assert list(map(_book_bytes, keywords["books"])) == list(map(_book_bytes, alone))


def test_rate_ceiling_row_never_exceeds_exhaustive():
    cfg = _tiny_config(
        protocols=(ProtocolSpec("exhaustive"), ProtocolSpec("coded", "one_bit")),
        trials=5, noiseless=False, ideal_beams=True, snr_grid_db=(30.0,),
    )
    results = run_sweep(cfg)
    geometry = cfg.geometry
    grid = make_angle_grid(geometry)
    from risbeam.channel import SnrSpec

    for trial, rates in enumerate(results.rate.T):
        ch = sample_full_block(geometry, grid,
                               [derive_rng(cfg.master_seed, "channel", "snr_db", 30.0, trial)])
        best = noiseless_best_tuple(ch, grid, geometry)
        v, w = grid_transmit_pair(ch, grid, geometry, *best)
        ceiling = achievable_rate(ch, v, w, SnrSpec(cfg.eval_snr_linear, noiseless=True))
        assert rates.max() <= ceiling + 1e-12

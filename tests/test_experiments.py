import json

import pytest

from reference import (achievable_rate, grid_transmit_pair, noiseless_best_tuple,
                       sample_full_block, success_rate)
from risbeam.arrays import make_angle_grid
from risbeam import codebook, experiments
from risbeam.codebook import GsConfig
from risbeam.experiments import (
    CSV_COLUMNS,
    ExperimentConfig,
    ResultSet,
    config_from_dict,
    config_to_dict,
    desk_pilot_sweep,
    export_results,
    export_trial_log,
    import_results,
    run_sweep,
)
from risbeam.seeding import derive_rng
from risbeam.training import ProtocolSpec


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
    results = run_sweep(_tiny_config(trials=20, protocols=(ProtocolSpec("exhaustive"),)),
                        log_trials=True)
    (row,) = results.rows
    assert len({rec.rate for rec in results.trial_log}) == 1
    assert row.success_rate == 1.0 and row.rate_ci95 == 0.0


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
    results = run_sweep(cfg, log_trials=True)
    # the rate ceiling is a per-channel quantity; verify per trial against the
    # noiseless exhaustive sweep on the same derived channel
    geometry = cfg.geometry
    grid = make_angle_grid(geometry)
    from risbeam.channel import SnrSpec

    for rec in results.trial_log:
        ch_rng = derive_rng(cfg.master_seed, "channel", "snr_db", 0.0, rec.trial)
        ch = sample_full_block(geometry, grid, [ch_rng])
        best = noiseless_best_tuple(ch, grid, geometry)
        v, w = grid_transmit_pair(ch, grid, geometry, *best)
        ceiling = achievable_rate(ch, v, w, SnrSpec(cfg.eval_snr_linear, noiseless=True))
        assert rec.rate <= ceiling + 1e-12


def test_aggregate_matches_trial_log():
    cfg = _tiny_config(trials=8, noiseless=False, snr_grid_db=(-5.0,))
    results = run_sweep(cfg, log_trials=True)
    row = results.rows[0]
    hits = sum(rec.success for rec in results.trial_log)
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
    results = run_sweep(_tiny_config(trials=3), log_trials=True)
    out = tmp_path / "log.csv"
    export_trial_log(results, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "protocol,sweep_value,trial,success,rate"
    assert len(lines) == 1 + 3


def test_config_json_roundtrip():
    every_kind = (ProtocolSpec("exhaustive", pilot_budget=8), ProtocolSpec("hierarchical"),
                  ProtocolSpec("hierarchical", hierarchical_variant="adaptive"),
                  ProtocolSpec("coded", "none"), ProtocolSpec("coded", "decoupled_two_bit"))
    for cfg in (_tiny_config(trials=9), _tiny_config(protocols=every_kind),
                desk_pilot_sweep()):
        data = json.loads(json.dumps(config_to_dict(cfg)))
        assert config_from_dict(data) == cfg


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
        with pytest.raises(ValueError, match="at least two BS candidates"):
            _tiny_config(n_bs=1, protocols=protocols)
    # adaptive hierarchical training has nothing to search on the BS side and runs
    adaptive = (ProtocolSpec("hierarchical", hierarchical_variant="adaptive"),)
    results = run_sweep(_tiny_config(n_bs=1, protocols=adaptive, trials=3))
    assert results.rows[0].success_rate == 1.0


def test_single_element_ris_rejected_for_layered_protocols():
    for protocols in ((ProtocolSpec("coded", "one_bit"),), (ProtocolSpec("hierarchical"),)):
        with pytest.raises(ValueError, match="at least two RIS candidates"):
            _tiny_config(n_ris_rows=1, n_ris_cols=1, protocols=protocols)
    # adaptive hierarchical training has nothing to search on the RIS side and runs
    adaptive = (ProtocolSpec("hierarchical", hierarchical_variant="adaptive"),)
    results = run_sweep(_tiny_config(n_ris_rows=1, n_ris_cols=1, protocols=adaptive,
                                     trials=3))
    assert results.rows[0].success_rate == 1.0


def test_infeasible_geometry_reported_before_trials():
    cfg = ExperimentConfig(
        n_bs=8, n_ris_rows=4, n_ris_cols=4,
        snr_grid_db=(0.0,), trials=2,
        protocols=(ProtocolSpec("coded", "one_bit"),),
        ideal_beams=True, noiseless=True,
    )
    with pytest.raises(ValueError):
        run_sweep(cfg)


def test_layered_protocols_need_power_of_two_ris_columns():
    hierarchical = (ProtocolSpec("hierarchical"),)
    for protocols in (hierarchical, (ProtocolSpec("coded", "one_bit"),)):
        with pytest.raises(ValueError, match="n_ris_cols=6"):
            _tiny_config(n_ris_rows=8, n_ris_cols=6, protocols=protocols)
    # a row count that is not a power of two is rejected as well, at the boundary
    with pytest.raises(ValueError, match="n_ris_rows=6"):
        _tiny_config(n_ris_rows=6, n_ris_cols=8, protocols=hierarchical)


def test_layered_protocols_need_power_of_two_bs_and_ris_rows():
    # a decoded word past the grid would land on the last grid point and
    # could count a false hit, so these sizes fail when the config is built
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
    # rejected before the first trial, whatever the noise would have decided
    adaptive = (ProtocolSpec("hierarchical", hierarchical_variant="adaptive"),)
    for dims in ((12, 8, 8), (8, 8, 6), (8, 6, 8)):
        cfg = _tiny_config(n_bs=dims[0], n_ris_rows=dims[1], n_ris_cols=dims[2],
                           protocols=adaptive)
        with pytest.raises(ValueError, match="power of two"):
            run_sweep(cfg)


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

    for module, name in ((experiments, "prefix_beams"), (experiments, "run_adaptive"),
                         (codebook, "design_bs_codewords"), (codebook, "relaxed_gs_batch")):
        recording(module, name)
    trials = experiments.trial_block(_tiny_config().geometry) + 5
    cfg = _tiny_config(trials=trials, snr_grid_db=(0.0, 10.0), ideal_beams=False,
                       noiseless=False,
                       protocols=(ProtocolSpec("hierarchical", hierarchical_variant="adaptive"),))
    results = run_sweep(cfg)
    assert [row.trials for row in results.rows] == [trials, trials]
    assert events == (["prefix_beams", "design_bs_codewords", "/design_bs_codewords",
                       "relaxed_gs_batch", "/relaxed_gs_batch", "/prefix_beams"]
                      + ["run_adaptive", "/run_adaptive"] * 3)


def test_rate_ceiling_row_never_exceeds_exhaustive():
    cfg = _tiny_config(
        protocols=(ProtocolSpec("exhaustive"), ProtocolSpec("coded", "one_bit")),
        trials=5, noiseless=False, ideal_beams=True, snr_grid_db=(30.0,),
    )
    results = run_sweep(cfg, log_trials=True)
    per_trial = {}
    for rec in results.trial_log:
        per_trial.setdefault(rec.trial, {})[rec.protocol] = rec.rate
    geometry = cfg.geometry
    grid = make_angle_grid(geometry)
    from risbeam.channel import SnrSpec

    for trial, rates in per_trial.items():
        ch = sample_full_block(geometry, grid,
                               [derive_rng(cfg.master_seed, "channel", "snr_db", 30.0, trial)])
        best = noiseless_best_tuple(ch, grid, geometry)
        v, w = grid_transmit_pair(ch, grid, geometry, *best)
        ceiling = achievable_rate(ch, v, w, SnrSpec(cfg.eval_snr_linear, noiseless=True))
        for rate in rates.values():
            assert rate <= ceiling + 1e-12

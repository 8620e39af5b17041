import json

import numpy as np
import pytest

from risbeam.cli import main


def test_overhead_full_scale(capsys):
    assert main(["overhead", "--nt", "64", "--ris", "16x16"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["exhaustive: 16384", "hierarchical: 32", "coded: 56"]


def test_overhead_desk_scale(capsys):
    assert main(["overhead", "--nt", "16", "--ris", "8x8"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["exhaustive: 1024", "hierarchical: 24", "coded: 48"]


def test_overhead_rejects_small_ris(capsys):
    assert main(["overhead", "--nt", "16", "--ris", "4x4"]) != 0
    assert "error:" in capsys.readouterr().err


def test_overhead_rejects_single_antenna_bs(capsys):
    assert main(["overhead", "--nt", "1", "--ris", "8x8"]) == 2
    err = capsys.readouterr().err
    assert "layered training needs at least two candidates on each side, got n_bs=1\n" in err
    assert "k must be positive" not in err


@pytest.mark.parametrize("nt,ris,message", [
    ("-1", "8x8", "--nt needs at least one antenna, got -1"),
    ("0", "8x8", "--nt needs at least one antenna, got 0"),
    ("16", "0x8", "--ris needs at least one row and one column, got '0x8'"),
    ("16", "8x-2", "--ris needs at least one row and one column, got '8x-2'"),
    ("1", "8x8", "layered training needs at least two candidates on each side, got n_bs=1"),
    ("12", "8x6", "n_bs=12 is not a power of two: layered training decodes each index "
                  "from a bit word"),
    ("16", "8x6", "n_ris_cols=6 is not a power of two: layered training decodes each "
                  "index from a bit word"),
])
def test_overhead_fails_before_it_prints(capsys, nt, ris, message):
    assert main(["overhead", "--nt", nt, "--ris", ris]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("command", [["overhead", "--ris", "8x8"], ["validate-code"],
                                     ["design-codebook", "--ris", "8x8"]])
def test_every_command_names_an_nt_below_one(tmp_path, capsys, command):
    assert main([*command, "--nt", "0", *(["--out", str(tmp_path / "b.json")]
                                          if command[0] == "design-codebook" else [])]) == 2
    assert capsys.readouterr().err == "error: --nt needs at least one antenna, got 0\n"


def test_validate_code_8x8(capsys):
    assert main(["validate-code", "--ris", "8x8"]) == 0
    out = capsys.readouterr().out
    assert "k=6 n=12 split=(k1=3, m1=3, k2=3, m2=3)" in out
    assert "d_min: 3" in out
    assert "single-bit errors corrected (one_bit): 768/768" in out
    assert "decoupled_two_bit): 2304/2304" in out
    # the dimension-split parity block appears in the generator print
    assert "1 0 0 0 0 0 1 1 0 0 0 0" in out


def test_validate_code_requires_an_array(capsys):
    assert main(["validate-code"]) != 0
    assert "error:" in capsys.readouterr().err


def test_validate_code_rejects_single_antenna_bs(capsys):
    assert main(["validate-code", "--nt", "1", "--ris", "8x8"]) == 2
    captured = capsys.readouterr()
    assert ("layered training needs at least two candidates on each side, got n_bs=1"
            in captured.err)
    assert "k must be positive" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("flags,name", [
    (["--ris", "8x6"], "n_ris_cols=6"),  # the 8x8 code would name 64 indices on 48 elements
    (["--ris", "6x8"], "n_ris_rows=6"),
    (["--nt", "12"], "n_bs=12"),  # the 16-antenna code would name 16 indices on 12
    (["--nt", "12", "--ris", "8x8"], "n_bs=12"),
])
def test_validate_code_rejects_sizes_that_are_not_powers_of_two(capsys, flags, name):
    assert main(["validate-code", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {name} is not a power of two: layered training "
                            f"decodes each index from a bit word\n")


def test_validate_code_bs_only(capsys):
    assert main(["validate-code", "--nt", "16"]) == 0
    out = capsys.readouterr().out
    assert "k=4 n=7" in out
    assert "single-bit errors corrected (one_bit): 112/112" in out


def test_validate_code_16x16(capsys):
    assert main(["validate-code", "--nt", "64", "--ris", "16x16"]) == 0
    out = capsys.readouterr().out
    assert "k=8 n=14 split=(k1=4, m1=3, k2=4, m2=3)" in out
    assert "single-bit errors corrected (one_bit): 3584/3584" in out
    assert "cross-dimension double errors corrected (decoupled_two_bit): 12544/12544" in out


def test_design_codebook_writes_portable_json(tmp_path, capsys):
    out = tmp_path / "book.json"
    code = main([
        "design-codebook", "--nt", "8", "--ris", "8x8",
        "--iters", "30", "--seed", "3", "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["geometry"] == {"n_bs": 8, "n_ris_rows": 8, "n_ris_cols": 8}
    ris_layers = payload["ris"]["layers"]
    assert len(ris_layers) == 12
    entry = ris_layers[0]["one"]
    codeword = np.array([re + 1j * im for re, im in entry["codeword"]])
    assert np.abs(np.abs(codeword) - 1 / 8).max() < 1e-12
    assert entry["min_in"] > entry["max_out"]
    assert entry["final_trace"] is not None
    bs_entry = payload["bs"]["layers"][0]["one"]
    assert bs_entry["final_trace"] is None  # closed-form design, no iteration


@pytest.mark.parametrize("nt,ris,name", [
    ("12", "8x8", "n_bs=12"),  # its masks would not halve the BS grid
    ("16", "8x6", "n_ris_cols=6"),  # its masks would not factor across the RIS axes
    ("16", "6x8", "n_ris_rows=6"),
])
def test_design_codebook_rejects_sizes_that_are_not_powers_of_two(tmp_path, capsys, nt, ris,
                                                                   name):
    out = tmp_path / "book.json"
    assert main(["design-codebook", "--nt", nt, "--ris", ris, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {name} is not a power of two")
    assert not out.exists()


def _expected_report(payload: dict) -> list[str]:
    """The lines design-codebook prints for a JSON payload it wrote."""
    lines = []
    for side in ("bs", "ris"):
        layers = payload[side]["layers"]
        lines.append(f"== {side} codebook, {len(layers)} layers ==")
        for layer in layers:
            for polarity in ("one", "zero"):
                entry = layer[polarity]
                final = entry["final_trace"]
                final = "closed form" if final is None else f"{final:.2e}"
                line = (f"  layer {layer['index']:2d} {polarity:4s}  min_in {entry['min_in']:.4f}"
                        f"  max_out {entry['max_out']:.4f}  final_trace {final}")
                flagged = entry["min_in"] <= entry["max_out"]
                lines.append(line + ("  FLAG min_in <= max_out" if flagged else ""))
    return lines


@pytest.mark.parametrize("flags,flagged", [
    (["--iters", "1", "--direct-2d"], 2),  # one GS round leaves two RIS codewords overlapping
    (["--iters", "30", "--seed", "3"], 0),
])
def test_design_codebook_prints_the_json_margins(tmp_path, capsys, flags, flagged):
    out = tmp_path / "book.json"
    assert main(["design-codebook", "--nt", "8", "--ris", "8x8", *flags, "--out", str(out)]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed == _expected_report(json.loads(out.read_text())) + [f"wrote {out}"]
    assert sum(line.endswith("FLAG min_in <= max_out") for line in printed) == flagged


def test_sweep_snr_with_config(tmp_path, capsys):
    cfg = {
        "n_bs": 8, "n_ris_rows": 8, "n_ris_cols": 8,
        "snr_grid_db": [0.0], "trials": 3,
        "protocols": [{"kind": "coded", "decode_mode": "one_bit"}],
        "gs": {"delta": 0.3, "k_iter": 10, "seed": 1},
        "master_seed": 5, "ideal_beams": True, "noiseless": True,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "res.csv"
    assert main(["sweep-snr", "--config", str(cfg_path), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("protocol,sweep_variable")
    assert len(lines) == 2
    assert "coded_one_bit" in lines[1]


def test_sweep_config_with_unknown_keys_is_a_clean_error(tmp_path, capsys):
    # carrier_ghz was a config field that nothing read; it is an unknown key now
    cfg = {"n_bs": 8, "n_ris_rows": 8, "n_ris_cols": 8, "trials": 2,
           "protocols": [{"kind": "coded"}], "gs": {"k_iter": 10}}
    cases = [
        ({"carrier_ghz": 28.0}, "unknown config key(s): carrier_ghz"),
        ({"trails": 3, "snr": [0.0]}, "unknown config key(s): snr, trails"),
        ({"protocols": [{"kind": "coded", "mode": "one_bit"}]},
         "unknown protocol key(s): mode"),
        ({"gs": {"iters": 10}}, "unknown gs key(s): iters"),
        ({"spacing_over_wavelength": 0.4}, "unknown config key(s): spacing_over_wavelength"),
        ({"protocols": ["coded"]}, "a protocol must be a JSON object, got 'coded'"),
    ]
    cfg_path, out = tmp_path / "cfg.json", tmp_path / "res.csv"
    for change, message in cases:
        cfg_path.write_text(json.dumps({**cfg, **change}))
        assert main(["sweep-snr", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()
    cfg_path.write_text("[1, 2]")
    assert main(["sweep-snr", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: a config must be a JSON object, got [1, 2]\n"


@pytest.mark.parametrize("change,message", [
    ({"snr_grid_db": [4000]}, "an SNR of 4000 dB has no positive and finite linear value"),
    ({"snr_grid_db": [-4000]}, "an SNR of -4000 dB has no positive and finite linear value"),
    ({"snr_grid_db": "10"}, "snr_grid_db must be a JSON array, got '10'"),
    ({"protocols": [{"decode_mode": "one_bit"}]}, "missing protocol key(s): kind"),
    ({"trials": 2.5}, "trials must be a whole number, got 2.5"),
    ({"trials": True}, "trials must be a whole number, got True"),
    ({"master_seed": 1.5}, "master_seed must be a whole number, got 1.5"),
    ({"gs": {"k_iter": 2.5}}, "k_iter must be a whole number, got 2.5"),
    ({"gs": {"delta": "0.3"}}, "delta must be a real number, got '0.3'"),
    ({"eval_snr_linear": "10"}, "eval_snr_linear must be a real number, got '10'"),
    ({"noiseless": "false"}, "noiseless must be true or false, got 'false'"),
    ({"n_bs": 8.0}, None),  # a whole-number float runs as its int
])
def test_sweep_config_values_are_checked_at_the_boundary(tmp_path, capsys, change, message):
    cfg = {"n_bs": 8, "n_ris_rows": 8, "n_ris_cols": 8, "snr_grid_db": [0.0], "trials": 2,
           "protocols": [{"kind": "coded"}], "gs": {"k_iter": 10}, "ideal_beams": True}
    cfg_path, out = tmp_path / "cfg.json", tmp_path / "res.csv"
    argv = ["sweep-snr", "--config", str(cfg_path), "--out", str(out)]
    cfg_path.write_text(json.dumps({**cfg, **change}))
    if message is not None:
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()
        return
    assert main(argv) == 0
    as_float = out.read_bytes()
    cfg_path.write_text(json.dumps(cfg))
    assert main(argv) == 0
    assert out.read_bytes() == as_float


@pytest.mark.parametrize("command,change,message", [
    ("sweep-snr", {"protocols": [{"kind": "exhaustive", "decode_mode": "decoupled_two_bit"}]},
     "decode_mode applies to coded training only, got 'decoupled_two_bit' for exhaustive "
     "training"),
    ("sweep-snr", {"protocols": [{"kind": "coded", "hierarchical_variant": "adaptive"}]},
     "hierarchical_variant applies to hierarchical training only, got 'adaptive' for coded "
     "training"),
    ("sweep-pilots", {"pilot_grid": [20], "protocols": [{"kind": "coded", "pilot_budget": 8}]},
     "a pilots sweep takes every budget from pilot_grid, got pilot_budget=8 for coded_one_bit"),
])
def test_sweep_config_fields_the_sweep_ignores_are_rejected(tmp_path, capsys, command, change,
                                                            message):
    # each of these fields used to be accepted and then ignored by the sweep
    cfg = {"n_bs": 8, "n_ris_rows": 8, "n_ris_cols": 8, "snr_grid_db": [0.0], "trials": 2,
           "gs": {"k_iter": 10}, "ideal_beams": True, **change}
    cfg_path, out = tmp_path / "cfg.json", tmp_path / "res.csv"
    cfg_path.write_text(json.dumps(cfg))
    assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command,file_sweep", [("sweep-snr", "pilots"),
                                                ("sweep-pilots", "snr")])
def test_sweep_config_naming_the_other_sweep_is_rejected(tmp_path, capsys, command,
                                                         file_sweep):
    # the subcommand used to overwrite the file's sweep_over; a file that omits
    # the key still takes the subcommand's sweep
    cfg = {"n_bs": 8, "n_ris_rows": 8, "n_ris_cols": 8, "snr_grid_db": [0.0],
           "pilot_grid": [8], "trials": 2, "gs": {"k_iter": 10}, "ideal_beams": True}
    cfg_path, out = tmp_path / "cfg.json", tmp_path / "res.csv"
    cfg_path.write_text(json.dumps({**cfg, "sweep_over": file_sweep}))
    assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: {cfg_path} sets sweep_over={file_sweep!r}, but this command sweeps over "
        f"{command.removeprefix('sweep-')!r}\n")
    assert not out.exists()
    cfg_path.write_text(json.dumps(cfg))
    assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 0
    assert out.exists()


def test_pilots_sweep_config_with_two_snrs_is_rejected(tmp_path, capsys):
    # the sweep used to run at the first SNR and drop the second
    cfg = {"n_bs": 8, "n_ris_rows": 8, "n_ris_cols": 8, "snr_grid_db": [0.0, 10.0],
           "pilot_grid": [8], "trials": 2, "gs": {"k_iter": 10}, "ideal_beams": True}
    cfg_path, out = tmp_path / "cfg.json", tmp_path / "res.csv"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["sweep-pilots", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: a pilots sweep runs at one SNR, got snr_grid_db=[0.0, 10.0]\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["sweep-snr", "sweep-pilots"])
@pytest.mark.parametrize("scale", ["desk", "full"])
def test_sweep_config_with_a_scale_is_rejected(tmp_path, capsys, command, scale):
    # --scale used to be ignored next to --config: an 8x8 file ran as 8x8 under
    # --scale full; the same file without --scale still runs
    cfg = {"n_bs": 8, "n_ris_rows": 8, "n_ris_cols": 8, "snr_grid_db": [0.0],
           "pilot_grid": [8], "trials": 2, "gs": {"k_iter": 10}, "ideal_beams": True}
    cfg_path, out = tmp_path / "cfg.json", tmp_path / "res.csv"
    cfg_path.write_text(json.dumps(cfg))
    argv = [command, "--config", str(cfg_path), "--out", str(out)]
    assert main([*argv, "--scale", scale]) == 2
    assert capsys.readouterr().err == (
        "error: --scale picks a preset and --config a file: give one of them\n")
    assert not out.exists()
    assert main(argv) == 0 and out.exists()


def test_sweep_snr_missing_config(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert main(["sweep-snr", "--config", str(missing)]) != 0
    err = capsys.readouterr().err
    assert "missing.json" in err


def test_sweep_pilots_json_output(tmp_path):
    cfg = {
        "n_bs": 8, "n_ris_rows": 8, "n_ris_cols": 8,
        "snr_grid_db": [10.0], "pilot_grid": [8, 48], "trials": 2,
        "protocols": [{"kind": "coded", "decode_mode": "none"}],
        "gs": {"delta": 0.3, "k_iter": 10, "seed": 1},
        "master_seed": 5, "ideal_beams": True, "noiseless": True,
        "sweep_over": "pilots",
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "res.json"
    assert main(["sweep-pilots", "--config", str(cfg_path),
                 "--out", str(out), "--format", "json"]) == 0
    payload = json.loads(out.read_text())
    assert [row["pilots"] for row in payload["rows"]] == [8, 48]


def test_log_trials_flag(tmp_path):
    cfg = {
        "n_bs": 8, "n_ris_rows": 8, "n_ris_cols": 8,
        "snr_grid_db": [0.0], "trials": 2,
        "protocols": [{"kind": "hierarchical"}],
        "master_seed": 1, "ideal_beams": True, "noiseless": True,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "res.csv"
    log = tmp_path / "log.csv"
    assert main(["sweep-snr", "--config", str(cfg_path), "--out", str(out),
                 "--log-trials", str(log)]) == 0
    assert len(log.read_text().splitlines()) == 3


def test_log_trials_naming_the_results_file_is_rejected(tmp_path, capsys, monkeypatch):
    # the trial log used to overwrite the results, and the command printed "wrote"
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("risbeam.cli.run_sweep", lambda *a, **k: pytest.fail("sweep ran"))
    for argv, out in ((["--out", "same.csv", "--log-trials", "same.csv"], "same.csv"),
                      (["--log-trials", "./results.csv"], "results.csv")):
        assert main(["sweep-snr", "--trials", "2", *argv]) == 2
        assert capsys.readouterr().err == (
            f"error: --log-trials names the results file {out}: give it another path\n")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("flag", ["--out", "--log-trials"])
@pytest.mark.parametrize("target", ["directory", "missing/parent.csv", "file.csv/child.csv"])
def test_output_paths_are_checked_before_the_sweep(tmp_path, capsys, monkeypatch, flag,
                                                   target):
    # a path that is a directory, or that lies in no directory, exits 2 before the sweep
    # runs, and no file is written
    monkeypatch.chdir(tmp_path)
    (tmp_path / "directory").mkdir()
    (tmp_path / "file.csv").write_text("kept\n")
    monkeypatch.setattr("risbeam.cli.run_sweep", lambda *a, **k: pytest.fail("sweep ran"))
    assert main(["sweep-snr", "--trials", "1", flag, target]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {target}: ") and err.count("\n") == 1
    assert sorted(path.name for path in tmp_path.iterdir()) == ["directory", "file.csv"]
    assert not any((tmp_path / "directory").iterdir())


@pytest.mark.parametrize("exc", [MemoryError("Unable to allocate 8.00 TiB for an array"),
                                 MemoryError()])
def test_memory_error_is_one_error_line(tmp_path, capsys, monkeypatch, exc):
    # a config too large for the machine, such as "n_bs": 1099511627776 with exhaustive
    # training, exits 2 with one error line, never 1 with a traceback; the sweep is
    # stubbed, so nothing is allocated
    def too_large(cfg):
        assert cfg.n_bs == 2**40
        raise exc

    monkeypatch.setattr("risbeam.cli.run_sweep", too_large)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"n_bs": 2**40, "protocols": [{"kind": "exhaustive"}]}))
    assert main(["sweep-snr", "--config", str(cfg_path), "--out",
                 str(tmp_path / "r.csv")]) == 2
    assert capsys.readouterr().err == f"error: {str(exc) or 'MemoryError'}\n"
    assert [path.name for path in tmp_path.iterdir()] == ["cfg.json"]


def test_unknown_subcommand_exits_nonzero():
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code != 0


def test_unknown_flag_exits_nonzero():
    with pytest.raises(SystemExit) as excinfo:
        main(["overhead", "--nt", "8", "--ris", "8x8", "--frob"])
    assert excinfo.value.code != 0

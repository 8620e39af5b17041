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
    assert "coded training needs at least two BS candidates, got n_bs=1" in err
    assert "k must be positive" not in err


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
    assert "a single-antenna BS has no code to validate" in captured.err
    assert "k must be positive" not in captured.err
    assert captured.out == ""


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


def test_unknown_subcommand_exits_nonzero():
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code != 0


def test_unknown_flag_exits_nonzero():
    with pytest.raises(SystemExit) as excinfo:
        main(["overhead", "--nt", "8", "--ris", "8x8", "--frob"])
    assert excinfo.value.code != 0

import json

import pytest

from fchlab.cli import main


def run_cli(args):
    return main(args)


def test_profile_bilayer(tmp_path, capsys):
    out = tmp_path / "bl.csv"
    code = run_cli(["profile", "--kind", "bilayer", "--r", "1.75", "--u-plus", "1", "--tau", "0.25", "--out", str(out)])
    assert code == 0
    text = out.read_text()
    header = json.loads(text.splitlines()[0])
    assert header["a_star"] == pytest.approx(header["b_star"], rel=1e-8)
    assert (tmp_path / "bl.csv.manifest.json").exists()


def test_profile_micelle(tmp_path):
    out = tmp_path / "mc.csv"
    code = run_cli(["profile", "--kind", "micelle", "--n", "2", "--out", str(out)])
    assert code == 0
    header = json.loads(out.read_text().splitlines()[0])
    assert header["virial_defect"] <= 1e-6


def test_profile_missing_kind_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        run_cli(["profile"])
    assert err.value.code == 2


def test_converge_bilayer_defaults(tmp_path, capsys):
    out = tmp_path / "conv.csv"
    code = run_cli(["converge", "--kind", "bilayer", "--out", str(out)])
    assert code == 0
    rows = out.read_text().splitlines()
    header = rows[0].split(",")
    i_err = header.index("abs_error")
    first = float(rows[1].split(",")[i_err])
    last = float(rows[-1].split(",")[i_err])
    assert last < first


def test_converge_micelle_defaults_exits_0(tmp_path):
    # converges to the limit at the discretization floor; must count as success
    out = tmp_path / "mconv.csv"
    assert run_cli(["converge", "--kind", "micelle", "--alpha", "0.5", "--out", str(out)]) == 0
    rows = out.read_text().splitlines()
    header = rows[0].split(",")
    i_e, i_p = header.index("energy"), header.index("predicted_limit")
    last = rows[-1].split(",")
    assert abs(float(last[i_e]) - float(last[i_p])) < 0.02 * abs(float(last[i_p]))


def test_converge_micelle_above_packing_exits_3(tmp_path, capsys):
    out = tmp_path / "conv.csv"
    code = run_cli(["converge", "--kind", "micelle", "--alpha", "500", "--out", str(out)])
    assert code == 3
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "PlacementError"


def test_converge_placement_error_reports_counts(tmp_path, capsys):
    # --alpha 20 at eps 0.05 asks for 64 micelles on the unit circle; the
    # message counts centers rather than quoting a density in other units
    out = tmp_path / "conv.csv"
    code = run_cli(["converge", "--kind", "micelle", "--alpha", "20", "--eps-list", "0.05", "--out", str(out)])
    assert code == 3
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "PlacementError"
    assert err["message"] == (
        "cannot place 64 centers with separation 0.824; "
        "equal arc-length spacing fits at most 7 at eps = 0.05"
    )


def test_converge_single_eps(tmp_path, capsys):
    out = tmp_path / "conv.csv"
    code = run_cli(["converge", "--kind", "bilayer", "--eps-list", "0.1", "--out", str(out)])
    assert code == 0
    assert len(out.read_text().splitlines()) == 2
    assert "rate=" in capsys.readouterr().out


def test_converge_byte_identical(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert run_cli(["converge", "--kind", "bilayer", "--eps-list", "0.1,0.05", "--out", str(out1)]) == 0
    assert run_cli(["converge", "--kind", "bilayer", "--eps-list", "0.1,0.05", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_phase_single_cell(tmp_path, capsys):
    out = tmp_path / "phase.csv"
    code = run_cli(
        ["phase", "--shape", "circle", "--rho", "1.0",
         "--eta1-range=1:1:1", "--eta2-range=-1:-1:1", "--out", str(out)]
    )
    assert code == 0
    rows = out.read_text().splitlines()
    assert len(rows) == 2
    cells = rows[1].split(",")
    assert cells[-2] == "micelle"
    assert float(cells[2]) > 0.0 and float(cells[3]) < 0.0


def test_phase_grid_contains_regimes(tmp_path, capsys):
    out = tmp_path / "phase.csv"
    code = run_cli(
        ["phase", "--eta1-range=0.05:2:14", "--eta2-range=-2:6:41", "--out", str(out)]
    )
    assert code == 0
    signs = set()
    for row in out.read_text().splitlines()[1:]:
        cells = row.split(",")
        if cells[-1] == "1":
            signs.add((cells[4], cells[5]))
    assert {("+", "-"), ("-", "+"), ("-", "-"), ("+", "+")} <= signs


def test_phase_invalid_eta1_cells_not_fatal(tmp_path):
    out = tmp_path / "phase.csv"
    code = run_cli(["phase", "--eta1-range=-1:1:3", "--eta2-range=0:1:2", "--out", str(out)])
    assert code == 0
    assert "invalid" in out.read_text()


def test_phase_empty_grid_exits_2(tmp_path, capsys):
    code = run_cli(["phase", "--eta1-range=0.1:2:0", "--out", str(tmp_path / "p.csv")])
    assert code == 2


def test_dry_run_writes_nothing(tmp_path, capsys):
    out = tmp_path / "conv.csv"
    code = run_cli(["converge", "--kind", "bilayer", "--out", str(out), "--dry-run"])
    assert code == 0
    assert not out.exists()
    resolved = json.loads(capsys.readouterr().out)
    assert resolved["kind"] == "bilayer"
    assert resolved["geometry"] == {"shape": "circle", "rho": 1.0}


def test_config_file_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "bilayer", "eta1": 2.0, "well": {"tau": 0.1}}))
    code = run_cli(["converge", "--config", str(cfg), "--eta1", "3.0", "--dry-run"])
    assert code == 0
    resolved = json.loads(capsys.readouterr().out)
    assert resolved["eta1"] == 3.0  # flag wins
    assert resolved["well"]["tau"] == 0.1  # config merged


def test_infeasible_well_exits_3(tmp_path, capsys):
    code = run_cli(["converge", "--kind", "bilayer", "--tau", "0.7", "--c5", "2.0",
                    "--eps-list", "0.1", "--out", str(tmp_path / "x.csv")])
    assert code == 3


def _config(tmp_path, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    return str(cfg)


# malformed flags and config files: usage errors, each found before any solve
BAD_INPUTS = {
    "missing-config": lambda tmp: ["converge", "--config", str(tmp / "absent.json")],
    "malformed-json": lambda tmp: ["converge", "--config", _config(tmp, '{"kind": ')],
    "list-config": lambda tmp: ["converge", "--config", _config(tmp, '["kind", "bilayer"]')],
    "short-range": lambda tmp: ["phase", "--eta1-range", "1:2"],
    "bad-eps-list": lambda tmp: ["converge", "--eps-list", "0.1,abc"],
    "null-alpha": lambda tmp: [
        "converge", "--config", _config(tmp, '{"kind": "micelle", "alpha": null, "eps_list": [0.1]}')
    ],
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_2_with_json_error(tmp_path, capsys, case):
    code = run_cli(BAD_INPUTS[case](tmp_path) + ["--out", str(tmp_path / "x.csv")])
    assert code == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    payload = json.loads(err)
    assert set(payload) == {"error", "message"}
    assert not (tmp_path / "x.csv").exists()


def test_unknown_config_keys_are_named(tmp_path, capsys):
    args = ["converge", "--dry-run", "--config"]
    assert run_cli(args + [_config(tmp_path, '{"kind": "bilayer", "eta_1": 2.0}')]) == 2
    assert json.loads(capsys.readouterr().err)["message"] == "unknown config key 'eta_1'"
    assert run_cli(args + [_config(tmp_path, '{"kind": "bilayer", "well": {"tua": 0.1}}')]) == 2
    assert json.loads(capsys.readouterr().err)["message"] == "unknown well key 'tua'"
    # the accepted rate window is a constant, not a key
    assert run_cli(args + [_config(tmp_path, '{"rate_window": [0.7, 2.5]}')]) == 2
    assert json.loads(capsys.readouterr().err)["message"] == "unknown config key 'rate_window'"


import contextlib
import io
import json
import math
import re
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fchlab import cli
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


def test_converge_oversized_grid_exits_2_with_its_bytes(tmp_path, capsys):
    out = tmp_path / "conv.csv"
    args = ["converge", "--kind", "micelle", "--shape", "torus", "--torus-R", "3", "--torus-r", "1"]
    code = run_cli(args + ["--alpha", "0.5", "--eps-list", "0.0499", "--out", str(out)])
    message = _refused(capsys, code)
    assert message.startswith("torus grid ") and " bytes" in message
    assert not out.exists()


def test_refused_allocation_exits_2_with_json_error(tmp_path, capsys, monkeypatch):
    # a field the OS will not allocate is a request too large for this machine,
    # as the size cap's refusal is; it once exited 1 with a traceback
    def refuse(family):
        np.empty(2**60, dtype=np.uint8)  # 1 EiB: numpy's own MemoryError subclass, nothing allocated

    monkeypatch.setattr(cli, "run_convergence", refuse)
    out = tmp_path / "conv.csv"
    code = run_cli(["converge", "--kind", "micelle", "--eps-list", "0.05", "--alpha", "0.1", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    payload = json.loads(err)
    assert payload["error"] == "MemoryError"
    assert "Unable to allocate" in payload["message"]
    assert not out.exists() and not Path(str(out) + ".manifest.json").exists()


@pytest.mark.parametrize(
    "case, shape",
    [
        ("oversized-sphere-micelle-grid", "sphere"),
        ("oversized-one-micelle-grid", "circle"),
        ("subnormal-micelle-width", "circle"),
    ],
)
def test_dry_run_sizes_the_grid_of_every_width(tmp_path, capsys, case, shape):
    # the dry run once exited 0 here, since only the run shot R0 and sized the grids;
    # the dry-run parity test shows the run refuses it alike
    code = run_cli(BAD_INPUTS[case](tmp_path) + ["--dry-run", "--out", str(tmp_path / "x.csv")])
    assert re.fullmatch(rf"{shape} grid [0-9x]+ needs \d+ bytes a field, above the \d+ bytes allowed", _refused(capsys, code))


# runs whose Jacobian is positive on every grid, eps*ell*kappa_max < 1, while
# eps*ell*kappa0 >= 1 (kappa0 also bounds d kappa/ds); each once exited 3
ADMISSIBLE_ELLIPSE_RUNS = {
    "micelle-alpha-1.85": ["converge", "--kind", "micelle", "--shape", "ellipse", "--a", "2", "--b", "1", "--alpha", "1.85"],
    "bilayer-from-0.05": [
        "converge", "--kind", "bilayer", "--shape", "ellipse", "--a", "2", "--b", "1", "--eps-list", "0.05,0.025,0.0125",
    ],
    "bilayer-thin-dry-run": [
        "converge", "--kind", "bilayer", "--shape", "ellipse", "--a", "3", "--b", "0.5",
        "--eps-list", "0.008,0.004", "--dry-run",
    ],
}


@pytest.mark.parametrize("case", sorted(ADMISSIBLE_ELLIPSE_RUNS))
def test_ellipse_below_the_curvature_bound_runs(tmp_path, capsys, case):
    assert run_cli(ADMISSIBLE_ELLIPSE_RUNS[case] + ["--out", str(tmp_path / "conv.csv")]) == 0
    assert capsys.readouterr().err == ""


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


def test_well_without_bracket_root_exits_3_with_its_reason(tmp_path, capsys):
    code = run_cli(["profile", "--kind", "bilayer", "--u-plus", "0.25", "--out", str(tmp_path / "p.csv")])
    assert code == 3
    payload = json.loads(capsys.readouterr().err)
    assert payload["message"] == "no bracket root in (0, u_plus): tau=0.25 exceeds the critical value 0.159091"
    assert not (tmp_path / "p.csv").exists()


def _config(tmp_path, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    return str(cfg)


# malformed flags and config files: usage errors, each found before any solve
# but the profile shot that sizes an oversized micelle grid
BAD_INPUTS = {
    "missing-config": lambda tmp: ["converge", "--config", str(tmp / "absent.json")],
    "malformed-json": lambda tmp: ["converge", "--config", _config(tmp, '{"kind": ')],
    "list-config": lambda tmp: ["converge", "--config", _config(tmp, '["kind", "bilayer"]')],
    "short-range": lambda tmp: ["phase", "--eta1-range", "1:2"],
    "bad-eps-list": lambda tmp: ["converge", "--eps-list", "0.1,abc"],
    "null-alpha": lambda tmp: [
        "converge", "--config", _config(tmp, '{"kind": "micelle", "alpha": null, "eps_list": [0.1]}')
    ],
    "null-eta1": lambda tmp: ["converge", "--config", _config(tmp, '{"eta1": null, "eps_list": [0.1]}')],
    "string-alpha": lambda tmp: [
        "converge", "--config", _config(tmp, '{"kind": "micelle", "alpha": "0.5", "eps_list": [0.1]}')
    ],
    "string-geometry": lambda tmp: ["converge", "--config", _config(tmp, '{"geometry": "circle"}')],
    "string-geometry-shape-flag": lambda tmp: [
        "converge", "--config", _config(tmp, '{"geometry": "circle"}'), "--shape", "ellipse"
    ],
    "negative-tau": lambda tmp: ["converge", "--tau", "-1"],
    "negative-alpha": lambda tmp: ["converge", "--kind", "micelle", "--alpha", "-1"],
    "zero-alpha": lambda tmp: ["converge", "--kind", "micelle", "--alpha", "0"],
    "negative-alpha-sphere": lambda tmp: [
        "converge", "--kind", "micelle", "--alpha", "-1", "--shape", "sphere", "--rho", "3"
    ],
    "inf-alpha": lambda tmp: ["converge", "--kind", "micelle", "--alpha", "inf", "--eps-list", "0.1"],
    "inf-alpha-default-eps": lambda tmp: ["converge", "--kind", "micelle", "--alpha", "inf"],
    "nan-alpha": lambda tmp: ["converge", "--kind", "micelle", "--alpha", "nan", "--eps-list", "0.1"],
    "phase-negative-alpha": lambda tmp: ["phase", "--alpha", "-1", "--eta1-range", "1:1:1", "--eta2-range", "1:1:1"],
    "phase-zero-alpha": lambda tmp: ["phase", "--alpha", "0", "--eta1-range", "1:1:1", "--eta2-range", "1:1:1"],
    "phase-nan-alpha": lambda tmp: ["phase", "--alpha", "nan", "--eta1-range", "1:1:1", "--eta2-range", "1:1:1"],
    "increasing-eps-list": lambda tmp: ["converge", "--eps-list", "0.1,0.2"],
    "unknown-kind": lambda tmp: ["converge", "--config", _config(tmp, '{"kind": "trilayer"}')],
    "empty-phase-axis": lambda tmp: ["phase", "--eta1-range", "0:1:0"],
    "phase-null-range-lo": lambda tmp: [
        "phase", "--config", _config(tmp, '{"eta1_range": [null, 2.0, 1], "eta2_range": [1, 1, 1]}')
    ],
    "phase-two-element-range": lambda tmp: ["phase", "--config", _config(tmp, '{"eta1_range": [0.1, 2.0]}')],
    "phase-fractional-count": lambda tmp: ["phase", "--config", _config(tmp, '{"eta2_range": [1, 2, 1.5]}')],
    "phase-boolean-count": lambda tmp: ["phase", "--config", _config(tmp, '{"eta1_range": [1, 2, true]}')],
    "phase-string-range": lambda tmp: ["phase", "--config", _config(tmp, '{"eta2_range": "abc"}')],
    "nan-eta1": lambda tmp: ["converge", "--eta1", "nan", "--eps-list", "0.1"],
    "inf-eta2": lambda tmp: ["converge", "--eta2", "inf", "--eps-list", "0.1"],
    "nan-eps-list": lambda tmp: ["converge", "--eps-list", "0.1,nan"],
    "phase-nan-range-lo": lambda tmp: ["phase", "--eta1-range", "nan:1:3"],
    "phase-inf-range-hi": lambda tmp: ["phase", "--eta2-range", "0:inf:3"],
    "phase-fractional-count-flag": lambda tmp: ["phase", "--eta1-range", "0:1:1.5"],
    "phase-string-range-flag": lambda tmp: ["phase", "--eta1-range", "0:abc:3"],
    "nan-tau": lambda tmp: ["converge", "--tau", "nan", "--eps-list", "0.1"],
    "nan-c5": lambda tmp: ["converge", "--c5", "nan", "--eps-list", "0.1"],
    "inf-c5": lambda tmp: ["converge", "--c5", "inf", "--eps-list", "0.1"],
    "nan-r": lambda tmp: ["converge", "--r", "nan", "--eps-list", "0.1"],
    "inf-u-plus": lambda tmp: ["converge", "--u-plus", "inf", "--eps-list", "0.1"],
    "nan-p": lambda tmp: ["phase", "--p", "nan", "--eta1-range", "1:1:1", "--eta2-range", "1:1:1"],
    "profile-nan-c5": lambda tmp: ["profile", "--kind", "bilayer", "--c5", "nan"],
    "profile-string-tau": lambda tmp: [
        "profile", "--kind", "bilayer", "--config", _config(tmp, '{"well": {"tau": "0.1"}}')
    ],
    "profile-boolean-n": lambda tmp: ["profile", "--kind", "micelle", "--config", _config(tmp, '{"n": true}')],
    "profile-fractional-n": lambda tmp: ["profile", "--kind", "micelle", "--config", _config(tmp, '{"n": 2.7}')],
    "profile-fractional-samples": lambda tmp: [
        "profile", "--kind", "bilayer", "--config", _config(tmp, '{"samples": 40.5}')
    ],
    "profile-null-samples": lambda tmp: ["profile", "--kind", "bilayer", "--config", _config(tmp, '{"samples": null}')],
    "inf-ellipse-a": lambda tmp: ["converge", "--shape", "ellipse", "--a", "inf", "--b", "1", "--eps-list", "0.1"],
    "overflowing-ellipse-tip": lambda tmp: [
        "converge", "--kind", "micelle", "--shape", "ellipse", "--a", "1e-300", "--b", "1", "--alpha", "0.5",
        "--eps-list", "0.1",
    ],
    "nan-rho": lambda tmp: ["converge", "--rho", "nan", "--eps-list", "0.1,0.05"],
    "phase-nan-rho": lambda tmp: [
        "phase", "--shape", "sphere", "--rho", "nan", "--eta1-range", "1:1:1", "--eta2-range", "1:1:1"
    ],
    "inf-torus-R": lambda tmp: ["converge", "--shape", "torus", "--torus-R", "inf", "--torus-r", "1", "--eps-list", "0.1"],
    "boolean-rho": lambda tmp: ["converge", "--config", _config(tmp, '{"geometry": {"shape": "circle", "rho": true}}')],
    "string-rho": lambda tmp: ["converge", "--config", _config(tmp, '{"geometry": {"shape": "circle", "rho": "2"}}')],
    "null-rho": lambda tmp: ["phase", "--config", _config(tmp, '{"geometry": {"shape": "sphere", "rho": null}}')],
    "boolean-eps-entry": lambda tmp: ["converge", "--config", _config(tmp, '{"eps_list": [true, 0.05]}')],
    "string-eps-entry": lambda tmp: ["converge", "--config", _config(tmp, '{"eps_list": ["0.1", 0.05]}')],
    "string-eps-list": lambda tmp: ["converge", "--config", _config(tmp, '{"eps_list": "0.1"}')],
    "number-eps-list": lambda tmp: ["converge", "--config", _config(tmp, '{"eps_list": 0.1}')],
    "number-well": lambda tmp: ["converge", "--config", _config(tmp, '{"well": 5}')],
    "string-well": lambda tmp: ["phase", "--config", _config(tmp, '{"well": "ab"}')],
    "list-well": lambda tmp: ["profile", "--kind", "bilayer", "--config", _config(tmp, '{"well": ["r"]}')],
    # the default micelle resolution asks for 945x1888x257 samples, 3.7 GB a field
    "oversized-sphere-micelle-grid": lambda tmp: ["converge", "--kind", "micelle", "--shape", "sphere", "--rho", "3"],
    # every default width snaps to one micelle at eps 1.6e-7: a 229969074x257 grid
    "oversized-one-micelle-grid": lambda tmp: ["converge", "--kind", "micelle", "--alpha", "1e-6"],
    # the default spacing 2*eps*R0/96 is subnormal and 2*pi over it overflows;
    # int(ceil(inf)) once exited 1 with a traceback
    "subnormal-micelle-width": lambda tmp: ["converge", "--kind", "micelle", "--alpha", "0.5", "--eps-list", "1e-320"],
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


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_dry_run_refuses_what_the_run_refuses(tmp_path, capsys, case):
    args = BAD_INPUTS[case](tmp_path) + ["--out", str(tmp_path / "x.csv")]
    before = sorted(tmp_path.iterdir())
    dry = run_cli(args + ["--dry-run"]), capsys.readouterr()
    run = run_cli(args), capsys.readouterr()
    assert dry == run
    code, (out, err) = run
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1
    assert sorted(tmp_path.iterdir()) == before


_GROWTH = "growth exponent p=5.0 violates p < 4.0 required in dimension n=3"

# refusals found by the solvers, by placement, by the width check and by the
# size caps: (exit code, message, args).  A dry run is the run stopped before
# its first field, so it refuses these as the run does.
RUN_REFUSALS = {
    "phase-growth-exponent": (3, _GROWTH, ["phase", "--p", "5"]),
    "profile-micelle-dimension": (2, "dim_n must be between 1 and 4", ["profile", "--kind", "micelle", "--n", "5"]),
    "profile-micelle-growth-exponent": (3, _GROWTH, ["profile", "--kind", "micelle", "--n", "3", "--p", "5"]),
    "profile-samples-floor": (2, "samples must be at least 32", ["profile", "--kind", "bilayer", "--samples", "8"]),
    "profile-samples-cap": (
        2, "samples = 1048577 is above the 1048576 allowed", ["profile", "--kind", "bilayer", "--samples", "1048577"]
    ),
    "phase-cells-cap": (
        2, "phase map of 1049600 cells is above the 1048576 allowed",
        ["phase", "--eta1-range", "0:1:1025", "--eta2-range", "0:1:1024"],
    ),
    "converge-placement": (
        3,
        "cannot place 64 centers with separation 0.824; equal arc-length spacing fits at most 7 at eps = 0.05",
        ["converge", "--kind", "micelle", "--alpha", "20", "--eps-list", "0.05"],
    ),
    # the default schedule's first width, 0.1, puts eps*ell*kappa_max above 1
    # on Ellipse(2, 1): the Jacobian vanishes at the tips of the long axis
    "converge-degenerate-ellipse": (
        3,
        "tubular grid degenerate: eps*ell*kappa_max = 1.694 >= 1",
        ["converge", "--kind", "bilayer", "--shape", "ellipse", "--a", "2", "--b", "1"],
    ),
    # 318310 centers asked for: the refusal walks down from the arc-length bound (381), not from the count
    "converge-dense-placement": (
        3,
        "cannot place 318310 centers with separation 0.01648; equal arc-length spacing fits at most 381 at eps = 0.001",
        ["converge", "--kind", "micelle", "--alpha", "2000", "--eps-list", "0.001"],
    ),
    # 31831 centers asked for on Sphere(1): above the cap-packing bound (16),
    # so the spread starts there, not at the count
    "converge-sphere-cap-bound": (
        3,
        "cannot place 31831 centers with separation 0.961; cap packing fits at most 16; "
        "the greedy spread fits 10 at eps = 0.05",
        ["converge", "--kind", "micelle", "--shape", "sphere", "--rho", "1", "--alpha", "1000", "--eps-list", "0.05"],
    ),
    # 11 centers fit on Sphere(1) (12 do, as an icosahedron) but the spread
    # places 10: a numerics failure, not an infeasible model
    "converge-sphere-spread-fails": (
        4,
        "the greedy spread placed 10 of 11 centers with separation 0.961 at eps = 0.05, "
        "within the cap-packing bound of 16",
        ["converge", "--kind", "micelle", "--shape", "sphere", "--rho", "1", "--alpha", "0.35", "--eps-list", "0.05"],
    ),
}


@pytest.mark.parametrize("case", sorted(RUN_REFUSALS))
def test_dry_run_refuses_what_the_solvers_refuse(tmp_path, capsys, case):
    code, message, args = RUN_REFUSALS[case]
    args = args + ["--out", str(tmp_path / "x.csv")]
    dry = run_cli(args + ["--dry-run"]), capsys.readouterr()
    run = run_cli(args), capsys.readouterr()
    assert dry == run
    got, (out, err) = run
    assert got == code and out == ""
    (line,) = err.strip().splitlines()
    assert json.loads(line)["message"] == message
    assert sorted(tmp_path.iterdir()) == []


@pytest.mark.parametrize("widths", [[], ["--eps-list", "0.05"]], ids=["default-schedule", "eps-0.05"])
def test_a_count_past_the_float_range_is_a_placement_refusal(tmp_path, capsys, widths):
    # alpha/omega * eps^(1-n) overflows at alpha = 1e308; round(inf) once
    # exited 1 with a traceback, the code of failed convergence checks
    args = ["converge", "--kind", "micelle", "--alpha", "1e308", *widths, "--out", str(tmp_path / "x.csv")]
    dry = run_cli(args + ["--dry-run"]), capsys.readouterr()
    run = run_cli(args), capsys.readouterr()
    assert dry == run
    code, (out, err) = run
    assert code == 3 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "PlacementError"
    count = re.fullmatch(
        r"cannot place (\d+) centers with separation 0.824; equal arc-length spacing fits at most 7 at eps = 0.05",
        payload["message"],
    ).group(1)
    if widths:
        assert int(count) == round(Fraction(1e308) / Fraction(2.0 * math.pi) / Fraction(0.05))
    assert sorted(tmp_path.iterdir()) == []


def test_null_out_is_refused_before_any_solve(tmp_path, capsys):
    args = ["profile", "--kind", "bilayer", "--config", _config(tmp_path, '{"out": null}')]
    for extra in (["--dry-run"], []):
        assert run_cli(args + extra) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "TypeError"


def test_converge_failed_check_exits_1_and_writes_outputs(tmp_path, capsys):
    # |E - limit| grows from 0.0214 to 0.0223 over these two widths
    out = tmp_path / "conv.csv"
    code = run_cli(["converge", "--kind", "micelle", "--alpha", "0.5", "--eps-list", "0.06,0.05", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().out == "micelle on circle: predicted=-0.0869529817 last_energy=-0.109266686 rate=\n"
    assert len(out.read_text().splitlines()) == 3
    manifest = json.loads((tmp_path / "conv.csv.manifest.json").read_text())
    assert manifest["config"]["eps_list"] == [0.06, 0.05]


def test_non_finite_energy_exits_4_without_outputs(tmp_path, capsys):
    # eps**2 underflows below about 1e-154: the energy at eps = 1e-160 is nan
    out = tmp_path / "conv.csv"
    code = run_cli(["converge", "--kind", "bilayer", "--eps-list", "1e-160", "--out", str(out)])
    assert code == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.strip().splitlines()
    payload = json.loads(line)
    assert payload["error"] == "NumericsError"
    assert payload["message"].startswith("energy at eps = 1e-160 is not finite: ")
    assert sorted(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "eta, extra, side",
    [("1e308", [], "bilayer_limit"), ("1e300", ["--alpha", "1e10"], "micelle_limit")],
    ids=["eta-sum-overflows", "alpha-eta-overflows"],
)
def test_non_finite_phase_limit_exits_4_without_outputs(tmp_path, capsys, eta, extra, side):
    # eta1 + eta2 = 2e308 overflows in G1, and alpha * eta1 / 2 = 5e309 in the
    # micelle limit: a -inf limit once reached the CSV and named a winner with exit 0
    out = tmp_path / "phase.csv"
    ranges = ["--eta1-range", f"{eta}:{eta}:1", "--eta2-range", f"{eta}:{eta}:1"]
    assert run_cli(["phase", *ranges, *extra, "--out", str(out)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.strip().splitlines()
    payload = json.loads(line)
    assert payload["error"] == "NumericsError"
    assert payload["message"] == f"{side} of the cell eta1 = {float(eta)!r}, eta2 = {float(eta)!r} is not finite: -inf"
    assert sorted(tmp_path.iterdir()) == []


def test_unknown_config_keys_are_named(tmp_path, capsys):
    args = ["converge", "--dry-run", "--config"]
    assert run_cli(args + [_config(tmp_path, '{"kind": "bilayer", "eta_1": 2.0}')]) == 2
    assert json.loads(capsys.readouterr().err)["message"] == "unknown config key 'eta_1'"
    assert run_cli(args + [_config(tmp_path, '{"kind": "bilayer", "well": {"tua": 0.1}}')]) == 2
    assert json.loads(capsys.readouterr().err)["message"] == "unknown well key 'tua'"
    # the accepted rate window is a constant, not a key
    assert run_cli(args + [_config(tmp_path, '{"rate_window": [0.7, 2.5]}')]) == 2
    assert json.loads(capsys.readouterr().err)["message"] == "unknown config key 'rate_window'"



def _refused(capsys, code):
    """The one-line JSON error of an exit-2 refusal."""
    assert code == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    payload = json.loads(err)
    assert payload["error"] == "ValueError"
    return payload["message"]


# a null or string alpha is refused as not a number: test_non_numeric_coefficient_is_named
ALPHA_CASES = [case for case in sorted(BAD_INPUTS) if "alpha" in case and case not in ("null-alpha", "string-alpha")]


@pytest.mark.parametrize("case", ALPHA_CASES)
def test_nonpositive_alpha_is_named(tmp_path, capsys, case):
    # inf and nan too: alpha is refused unless it is a finite number > 0
    code = run_cli(BAD_INPUTS[case](tmp_path) + ["--out", str(tmp_path / "x.csv")])
    assert _refused(capsys, code) == "micelle sequences need alpha > 0"


@pytest.mark.parametrize("command, key", [("converge", "eta1"), ("converge", "eta2"), ("converge", "alpha"), ("phase", "alpha")])
@pytest.mark.parametrize("value", ["null", "true", '"0.5"', "[1.0]"])
def test_non_numeric_coefficient_is_named(tmp_path, capsys, command, key, value):
    # the dry-run parity test shows the run refuses it alike
    cfg = ('{"kind": "micelle", ' if command == "converge" else "{") + f'"{key}": {value}}}'
    args = [command, "--config", _config(tmp_path, cfg), "--dry-run", "--out", str(tmp_path / "x.csv")]
    assert _refused(capsys, run_cli(args)) == f"{key} must be a number"


@pytest.mark.parametrize("case, key", [("nan-eta1", "eta1"), ("inf-eta2", "eta2")])
def test_non_finite_coefficient_is_named(tmp_path, capsys, case, key):
    # the dry-run parity test shows the run refuses it alike
    code = run_cli(BAD_INPUTS[case](tmp_path) + ["--dry-run", "--out", str(tmp_path / "x.csv")])
    assert _refused(capsys, code) == f"{key} must be finite"


@pytest.mark.parametrize(
    "case, message",
    [
        ("nan-tau", "tau must be finite"),
        ("nan-c5", "c5 must be finite"),
        ("inf-c5", "c5 must be finite"),
        ("nan-r", "r must be finite"),
        ("inf-u-plus", "u_plus must be finite"),
        ("nan-p", "p must be finite"),
        ("profile-nan-c5", "c5 must be finite"),
        ("profile-string-tau", "tau must be a number"),
        ("profile-boolean-n", "n must be an integer >= 1"),
        ("profile-fractional-n", "n must be an integer >= 1"),
        ("profile-fractional-samples", "samples must be an integer >= 1"),
        ("profile-null-samples", "samples must be an integer >= 1"),
    ],
)
def test_well_value_and_profile_count_are_named(tmp_path, capsys, case, message):
    # the dry-run parity test shows the run refuses it alike
    code = run_cli(BAD_INPUTS[case](tmp_path) + ["--dry-run", "--out", str(tmp_path / "x.csv")])
    assert _refused(capsys, code) == message


@pytest.mark.parametrize("command", ["converge", "phase"])
def test_geometry_missing_key_is_named(tmp_path, capsys, command):
    # a new shape from the flags drops the default's keys; ellipse needs a and b
    args = [command, "--shape", "ellipse", "--rho", "3", "--out", str(tmp_path / "x.csv")]
    assert _refused(capsys, run_cli(args + ["--dry-run"])) == "ellipse geometry needs key 'a'"
    assert _refused(capsys, run_cli(args)) == "ellipse geometry needs key 'a'"
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("command", ["converge", "phase"])
def test_geometry_unused_key_is_refused(tmp_path, capsys, command):
    cfg = _config(tmp_path, '{"geometry": {"shape": "ellipse", "a": 2, "b": 1, "rho": 3}}')
    args = [command, "--config", cfg, "--out", str(tmp_path / "x.csv")]
    assert _refused(capsys, run_cli(args + ["--dry-run"])) == "ellipse geometry does not use key 'rho'"
    assert _refused(capsys, run_cli(args)) == "ellipse geometry does not use key 'rho'"
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize(
    "case, message",
    [
        ("inf-ellipse-a", "ellipse geometry key 'a' must be a finite number"),
        (
            "overflowing-ellipse-tip",
            "ellipse geometry key 'a' = 1e-300 is too small against b = 1.0: the tip curvature b/a^2 overflows",
        ),
        ("nan-rho", "circle geometry key 'rho' must be a finite number"),
        ("phase-nan-rho", "sphere geometry key 'rho' must be a finite number"),
        ("inf-torus-R", "torus geometry key 'R' must be a finite number"),
        ("boolean-rho", "circle geometry key 'rho' must be a finite number"),
        ("string-rho", "circle geometry key 'rho' must be a finite number"),
        ("null-rho", "sphere geometry key 'rho' must be a finite number"),
        ("boolean-eps-entry", "eps_list entry must be a number"),
        ("string-eps-entry", "eps_list entry must be a number"),
        ("nan-eps-list", "eps_list entry must be finite"),
        ("string-eps-list", "eps_list must be a list of numbers"),
        ("number-eps-list", "eps_list must be a list of numbers"),
        ("bad-eps-list", "eps_list must be comma-separated numbers"),
        ("number-well", "well must be a JSON object"),
        ("string-well", "well must be a JSON object"),
        ("list-well", "well must be a JSON object"),
        ("string-geometry", "geometry must be a JSON object"),
    ],
)
def test_geometry_width_and_well_values_are_named(tmp_path, capsys, case, message):
    # the dry-run parity test shows the run refuses it alike
    code = run_cli(BAD_INPUTS[case](tmp_path) + ["--dry-run", "--out", str(tmp_path / "x.csv")])
    assert _refused(capsys, code) == message


@pytest.mark.parametrize(
    "case, message",
    [
        ("phase-null-range-lo", "eta1_range lo must be a number"),
        ("phase-two-element-range", "eta1_range must be [lo, hi, count]"),
        ("phase-fractional-count", "eta2_range count must be an integer >= 1"),
        ("phase-boolean-count", "eta1_range count must be an integer >= 1"),
        ("phase-string-range", "eta2_range must be [lo, hi, count]"),
        ("empty-phase-axis", "eta1_range count must be an integer >= 1"),
        ("short-range", "eta1_range must be lo:hi:num"),
        ("phase-string-range-flag", "eta1_range must be lo:hi:num"),
        ("phase-fractional-count-flag", "eta1_range count must be an integer >= 1"),
        ("phase-nan-range-lo", "eta1_range lo must be finite"),
        ("phase-inf-range-hi", "eta2_range hi must be finite"),
    ],
)
def test_phase_range_is_named(tmp_path, capsys, case, message):
    # the dry-run parity test shows the run refuses it alike
    code = run_cli(BAD_INPUTS[case](tmp_path) + ["--dry-run", "--out", str(tmp_path / "x.csv")])
    assert _refused(capsys, code) == message


def _dry_run(args, config):
    """Resolved configuration of a converge dry run with `config` as its file."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["converge", "--config", str(cfg), "--dry-run"] + args) == 0
    return json.loads(out.getvalue())


# converge settings a file or a flag can set: (resolved path, flag, default, range of draws)
MERGED = [
    (("eta1",), "--eta1", 1.0, (0.1, 3.0)),
    (("eta2",), "--eta2", 1.0, (-2.0, 6.0)),
    (("alpha",), "--alpha", 0.5, (0.1, 2.0)),
    (("well", "tau"), "--tau", 0.25, (0.05, 0.5)),
    (("well", "r"), "--r", 1.75, (1.55, 1.95)),
]
# the file always names a torus; a flag may override either radius
TORUS = [("R", "--torus-R", (2.0, 4.0)), ("r", "--torus-r", (0.5, 1.5))]


@st.composite
def merge_cases(draw):
    """(flags, config file, expected resolved value per path)."""
    # a dry run sizes and checks the run's grids: at eps 0.1 a bilayer on a
    # thin torus is degenerate (eps*ell*kappa_max >= 1); at 0.001 none of the
    # drawn ones is (ell <= 1.05*57 at r = 1.95 and tau = 0.5, kappa_max <= 2)
    config = {"geometry": {"shape": "torus"}, "eps_list": [0.001]}
    args, expected = [], {}
    for path, flag, default, (lo, hi) in MERGED:
        value = default
        if draw(st.booleans()):
            value = draw(st.floats(lo, hi))
            node = config
            for key in path[:-1]:
                node = node.setdefault(key, {})
            node[path[-1]] = value
        if draw(st.booleans()):
            value = draw(st.floats(lo, hi))
            args.append(f"{flag}={value!r}")
        expected[path] = value
    for key, flag, (lo, hi) in TORUS:
        value = config["geometry"][key] = draw(st.floats(lo, hi))
        if draw(st.booleans()):
            value = draw(st.floats(lo, hi))
            args.append(f"{flag}={value!r}")
        expected[("geometry", key)] = value
    return args, config, expected


@given(merge_cases())
def test_flags_beat_file_beat_defaults(case):
    args, config, expected = case
    resolved = _dry_run(args, config)
    for path, value in expected.items():
        node = resolved
        for key in path:
            node = node[key]
        assert node == value, path
    assert set(resolved["geometry"]) == {"shape", "R", "r"}


def test_torus_flags_replace_the_default_shape():
    resolved = _dry_run(["--shape", "torus", "--torus-R", "4", "--torus-r", "1.5"], {})
    assert resolved["geometry"] == {"shape": "torus", "R": 4.0, "r": 1.5}

"""The runtime needs numpy alone: scipy serves only as a test oracle, and no run loads numpy.ma."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


def _run(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=300)


def test_cli_import_loads_no_scipy(tmp_path):
    code = "import sys, fchlab.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    done = _run(["-c", code], tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "args, out",
    [
        (["profile", "--kind", "micelle", "--n", "2"], "profile.csv"),
        (["converge", "--kind", "micelle", "--eps-list", "0.1", "--alpha", "0.5", "--out", "conv.csv"], "conv.csv"),
    ],
)
def test_cli_runs_with_scipy_blocked(tmp_path, args, out):
    done = _run([str(TESTS / "no_scipy.py"), *args], tmp_path)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / out).stat().st_size > 0


@pytest.mark.parametrize(
    "args",
    [
        ["converge", "--kind", "micelle", "--eps-list", "0.1", "--alpha", "0.5", "--out", "out.csv"],
        ["converge", "--kind", "bilayer", "--eps-list", "0.1", "--out", "out.csv"],
        ["phase", "--eta1-range", "1:2:2", "--eta2-range", "0:1:2", "--out", "out.csv"],
    ],
    ids=["micelle", "bilayer", "phase"],
)
def test_cli_runs_load_no_numpy_ma(tmp_path, args):
    # np.unique and np.union1d import numpy.ma in numpy 2.4: about 15 ms and
    # 0.5 MB of every CLI process
    code = f"import sys; from fchlab.cli import main; assert main({args!r}) == 0; print('numpy.ma' in sys.modules)"
    done = _run(["-c", code], tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"


def test_blocker_refuses_scipy(tmp_path):
    code = (
        f"import sys; sys.path.insert(0, {str(TESTS)!r}); import no_scipy; "
        "sys.meta_path.insert(0, no_scipy._BlockScipy()); import scipy.integrate"
    )
    done = _run(["-c", code], tmp_path)
    assert done.returncode != 0
    assert "scipy is blocked" in done.stderr

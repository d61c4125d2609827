"""Each demo runs to completion as a script and prints what it promises."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import swarmpp

ROOT = Path(__file__).resolve().parents[1]


def run_demo(name):
    src = str(Path(swarmpp.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / name)], env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    # pyproject.toml's filter that makes every warning an error does not reach a subprocess
    assert "Warning" not in done.stderr, done.stderr
    return done.stdout.splitlines()


PRINTED = {
    "single_run.py": "mPSO      3.773e+00  2.041e+00  1.006e+00  5.578e-03  1.365e-03  1.365e-03   "
                     "(C1 violations: 0, C3 violations: 0)",
    "noise_effects.py": "  hmPSO sigma=0.005          1.651e-84",
}


@pytest.mark.parametrize("name", sorted(PRINTED))
def test_demo_prints(name):
    assert PRINTED[name] in run_demo(name)


def test_compare_variants_removes_its_store():
    lines = run_demo("compare_variants.py")
    assert "  t= 1000  all functions  P = 0.562" in lines
    (outdir,) = [m[1] for m in map(re.compile(r"executing 64 cells into (.*) \.\.\.$").match, lines) if m]
    assert not Path(outdir).exists()

"""The benchmark's traced run writes what the plain command writes.

bench/traced.py wraps engine attributes (RampGrid.propagator_chunk among
them) and runs the CLI in its own process; its outputs must stay the
command's own.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

from workloads import WORKLOADS  # noqa: E402


def test_traced_bare_wide_equals_plain_simulate(tmp_path):
    seed = 701
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    traced, plain = tmp_path / "traced", tmp_path / "plain"
    run = subprocess.run(
        [sys.executable, "bench/traced.py", "bare-wide", str(seed), str(traced)],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout.splitlines()[-1])["prop_steps"] > 0
    subprocess.run(
        [sys.executable] + WORKLOADS["bare-wide"].cli_args(seed, str(plain)),
        cwd=ROOT, env=env, capture_output=True, check=True,
    )
    names = sorted(os.listdir(plain))
    assert names and names == sorted(os.listdir(traced))
    for name in names:
        assert (traced / name).read_bytes() == (plain / name).read_bytes(), name

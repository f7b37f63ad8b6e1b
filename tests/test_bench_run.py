"""The benchmark's tiny runs pass the benchmark's own gates.

bench/run.py checks every repetition against its workload's reference (the
exact Riemann solution, or the finest level of the smooth ladder) and fails
any repetition whose final density differs by a byte from the first one's.
The tiny lattice-bdf2 run puts the moments and the relaxation of the lattice
BDF path under that byte-identity gate; the tiny shock-weno35 and
smooth-ladder runs put the WENO35 and WENO23 kernels under it.  The traced
runs report the layer spans of bench/spans.py, which see a layer only
through the function they patch.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _tiny_run(workload, trace):
    cmd = [
        sys.executable, "bench/run.py", "--workload", workload,
        "--seed", "0", "--seconds", "1", "--trace", str(trace), "--tiny",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


def _assert_correct(result, stderr):
    assert result["correct"] and result["failed"] == 0, stderr
    assert result["attempted"] >= 2  # the byte-identity gate compared something


def test_tiny_lattice_bdf2_run_is_correct():
    _assert_correct(*_tiny_run("lattice-bdf2", trace=0))


@pytest.mark.parametrize("workload", ("shock-weno35", "smooth-ladder"))
def test_tiny_weno_run_is_correct(workload):
    _assert_correct(*_tiny_run(workload, trace=0))


@pytest.mark.parametrize(
    "workload",
    [pytest.param("lattice-bdf2", marks=pytest.mark.slow), "shock-weno35", "smooth-ladder"],
)
def test_traced_run_sees_every_gather_through_the_transport(workload):
    """Every transport call is one lattice gather or one WENO apply: a gather
    taken past LatticeTransport.shifted or InterpPlan.apply would vanish from
    its span.  A shifted call to several feet of one window is one apply,
    whose one result stacks them all, so its size counts every point.  On
    shock-weno35 (RK3 below CFL 1) that is one apply per field that has
    feet, f^n, K_0 and K_1: 3 per step, not one per foot (6)."""
    result, stderr = _tiny_run(workload, trace=1)
    _assert_correct(result, stderr)
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    calls = {name: metrics[f"{name}.calls"]
             for name in ("transport.shifted", "lattice.shifted", "weno.apply", "integrators.step")}
    assert calls["transport.shifted"] == calls["lattice.shifted"] + calls["weno.apply"]
    if workload == "lattice-bdf2":
        assert calls["lattice.shifted"] > 0
    if workload == "shock-weno35":
        assert calls["weno.apply"] == 3 * calls["integrators.step"] > 0

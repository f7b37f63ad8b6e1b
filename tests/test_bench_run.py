"""The benchmark's tiny lattice-bdf2 run passes the benchmark's own gates.

bench/run.py checks every repetition against the exact Riemann solution and
fails any repetition whose final density differs by a byte from the first
one's, so this run puts the moments and the relaxation of the lattice BDF
path under that byte-identity gate.  Its traced run reports the layer spans
of bench/spans.py, which see a layer only through the function they patch.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _tiny_lattice_bdf2(trace):
    cmd = [
        sys.executable, "bench/run.py", "--workload", "lattice-bdf2",
        "--seed", "0", "--seconds", "1", "--trace", str(trace), "--tiny",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


def test_tiny_lattice_bdf2_run_is_correct():
    result, stderr = _tiny_lattice_bdf2(trace=0)
    assert result["correct"] and result["failed"] == 0, stderr
    assert result["attempted"] >= 2  # the byte-identity gate compared something


@pytest.mark.slow
def test_traced_lattice_bdf2_sees_every_gather_through_the_transport():
    """Every transport call is one lattice gather or one interpolation: a
    gather taken past LatticeTransport.shifted would vanish from its span."""
    result, stderr = _tiny_lattice_bdf2(trace=1)
    assert result["correct"] and result["failed"] == 0, stderr
    calls = {name: result["metrics"][f"{name}.calls"]["value"]
             for name in ("transport.shifted", "lattice.shifted", "weno.apply")}
    assert calls["lattice.shifted"] > 0
    assert calls["transport.shifted"] == calls["lattice.shifted"] + calls["weno.apply"]

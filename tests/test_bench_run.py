"""The benchmark's tiny lattice-bdf2 run passes the benchmark's own gates.

bench/run.py checks every repetition against the exact Riemann solution and
fails any repetition whose final density differs by a byte from the first
one's, so this run puts the moments and the relaxation of the lattice BDF
path under that byte-identity gate.
"""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tiny_lattice_bdf2_run_is_correct():
    cmd = [
        sys.executable, "bench/run.py", "--workload", "lattice-bdf2",
        "--seed", "0", "--seconds", "1", "--trace", "0", "--tiny",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 2  # the byte-identity gate compared something

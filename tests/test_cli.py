"""Command-line interface: subcommands, config files, CSV output, exit codes."""
import csv
import json
import subprocess
import sys

import pytest

from bgk_sl import harness
from bgk_sl.cli import main


VACUUM_SCENARIO = {
    "name": "vacuum-pull",
    "model": "1v",
    "domain": [0.0, 1.0],
    "boundary": "freeflow",
    "nv": 16,
    "vmax": 8.0,
    "cfl": 2.0,
    "t_final": 0.4,
    "initial": {
        "kind": "riemann",
        "left": [1.0, -4.0, 0.05],
        "right": [1.0, 4.0, 0.05],
        "x_jump": 0.5,
    },
}


def _run_inprocess(args, capsys):
    """Invoke main() directly; returns (exit_code, stdout, stderr)."""
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _read_csv(path):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    data = [ln for ln in lines if not ln.startswith("#")]
    rows = list(csv.reader(data))
    return comments, rows[0], rows[1:]


def test_run_writes_profile_csv(tmp_path, capsys):
    out = tmp_path / "profile.csv"
    code, _, err = _run_inprocess(
        [
            "run", "--scenario", "smooth", "--scheme", "RK2", "--interp", "weno23",
            "--eps", "1e-2", "--nx", "32", "--tfinal", "0.04", "--out", str(out),
        ],
        capsys,
    )
    assert code == 0 and err == ""
    comments, header, rows = _read_csv(out)
    assert comments == []  # no --seed-meta
    assert header == ["x", "rho", "u", "T", "E"]
    assert len(rows) == 33  # one row per node
    x_vals = [float(r[0]) for r in rows]
    assert x_vals[0] == -1.0 and x_vals[-1] == 1.0
    assert all(float(r[1]) > 0 for r in rows)  # density positive
    # 17-significant-digit round trip: re-formatting reproduces the text
    for r in rows:
        for tok in r:
            assert format(float(tok), ".17g") == tok


def test_run_to_stdout(capsys):
    code, out, err = _run_inprocess(
        [
            "run", "--scenario", "smooth", "--scheme", "Euler1",
            "--eps", "1", "--nx", "16", "--tfinal", "0.02",
        ],
        capsys,
    )
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "x,rho,u,T,E"
    assert len(lines) == 18


def test_seed_meta_comments(tmp_path, capsys):
    out = tmp_path / "meta.csv"
    code, _, _ = _run_inprocess(
        [
            "run", "--scenario", "smooth", "--scheme", "RK2", "--interp", "weno23",
            "--eps", "1e-2", "--nx", "16", "--tfinal", "0.02",
            "--seed-meta", "--out", str(out),
        ],
        capsys,
    )
    assert code == 0
    comments, header, rows = _read_csv(out)
    assert header == ["x", "rho", "u", "T", "E"]
    joined = "\n".join(comments)
    assert "# scheme=RK2W23" in joined
    assert "# nx=16" in joined
    assert "# rng_seed=none" in joined
    assert "# shortened_final_step=" in joined


def test_missing_required_flag_is_config_error(capsys):
    code, _, err = _run_inprocess(["run", "--scenario", "smooth", "--eps", "1"], capsys)
    assert code == 2
    assert "config error:" in err and "--scheme" in err


def test_unknown_scheme_is_config_error(capsys):
    code, _, err = _run_inprocess(
        ["run", "--scenario", "smooth", "--scheme", "RK9", "--eps", "1", "--nx", "16"],
        capsys,
    )
    assert code == 2 and "config error:" in err


def test_lattice_with_interp_is_config_error(capsys):
    code, _, err = _run_inprocess(
        [
            "run", "--scenario", "smooth", "--scheme", "LatEuler", "--interp", "weno23",
            "--eps", "1", "--nx", "16", "--tfinal", "0.02",
        ],
        capsys,
    )
    assert code == 2 and "interpolation-free" in err


def test_config_file_fills_unset_flags(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(
        json.dumps(
            {"scenario": "smooth", "scheme": "RK2", "interp": "weno23",
             "eps": 1e-2, "nx": 16, "tfinal": 0.02}
        )
    )
    out = tmp_path / "a.csv"
    code, _, _ = _run_inprocess(
        ["run", "--config", str(cfg), "--out", str(out)], capsys
    )
    assert code == 0
    _, _, rows = _read_csv(out)
    assert len(rows) == 17  # nx taken from the config file


def test_flags_override_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(
        json.dumps(
            {"scenario": "smooth", "scheme": "RK2", "interp": "weno23",
             "eps": 1e-2, "nx": 16, "tfinal": 0.02}
        )
    )
    out = tmp_path / "b.csv"
    code, _, _ = _run_inprocess(
        ["run", "--config", str(cfg), "--nx", "24", "--out", str(out)], capsys
    )
    assert code == 0
    _, _, rows = _read_csv(out)
    assert len(rows) == 25  # flag value wins


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"scenario": "smooth", "mesh": 40}))
    code, _, err = _run_inprocess(["run", "--config", str(cfg)], capsys)
    assert code == 2 and "unknown config keys" in err and "mesh" in err


@pytest.mark.parametrize("model", ["1v", "chu"])
def test_numerical_failure_exit_code_and_partial_csv(tmp_path, capsys, model):
    """Vacuum-generating opposed streams blow up the relaxation; the CLI
    reports exit code 3 and flushes the last committed profile with a
    failure trailer."""
    scen = tmp_path / "vacuum.json"
    scen.write_text(json.dumps({**VACUUM_SCENARIO, "model": model}))
    out = tmp_path / "partial.csv"
    code, _, err = _run_inprocess(
        [
            "run", "--scenario", str(scen), "--scheme", "RK3", "--interp", "weno35",
            "--eps", "1e-6", "--nx", "100", "--out", str(out),
        ],
        capsys,
    )
    assert code == 3
    assert "numerical failure:" in err
    with open(out, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "x,rho,u,T,E"
    assert len(lines) > 100  # header + node rows
    assert lines[-1].startswith("# FAILED:")


@pytest.mark.parametrize(
    "args, header, n_rows",
    [
        (["converge", "--scheme", "LatRK2", "--eps", "1e-4", "--nx", "40", "--levels", "2"],
         "eps,nx,err_L1_rho,order", 0),
        (["converge", "--scheme", "LatRK2", "--eps", "1e-2,1e-4", "--nx", "40", "--levels", "2"],
         "eps,nx,err_L1_rho,order", 1),
        (["cost", "--scheme", "BDF3,LatRK2", "--eps", "1e-4", "--nx", "20", "--levels", "2"],
         "scheme,nx,cpu_seconds,err_L1_rho", 2),
    ],
)
def test_failed_study_flushes_its_own_table(tmp_path, capsys, args, header, n_rows):
    """LatRK2 fails on the 1v shock tube at eps = 1e-4 (negative T in its
    first step); the study's table keeps its own header and the rows that
    finished before the failure, then the failure trailer."""
    out = tmp_path / "study.csv"
    code, _, err = _run_inprocess(
        args + ["--scenario", "riemann", "--out", str(out)], capsys
    )
    assert code == 3 and "numerical failure:" in err
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == header
    assert len(lines) == n_rows + 2
    assert lines[-1].startswith("# FAILED:")


RUN_SMOOTH = ["run", "--scenario", "smooth", "--scheme", "RK2", "--eps", "1", "--nx", "16"]
RK3_SMOOTH = ["--scenario", "smooth", "--scheme", "RK3", "--eps", "1e-4"]


@pytest.mark.parametrize(
    "args, message",
    [
        pytest.param([*RUN_SMOOTH, "--cfl", "inf"], "cfl", id="--cfl-inf-cfl"),
        pytest.param([*RUN_SMOOTH, "--tfinal", "inf"], "t_final", id="--tfinal-inf-t_final"),
        pytest.param([*RUN_SMOOTH, "--tfinal", "nan"], "t_final", id="--tfinal-nan-t_final"),
        # t_final/dt overflows to inf, or is finite but a march without end
        pytest.param(["run", *RK3_SMOOTH, "--nx", "10", "--tfinal", "1e300", "--cfl", "1e-300"],
                     "steps", id="run-overflowing-step-count"),
        pytest.param([*RUN_SMOOTH, "--tfinal", "1e300"], "steps", id="run-endless-march"),
        pytest.param(["cfl-sweep", *RK3_SMOOTH, "--cfl", "1e-300", "--tfinal", "0.01"],
                     "steps", id="cfl-sweep-endless-march"),
    ],
)
def test_nonfinite_cfl_or_final_time_is_config_error(capsys, args, message):
    code, out, err = _run_inprocess(args, capsys)
    assert code == 2 and out == ""
    assert err.startswith("config error:") and message in err
    assert len(err.strip().splitlines()) == 1


def test_cfl_sweep_fine_run_above_the_step_bound_exits_2_before_any_run(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(harness, "run_case", lambda *a, **kw: calls.append(kw["nx"]))
    # 6e6 steps at nx = 160, 1.2e7 at nx = 320
    args = ["cfl-sweep", *RK3_SMOOTH, "--nx", "160", "--cfl", "2,4.2667e-5", "--tfinal", "0.32"]
    code, out, err = _run_inprocess(args, capsys)
    assert (code, out, calls) == (2, "", [])
    assert err.startswith("config error:") and "steps" in err
    assert len(err.strip().splitlines()) == 1


def test_grid_too_large_to_allocate_is_config_error(capsys):
    # 2e12 velocity nodes: a 14.6 TiB request, refused at once, nothing allocated
    code, out, err = _run_inprocess(
        ["run", "--scenario", "smooth", "--scheme", "RK3", "--eps", "1e-4", "--nx", "20",
         "--nv", "1000000000000"],
        capsys,
    )
    assert code == 2 and out == ""
    assert err.startswith("config error:") and "too large" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "args, config",
    [
        (["cfl-sweep", "--scheme", "RK3", "--eps", "1e-4", "--cfl", ","], {}),
        (["converge", "--scheme", "RK3", "--eps", ","], {}),
        (["cost", "--scheme", ",", "--eps", "1e-4"], {}),
        (["cfl-sweep", "--scheme", "RK3", "--eps", "1e-4"], {"cfl": []}),
    ],
    ids=["cfl-sweep", "converge", "cost", "config-file"],
)
def test_empty_list_is_config_error(tmp_path, capsys, args, config):
    """A list option with no value is refused before any run, with no table."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, out, err = _run_inprocess(
        args + ["--scenario", "smooth", "--nx", "10", "--config", str(cfg)], capsys
    )
    assert code == 2 and out == ""
    assert err.startswith("config error:") and "at least one value" in err
    assert len(err.strip().splitlines()) == 1


def test_converge_subcommand_table(tmp_path, capsys):
    out = tmp_path / "orders.csv"
    code, _, _ = _run_inprocess(
        [
            "converge", "--scenario", "smooth", "--scheme", "Euler1", "--interp", "linear",
            "--eps", "1,inf", "--nx", "16", "--levels", "3", "--tfinal", "0.04",
            "--out", str(out),
        ],
        capsys,
    )
    assert code == 0
    _, header, rows = _read_csv(out)
    assert header == ["eps", "nx", "err_L1_rho", "order"]
    assert len(rows) == 4  # 2 eps x 2 coarse levels
    assert rows[0][3] == ""  # first level has no order
    assert float(rows[1][3]) != 0.0
    assert [r[1] for r in rows] == ["16", "32", "16", "32"]
    assert rows[2][0] == "inf"


def test_converge_rejects_single_level(capsys):
    code, _, err = _run_inprocess(
        [
            "converge", "--scenario", "smooth", "--scheme", "Euler1",
            "--eps", "1", "--levels", "1",
        ],
        capsys,
    )
    assert code == 2 and "--levels" in err


def test_cfl_sweep_subcommand_table(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, _, _ = _run_inprocess(
        [
            "cfl-sweep", "--scenario", "smooth", "--scheme", "RK2", "--interp", "weno23",
            "--eps", "1", "--cfl", "2,8", "--nx", "16", "--tfinal", "0.04",
            "--out", str(out),
        ],
        capsys,
    )
    assert code == 0
    _, header, rows = _read_csv(out)
    assert header == ["cfl_requested", "cfl_actual", "err_L2_rho"]
    assert [float(r[0]) for r in rows] == [2.0, 8.0]
    assert all(float(r[2]) > 0 for r in rows)


def test_cost_subcommand_table(tmp_path, capsys):
    out = tmp_path / "cost.csv"
    code, _, _ = _run_inprocess(
        [
            "cost", "--scenario", "smooth", "--scheme", "Euler1,RK2", "--interp", "weno23",
            "--eps", "1", "--nx", "16", "--levels", "2", "--tfinal", "0.04",
            "--out", str(out),
        ],
        capsys,
    )
    assert code == 0
    _, header, rows = _read_csv(out)
    assert header == ["scheme", "nx", "cpu_seconds", "err_L1_rho"]
    assert [r[0] for r in rows] == ["Euler1W23", "Euler1W23", "RK2W23", "RK2W23"]
    assert [r[1] for r in rows] == ["16", "32", "16", "32"]


def test_console_entry_point_runs():
    """The installed module is runnable as a subprocess (python -m)."""
    proc = subprocess.run(
        [
            sys.executable, "-m", "bgk_sl.cli",
            "run", "--scenario", "smooth", "--scheme", "Euler1",
            "--eps", "1", "--nx", "16", "--tfinal", "0.02",
        ],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "x,rho,u,T,E"

UNIFORM_SCENARIO = {
    "name": "still",
    "model": "1v",
    "domain": [0.0, 1.0],
    "boundary": "periodic",
    "nv": 8,
    "vmax": 6.0,
    "cfl": 1.0,
    "t_final": 0.01,
    "initial": {"kind": "uniform", "rho": 1.0, "u": 0.0, "T": 1.0},
}


@pytest.mark.parametrize(
    "scenario, message",
    [
        ({**UNIFORM_SCENARIO, "initial": {"kind": "uniform", "rho": 1}}, "'u'"),
        ({**UNIFORM_SCENARIO, "nv": "abc"}, "'nv'"),
        ({"base": "smooth", "nv": "abc"}, "'nv'"),
        ({**UNIFORM_SCENARIO, "vmax": [6.0]}, "'vmax'"),
        ({"base": "smooth", "t_final": None}, "'t_final'"),
        ({**VACUUM_SCENARIO, "initial": {"kind": "riemann", "left": 1.0, "right": [1, 0, 1]}},
         "riemann"),
        ({**VACUUM_SCENARIO, "initial": {"kind": "riemann", "left": [1, 0, "x"],
                                         "right": [1, 0, 1]}}, "riemann"),
        ({**UNIFORM_SCENARIO, "initial": {"kind": "uniform", "rho": 1, "u": 0, "T": 0}},
         "T > 0"),
        ({**UNIFORM_SCENARIO, "initial": {"kind": "uniform", "rho": 1, "u": 0, "T": -1}},
         "T > 0"),
        ({**VACUUM_SCENARIO, "initial": {"kind": "riemann", "left": [-1, 0, 1],
                                         "right": [1, 0, 1]}}, "rho > 0"),
        ({**VACUUM_SCENARIO, "initial": {"kind": "riemann", "left": [1, 0, 1],
                                         "right": [1, 0, 0]}}, "riemann"),
    ],
)
def test_mistyped_scenario_json_is_config_error(tmp_path, capsys, scenario, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(scenario))
    code, out, err = _run_inprocess(
        ["run", "--scenario", str(path), "--scheme", "Euler1", "--eps", "1", "--nx", "8"],
        capsys,
    )
    assert code == 2 and out == ""
    assert err.startswith("config error:") and message in err
    assert len(err.strip().splitlines()) == 1

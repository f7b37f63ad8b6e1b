"""Command-line interface: subcommands, config files, CSV output, exit codes."""
import csv
import json
import math
import subprocess
import sys

import pytest

from bgk_sl import ConfigError, harness, with_overrides
from bgk_sl.cli import _COLUMNS, main


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


@pytest.mark.parametrize("token", ["RK9", "LatRK2", "LatEuler", "LatBDF3"])
def test_unknown_scheme_is_config_error(capsys, token):
    code, _, err = _run_inprocess(
        ["run", "--scenario", "smooth", "--scheme", token, "--eps", "1", "--nx", "16"],
        capsys,
    )
    assert code == 2
    assert err.splitlines() == [
        f"config error: unknown integrator {token!r} "
        "(choose one of Euler1|RK2|RK3|BDF2|BDF3)"
    ]


@pytest.mark.parametrize(
    "args, names",
    [
        (["--vmax", "inf"], "vmax"),
        (["--scenario", "{path}"], "domain"),
    ],
)
def test_non_finite_grid_input_is_config_error(tmp_path, capsys, args, names):
    """An infinite vmax or domain end exits 2 with one line that names it,
    not with a step-size error."""
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"base": "smooth", "domain": [0, "inf"]}))
    args = [a.format(path=path) for a in args]
    code, out, err = _run_inprocess(
        ["run", "--scenario", "smooth", "--scheme", "RK2", "--eps", "1", "--nx", "16", *args],
        capsys,
    )
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and names in err and "finite" in err


def test_lattice_with_interp_runs_its_integrator_with_that_interp(tmp_path, capsys):
    """--scheme Euler1 --interp weno23 --cfl lattice is Euler1 + weno23 at the
    lattice step."""
    out = tmp_path / "lat.csv"
    code, _, err = _run_inprocess(
        [
            "run", "--scenario", "smooth", "--scheme", "Euler1", "--interp", "weno23",
            "--cfl", "lattice", "--eps", "1", "--nx", "16", "--tfinal", "0.02", "--seed-meta",
            "--out", str(out),
        ],
        capsys,
    )
    assert code == 0, err
    comments, header, rows = _read_csv(out)
    assert "# interp=weno23" in comments and "# scheme=Euler1W23" in comments
    assert "# cfl_requested=lattice" in comments and "# cfl_actual=20" in comments
    assert header == ["x", "rho", "u", "T", "E"] and len(rows) == 17


def test_interp_none_is_unknown(capsys):
    code, _, err = _run_inprocess(
        [
            "run", "--scenario", "smooth", "--scheme", "Euler1", "--interp", "none",
            "--eps", "1", "--nx", "16",
        ],
        capsys,
    )
    assert code == 2
    assert err.splitlines() == [
        "config error: unknown interpolation 'none' (choose one of linear|weno23|weno35)"
    ]


def test_help_lists_every_scheme_token_and_interpolation(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")  # one help line per option
    with pytest.raises(SystemExit):
        main(["run", "--help"])
    out = capsys.readouterr().out
    assert "integrator: Euler1|RK2|RK3|BDF2|BDF3\n" in out
    assert "CFL number, or lattice for dt = dx/dv\n" in out
    assert "interpolation: linear|weno23|weno35\n" in out and "|none" not in out


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


@pytest.mark.parametrize("command", ["run", "cfl-sweep"])
def test_config_key_that_is_not_a_flag_of_the_command_exits_2(tmp_path, capsys, command):
    """levels is a flag of converge and cost only: a run or a sweep refuses it
    in a config file rather than ignore it."""
    cfg = tmp_path / "cfg.json"
    config = {"scenario": "equilibrium", "scheme": "Euler1", "eps": 1, "nx": 8, "cfl": 2}
    cfg.write_text(json.dumps({**config, "levels": 3}))
    code, out, err = _run_inprocess([command, "--config", str(cfg)], capsys)
    assert (code, out) == (2, "")
    assert err == "config error: unknown config keys: ['levels']\n"


@pytest.mark.parametrize("command", ["run", "converge", "cfl-sweep", "cost"])
def test_every_flag_of_a_command_is_a_config_key(tmp_path, capsys, command):
    out = tmp_path / "out.csv"
    config = {
        "scenario": "smooth", "scheme": "Euler1", "interp": "linear", "bc": "periodic",
        "eps": 1, "nx": 8, "nv": 8, "vmax": 8, "cfl": 2, "tfinal": 0.01,
        "out": str(out), "seed_meta": True,
    }
    if command in ("converge", "cost"):
        config["levels"] = 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, _, err = _run_inprocess([command, "--config", str(cfg)], capsys)
    assert code == 0, err
    assert _read_csv(out)[1] == _COLUMNS[command]


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


def test_numerical_failure_prints_one_line_and_no_numpy_warnings():
    """An unresolved Chu velocity grid overflows in the WENO blend before the
    stepper finds the NaN density: the CLI reports it in one line, with none
    of numpy's overflow warnings on stderr (run as a subprocess, since the
    suite turns warnings into errors)."""
    proc = subprocess.run(
        [
            sys.executable, "-m", "bgk_sl.cli",
            "run", "--scenario", "riemann-chu", "--nv", "4", "--scheme", "RK2",
            "--eps", "1e-6", "--nx", "80",
        ],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 3
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("numerical failure:"), proc.stderr


@pytest.mark.parametrize(
    "args, header, n_rows",
    [
        (["converge", "--scheme", "RK2", "--eps", "1e-4", "--nx", "40", "--levels", "2"],
         "eps,nx,err_L1_rho,order", 0),
        (["converge", "--scheme", "RK2", "--eps", "1e-2,1e-4", "--nx", "40", "--levels", "2"],
         "eps,nx,err_L1_rho,order", 1),
        (["cost", "--scheme", "Euler1,RK2", "--eps", "1e-4", "--nx", "20", "--levels", "2"],
         "scheme,nx,wall_seconds,err_L1_rho", 2),
    ],
)
def test_failed_study_flushes_its_own_table(tmp_path, capsys, args, header, n_rows):
    """RK2 at CFL 90 fails on the 1v shock tube at eps = 1e-4 (negative T in
    its first step: the DIRK's negative weight on f at large CFL); the study's
    table keeps its own header and the rows that finished before the failure,
    then the failure trailer."""
    out = tmp_path / "study.csv"
    code, _, err = _run_inprocess(
        args + ["--scenario", "riemann", "--cfl", "90", "--out", str(out)], capsys
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
    assert header == ["scheme", "nx", "wall_seconds", "err_L1_rho"]
    assert [r[0] for r in rows] == ["Euler1W23", "Euler1W23", "RK2W23", "RK2W23"]
    assert [r[1] for r in rows] == ["16", "32", "16", "32"]


@pytest.mark.parametrize(
    "args, code",
    [
        (["run", "--nx", "16"], 0),
        (["converge", "--nx", "16", "--levels", "2"], 0),
        (["cost", "--nx", "16", "--levels", "2"], 0),
        (["cfl-sweep", "--nx", "16"], 2),
    ],
    ids=["run", "converge", "cost", "cfl-sweep"],
)
def test_cfl_lattice_is_a_step_size(tmp_path, capsys, args, code):
    """--cfl lattice marches at dt = dx/dv in every command but cfl-sweep,
    which adjusts each CFL so that dt divides t_final and so refuses it."""
    out = tmp_path / "lat.csv"
    got, _, err = _run_inprocess(
        [*args, "--scenario", "smooth", "--scheme", "BDF2", "--eps", "1", "--tfinal", "0.3",
         "--cfl", "lattice", "--out", str(out)],
        capsys,
    )
    assert got == code, err
    if code == 2:
        assert err == "config error: 'cfl' expects float, got 'lattice'\n"
        assert not out.exists()


RUN_BASE = {"scenario": "smooth", "scheme": "RK2", "eps": "1", "nx": "16", "tfinal": "0.02"}


@pytest.mark.parametrize(
    "command, key, flag, number",
    [
        ("run", "eps", "0.5", 0.5),
        ("run", "nx", "24", 24),
        ("run", "nv", "20", 20.0),  # an integral JSON float is an integer
        ("run", "vmax", "8", 8),
        ("run", "cfl", "2.5", 2.5),
        ("run", "tfinal", "0.03", 0.03),
        ("converge", "levels", "3", 3),
        ("converge", "eps", "1,0.5", [1, 0.5]),
        ("cfl-sweep", "cfl", "2,8", [2, 8]),
    ],
)
def test_numeric_option_as_flag_or_json_number_writes_the_same_csv(
    tmp_path, capsys, command, key, flag, number
):
    """A number given as a flag and as a JSON number in --config is the same
    value: both pass through the one converter."""
    opts = {**RUN_BASE, "levels": "2"} if command == "converge" else dict(RUN_BASE)
    opts.pop(key, None)
    args = [command, *(tok for k, v in opts.items() for tok in (f"--{k}", v))]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: number}))
    tables = []
    for extra in ([f"--{key}", flag], ["--config", str(cfg)]):
        code, out, err = _run_inprocess([*args, *extra], capsys)
        assert code == 0, err
        tables.append(out)
    assert tables[0] == tables[1]


STILL_RUN = {"scheme": "Euler1", "eps": 1, "nx": 8}


@pytest.mark.parametrize(
    "config, still, message",
    [
        pytest.param({"vmax": True}, {}, "'vmax' expects float, got True", id="vmax-true"),
        pytest.param({"cfl": True}, {}, "'cfl' expects float, got True", id="cfl-true"),
        pytest.param({"eps": False}, {}, "'eps' expects float, got False", id="eps-false"),
        pytest.param({"nx": True}, {}, "'nx' expects int, got True", id="nx-true"),
        pytest.param({"nv": "20.0"}, {}, "'nv' expects int, got '20.0'", id="nv-string-fraction"),
        pytest.param({"seed_meta": "false"}, {}, "'seed_meta' expects bool, got 'false'",
                     id="seed_meta-string"),
        pytest.param({"out": 1}, {}, "'out' expects str, got 1", id="out-number"),
        pytest.param({}, {"base": "smooth", "nv": True}, "'nv' expects int, got True",
                     id="scenario-nv-true"),
        pytest.param({}, {"base": "smooth", "domain": [False, True]}, "domain must be [x0, x1]",
                     id="scenario-domain-bools"),
        pytest.param({}, {"initial": {"kind": "uniform", "rho": True, "u": 0, "T": 1}},
                     "'rho' expects float, got True", id="scenario-rho-true"),
    ],
)
def test_option_of_the_wrong_type_exits_2_with_one_line(tmp_path, config, still, message):
    """A boolean is never a number, a config file's seed_meta is a JSON
    boolean and its out a string; each mistyped value exits 2 with one line
    and no output.  Run as a subprocess: at worst a bad out would close the
    runner's own stdout."""
    scenario = tmp_path / "still.json"
    scenario.write_text(json.dumps(still if "base" in still else {**UNIFORM_SCENARIO, **still}))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**STILL_RUN, "scenario": str(scenario), **config}))
    proc = subprocess.run(
        [sys.executable, "-m", "bgk_sl.cli", "run", "--config", str(cfg)],
        capture_output=True, text=True, timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("config error: ")
    assert message in proc.stderr


@pytest.mark.parametrize("override", ["nv", "vmax", "cfl", "t_final"])
def test_api_refuses_a_bool_as_a_number(override):
    with pytest.raises(ConfigError, match=f"'{override}' expects"):
        with_overrides("smooth", **{override: True})


@pytest.mark.parametrize("nx", ["16", "2000"])
def test_closed_stdout_ends_quietly_with_exit_1(nx):
    """A reader that closes the pipe at once (as `| head -1` does) ends the
    run with exit code 1 and nothing on stderr, whether the table fills the
    stdout buffer or only reaches the pipe at the last flush."""
    with subprocess.Popen(
        [sys.executable, "-m", "bgk_sl.cli", "run", "--scenario", "smooth", "--scheme",
         "Euler1", "--eps", "1e-2", "--nx", nx, "--tfinal", "0.001"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    ) as proc:
        proc.stdout.close()
        err = proc.stderr.read()
    assert (proc.returncode, err) == (1, "")


@pytest.mark.parametrize(
    "argv, names",
    [([], "command"), (["run", "--nx"], "--nx"), (["run", "--bogus", "1"], "--bogus 1")],
    ids=["no-command", "missing-value", "unknown-flag"],
)
def test_argument_error_is_one_config_error_line(capsys, argv, names):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    err = capsys.readouterr().err
    assert exit_info.value.code == 2
    assert len(err.splitlines()) == 1 and err.startswith("config error: ") and names in err


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
        # json writes NaN, which Python's json reads back
        ({**VACUUM_SCENARIO, "initial": {**VACUUM_SCENARIO["initial"], "x_jump": math.nan}},
         "x_jump"),
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

"""The README's Python API names resolve, its scheme table lists the scheme
tokens and its command lines run: stale docs fail here."""
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import bgk_sl
from bgk_sl.cli import _COLUMNS

README = Path(__file__).resolve().parents[1] / "README.md"


def _section(title: str) -> str:
    text = README.read_text(encoding="utf-8")
    match = re.search(rf"^## {title}\n(.*?)(?=^## )", text, re.M | re.S)
    assert match, f"README.md has no {title!r} section"
    return match.group(1)


def test_python_api_names_are_exported():
    section = _section("Python API")
    imports = re.findall(r"^from bgk_sl import (.+)$", section, re.M)
    pieces = re.search(r"Lower-level pieces \((.*?)\)", section, re.S)
    assert imports and pieces
    names = [n.strip() for line in imports for n in line.split(",")]
    names += re.findall(r"`(\w+)`", pieces.group(1))
    assert len(names) >= 4
    missing = [n for n in names if not hasattr(bgk_sl, n)]
    assert not missing, f"README names not exported by bgk_sl: {missing}"


def test_scheme_table_lists_every_scheme_token():
    rows = re.findall(r"^\| `(\w+)`\s*\|.*\| `(\w+)`\s*\|$", _section("Numerical schemes"), re.M)
    assert rows == [(m.value, ip.value) for m, ip in bgk_sl.DEFAULT_INTERP.items()]


def _command_lines() -> list[list[str]]:
    """The arguments of each `bgk-sl` line of the "Command line" block."""
    block = re.search(r"```bash\n(.*?)```", _section("Command line"), re.S)
    assert block, "README.md has no bash block under 'Command line'"
    lines = block.group(1).replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("bgk-sl ")]


def _params():
    for args in _command_lines():
        lattice = "lattice" in args
        marks = ()
        if args[0] == "cost" and lattice:
            marks = pytest.mark.xfail(
                strict=True,
                reason="its nx = 320 BDF3 + weno35 reference run reaches T < 0 at step 10, "
                "node 214 (ROADMAP item 1: positivity)",
            )
        yield pytest.param(args, id=args[0] + ("-lattice" if lattice else ""), marks=marks)


@pytest.mark.parametrize("args", _params())
def test_readme_command_runs(tmp_path, args):
    """Each README command exits 0 and writes its command's header."""
    out = tmp_path / "out.csv"
    if "--out" in args:
        args = args[: args.index("--out")] + args[args.index("--out") + 2 :]
    proc = subprocess.run(
        [sys.executable, "-m", "bgk_sl.cli", *args, "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.read_text(encoding="utf-8").splitlines()[0] == ",".join(_COLUMNS[args[0]])


def test_readme_lists_each_command():
    assert sorted({args[0] for args in _command_lines()}) == sorted(_COLUMNS)

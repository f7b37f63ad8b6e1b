"""The README's Python API names resolve and its scheme table lists the
scheme tokens: stale docs fail here."""
import re
from pathlib import Path

import bgk_sl

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
    tokens = re.findall(r"^\| `(\w+)`\s*\|", _section("Numerical schemes"), re.M)
    assert tokens == list(bgk_sl.SCHEMES)

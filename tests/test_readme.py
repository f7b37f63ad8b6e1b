"""The README's Python API names resolve: stale docs fail here."""
import re
from pathlib import Path

import bgk_sl

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_api_section() -> str:
    text = README.read_text(encoding="utf-8")
    match = re.search(r"^## Python API\n(.*?)(?=^## )", text, re.M | re.S)
    assert match, "README.md has no 'Python API' section"
    return match.group(1)


def test_python_api_names_are_exported():
    section = _python_api_section()
    imports = re.findall(r"^from bgk_sl import (.+)$", section, re.M)
    pieces = re.search(r"Lower-level pieces \((.*?)\)", section, re.S)
    assert imports and pieces
    names = [n.strip() for line in imports for n in line.split(",")]
    names += re.findall(r"`(\w+)`", pieces.group(1))
    assert len(names) >= 4
    missing = [n for n in names if not hasattr(bgk_sl, n)]
    assert not missing, f"README names not exported by bgk_sl: {missing}"

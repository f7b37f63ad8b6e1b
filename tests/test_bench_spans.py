"""The benchmark's traced mode patches layer functions by name; they must exist.

bench/spans.py is loaded from its file, read-only, and never installed: a
refactor that renames or moves a patched function fails here instead of
breaking `python3 bench/run.py --trace 1`.
"""
import importlib.util
from pathlib import Path

import bgk_sl

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_function_exists():
    targets = _spans_module()._targets(bgk_sl)
    assert targets
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _, _ in targets
        if not callable(getattr(owner, attr, None))
    ]
    assert not missing, f"bench/spans.py patches missing functions: {missing}"

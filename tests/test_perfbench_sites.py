"""Every package name the benchmark tracer wraps must exist.

`perfbench/run.py --trace 1` and `--self-check` patch each (module,
attribute) of `perfbench/tracer.py` SITES with getattr; a refactor that
drops one of those names breaks the traced benchmark, so it fails here.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_sites_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        f"{mod}.{attr}"
        for mod, attr, _ in tracer.SITES
        if not hasattr(importlib.import_module(f"apparition.{mod}"), attr)
    ]
    assert tracer.SITES and not missing

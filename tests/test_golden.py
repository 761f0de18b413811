"""Golden conformance: the CLI's and demos' outputs match recorded digests.

The digests live in ``tests/golden/digests.json``; after an intended
output change, ``python tests/golden/generate.py`` rewrites them.
"""

import importlib.util
import json
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"


def test_outputs_match_golden_digests():
    spec = importlib.util.spec_from_file_location("golden_generate",
                                                  GOLDEN / "generate.py")
    generate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generate)
    want = json.loads((GOLDEN / "digests.json").read_text())
    got = generate.compute()
    assert sorted(got) == sorted(want)
    changed = [name for name in sorted(want) if got[name] != want[name]]
    assert changed == [], f"outputs differ from the golden digests: {changed}"

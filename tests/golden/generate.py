"""Golden conformance digests of the command line's and demos' outputs.

    python tests/golden/generate.py      # rewrite tests/golden/digests.json

Each entry is the SHA-256 of one output: the ``encode`` stream, and the
``decode --user 1`` / ``--user 2`` recovered file, stdout and log CSV, of
a 600-slot random stream with 40 random bursts, at seeds 7 and 1009, for
four DE-SCo codecs; ``verify`` stdout for three codecs; the seed-7
``simulate`` CSV of the paper's loss-curve run; and the output of
``demos/golden_tables.py``.  ``tests/test_golden.py`` recomputes them, so
an intended change of any output is recorded by running this script.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import runpy
import sys
import tempfile
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parents[2]
DIGESTS = Path(__file__).resolve().parent / "digests.json"

# (b1, t1, a, b): alpha = a/b
ROUNDTRIP_CODECS = [(2, 5, 2, 1), (1, 2, 2, 1), (4, 10, 5, 2), (2, 3, 3, 2)]
VERIFY_CODECS = [(3, 8, 3, 1), (4, 10, 5, 2), (2, 3, 3, 2)]
SEEDS = (7, 1009)
SLOTS = 600
BURSTS = 40
SIMULATE = ["simulate", "--b1", "1", "--t1", "2", "--alpha-num", "2",
            "--bmax-list", "0,1,2,3,4,5,6,7,8", "--segment-len", "100",
            "--segments", "10000", "--seed", "7",
            "--schemes", "desco,ia,rlc"]


def sha(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def run_cli(argv: List[str]) -> str:
    """stdout of one in-process CLI command; a non-zero exit is an error."""
    from streamfec import cli

    out = io.StringIO()
    code = cli.main(argv, out=out)
    if code != 0:
        raise RuntimeError(f"{argv[0]} exited {code}")
    return out.getvalue()


def roundtrip(work: Path, spec, seed: int) -> Dict[str, str]:
    """Digests of one encode and the two users' decodes."""
    from streamfec.desco import DeScoCodec, DeScoParams, descriptor

    b1, t1, a, b = spec
    codec = DeScoCodec(DeScoParams(b1, t1, a, b))
    rng = random.Random(seed)
    order = codec.field.order
    width = codec.field.dtype.itemsize
    source = bytearray()
    for _ in range(SLOTS * codec.subs_per_slot):
        source += rng.randrange(order).to_bytes(width, "big")
    longest = codec.params.b2 + 2  # some bursts beat the weak user
    bursts = []
    for _ in range(BURSTS):
        start = rng.randrange(SLOTS)
        bursts.append((start, min(rng.randint(1, longest), SLOTS - start)))
    files = {k: str(work / f"{k}-{seed}") for k in
             ("codec", "src", "stream", "pattern", "rec", "log")}
    Path(files["codec"]).write_text(descriptor(codec))
    Path(files["src"]).write_bytes(bytes(source))
    Path(files["pattern"]).write_text(
        "".join(f"{s}:{n}\n" for s, n in bursts))
    name = f"({b1},{t1},{a}/{b}) seed {seed}"
    run_cli(["encode", "--descriptor", files["codec"], "--in", files["src"],
             "--out", files["stream"]])
    out = {f"{name} encode stream": sha(Path(files["stream"]).read_bytes())}
    for user in (1, 2):
        stdout = run_cli(["decode", "--descriptor", files["codec"],
                          "--in", files["stream"], "--pattern", files["pattern"],
                          "--user", str(user), "--out", files["rec"],
                          "--log", files["log"]])
        key = f"{name} decode user {user}"
        out[f"{key} recovered"] = sha(Path(files["rec"]).read_bytes())
        out[f"{key} stdout"] = sha(stdout)
        out[f"{key} log"] = sha(Path(files["log"]).read_bytes())
    return out


def compute() -> Dict[str, str]:
    """Every golden digest, by output name."""
    digests: Dict[str, str] = {}
    with tempfile.TemporaryDirectory() as tmp:
        for spec in ROUNDTRIP_CODECS:
            for seed in SEEDS:
                digests.update(roundtrip(Path(tmp), spec, seed))
    for b1, t1, a, b in VERIFY_CODECS:
        digests[f"({b1},{t1},{a}/{b}) verify stdout"] = sha(run_cli(
            ["verify", "--b1", str(b1), "--t1", str(t1),
             "--alpha-num", str(a), "--alpha-den", str(b)]))
    digests["simulate seed 7 csv"] = sha(run_cli(SIMULATE))
    demo = io.StringIO()
    with contextlib.redirect_stdout(demo):
        runpy.run_path(str(ROOT / "demos" / "golden_tables.py"),
                       run_name="__main__")
    digests["demos/golden_tables.py stdout"] = sha(demo.getvalue())
    return digests


def main() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    DIGESTS.write_text(json.dumps(compute(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}")


if __name__ == "__main__":
    main()

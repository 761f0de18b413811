"""The benchmark's traced run still finds every layer it wraps.

``bench/run.py --trace 1`` wraps layer functions at the names their
callers look up.  A rename in ``streamfec`` breaks that silently until
the benchmark's own self-test runs; this test loads the harness
read-only and checks its patches against the package.
"""

import importlib.util
import io
import sys
from collections import Counter
from pathlib import Path

from streamfec import cli
from streamfec.channel import apply, single_burst
from streamfec.desco import DeScoCodec, DeScoParams

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"


def load(name, module_name):
    spec = importlib.util.spec_from_file_location(module_name,
                                                  BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_patches_reach_every_layer(monkeypatch):
    path_before = list(sys.path)
    # run.py imports these two by their bare names
    for name in ("hostspeed", "tracing"):
        monkeypatch.setitem(sys.modules, name, load(name, name))
    tracing = sys.modules["tracing"]
    run = load("run", "bench_run")

    tracer = tracing.Tracer()
    counts = Counter()
    patches = (run.span_patches(tracer)
               + run.probe_patches(counts, tracing.PeakMemory()))
    originals = [vars(owner)[attr] for owner, attr, _ in patches]
    with tracing.patched(patches):
        for (owner, attr, _), original in zip(patches, originals):
            assert vars(owner)[attr] is not original, (owner, attr)
        codec = DeScoCodec(DeScoParams(1, 2, 2))
        source = [[k % 4, (k * 3) % 4] for k in range(30)]
        stream = codec.encode_stream(source)
        recovered, log = codec.decode(
            apply(single_burst(10, 2, len(stream)), stream), 2)
        tracer.run_id = 1
        out = io.StringIO()
        assert cli.main(["verify", "--b1", "1", "--t1", "2",
                         "--alpha-num", "2"], out=out) == 0, out.getvalue()
    for (owner, attr, _), original in zip(patches, originals):
        assert vars(owner)[attr] is original, (owner, attr)

    assert [list(map(int, slot)) for slot in recovered] == source
    assert log.misses == []
    recorded = {tracer.names[nid] for nid in tracer.span_name}
    assert {"cli", "desco.build", "desco.encode_stream", "desco.decode",
            "decoder.staged_decode", "desco.burst_decode"} <= recorded
    assert tracer.counts[0]["decoder.slots_in"] == len(stream)
    assert counts["gf.mul"] > 0
    assert sys.path == path_before

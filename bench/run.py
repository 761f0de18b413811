#!/usr/bin/env python3
"""streamfec benchmark: three closed-loop workloads driven through the CLI.

    python3 bench/run.py --workload stream_roundtrip --seed 7 --seconds 36 --trace 0

One run is one fresh, single-threaded process with one client.  The
client calls ``streamfec.cli.main(argv)`` in-process and sends the next
command only after the previous one returned, on inputs generated from
``--seed``.  It repeats the workload's commands while another iteration
fits in ``--seconds``.  Every
command's output is checked; a failed check or a crash is a failed
operation, never a harness crash.

Each command is bracketed by the reference loop of ``hostspeed.py``, and
``--trace 0`` reports its times at the reference speed, so that a host
that slows down for minutes does not move the figures.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` wraps each
layer's public functions (see ``tracing.py``) and prints the per-layer
metrics with the tracing overhead.  Either way the last stdout line is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  See ``README.md`` for why each workload exists.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import Counter, defaultdict
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from hostspeed import at_reference_speed, reference_seconds

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

DEFAULT_SEED = 7
# Never used while the benchmark was written; timings on it must fall
# within the bounds of the default seed's (see README.md).
HELD_OUT_SEED = 1009
# Cold set-ups per untraced run: this many after each iteration, and at
# least SETUP_PROBES in all.
PROBES_PER_ROUND = 2
SETUP_PROBES = 11
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SIZES = {
    "full": {"slots": 40_000, "segments": 10_000,
             "verify": [(3, 8, 3, 1), (4, 10, 5, 2), (2, 3, 3, 2)]},
    # for the self-test only
    "tiny": {"slots": 2_000, "segments": 200, "verify": [(2, 3, 3, 2)]},
}


# -- the client --------------------------------------------------------


class Client:
    """One closed-loop client: runs CLI commands and books each outcome."""

    MAX_REPORTS = 5

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.seconds: Dict[str, float] = defaultdict(float)
        self.scaled: Dict[str, float] = defaultdict(float)

    def iteration(self, workload) -> Dict[str, float]:
        """Run the workload's commands once; seconds spent per command.

        ``self.scaled`` then holds the same at the reference speed.
        """
        self.seconds = defaultdict(float)
        self.scaled = defaultdict(float)
        workload.iteration(self)
        return dict(self.seconds)

    def run(self, label: str, argv: List[str],
            check: Callable[[str], Optional[str]]) -> bool:
        """Time ``cli.main(argv)``, then check its output outside the timing."""
        from streamfec import cli

        self.attempted += 1
        out = io.StringIO()
        problem = None
        before = reference_seconds()
        start = perf_counter()
        try:
            code = cli.main(argv, out=out)
        except Exception:
            code = None
            problem = "raised " + traceback.format_exc(limit=3)
        elapsed = perf_counter() - start
        self.seconds[label] += elapsed
        self.scaled[label] += at_reference_speed(elapsed, before,
                                                 reference_seconds())
        if problem is None and code != 0:
            problem = f"exit code {code}"
        if problem is None:
            try:
                problem = check(out.getvalue())
            except Exception:
                problem = "check raised " + traceback.format_exc(limit=3)
        if problem is not None:
            self.failed += 1
            if self.failed <= self.MAX_REPORTS:
                print(f"FAILED {label}: {problem}", file=sys.stderr)
        return problem is None


# -- workloads ---------------------------------------------------------


class StreamRoundtrip:
    """CLI ``encode`` then ``decode --user 2`` of a random DE-SCo stream.

    DE-SCo (b1=2, t1=5, alpha=2) over GF(2^3): 5 source and 2 parity
    elements per slot, one byte each on the wire.  The channel has one
    burst per 50-slot segment, of uniform length 0..4 at a uniform start.
    """

    name = "stream_roundtrip"
    B1, T1, ALPHA = 2, 5, 2
    B2, T2 = 4, 12
    SUBS, WIDTH = 5, 7
    SEGMENT, B_MAX = 50, 4
    # A burst with this many clean slots on each side is isolated: no
    # parity of this code spans that far (memory 5, shift 7, deadline 12).
    GUARD = 30

    @classmethod
    def codec_specs(cls, size: str) -> List[str]:
        return [f"desco:{cls.B1},{cls.T1},{cls.ALPHA},1"]

    def __init__(self, size: str, seed: int, work: Path, tamper: bool):
        from streamfec.desco import DeScoCodec, DeScoParams, descriptor

        codec = DeScoCodec(DeScoParams(self.B1, self.T1, self.ALPHA))
        if (codec.field.order, codec.subs_per_slot, codec.symbol_width,
                codec.user2_deadline) != (8, self.SUBS, self.WIDTH, self.T2):
            raise RuntimeError("codec layout differs from the benchmark's inputs")
        self.slots = SIZES[size]["slots"]
        self.tamper = tamper
        rng = random.Random(seed)
        low3 = bytes(v & 7 for v in range(256))
        self.source = rng.randbytes(self.slots * self.SUBS).translate(low3)
        self.runs = self._draw_bursts(rng)
        self.files = {k: str(work / f) for k, f in (
            ("codec", "codec.txt"), ("src", "source.bin"),
            ("stream", "stream.bin"), ("pattern", "pattern.txt"),
            ("rec", "recovered.bin"), ("log", "log.csv"))}
        Path(self.files["codec"]).write_text(descriptor(codec))
        Path(self.files["src"]).write_bytes(self.source)
        Path(self.files["pattern"]).write_text(
            "".join(f"{s}:{n}\n" for s, n in self.runs))
        self.miss_rates = (0.0, 0.0)

    def _draw_bursts(self, rng: random.Random) -> List[Tuple[int, int]]:
        """Erased runs (start, length); adjacent segments' bursts may merge."""
        erased: List[int] = []
        for seg in range(self.slots // self.SEGMENT):
            length = rng.randint(0, self.B_MAX)
            start = seg * self.SEGMENT + rng.randint(0, self.SEGMENT - length)
            erased.extend(range(start, start + length))
        runs: List[List[int]] = []
        for s in erased:
            if runs and s == runs[-1][0] + runs[-1][1]:
                runs[-1][1] += 1
            else:
                runs.append([s, 1])
        return [(s, n) for s, n in runs]

    def iteration(self, client: Client) -> None:
        f = self.files
        for key in ("stream", "rec", "log"):
            if os.path.exists(f[key]):
                os.remove(f[key])
        client.run("encode", ["encode", "--descriptor", f["codec"],
                              "--in", f["src"], "--out", f["stream"]],
                   self.check_encode)
        if self.tamper and os.path.exists(f["stream"]):
            self._tamper_parity()
        client.run("decode", ["decode", "--descriptor", f["codec"],
                              "--in", f["stream"], "--pattern", f["pattern"],
                              "--user", "2", "--out", f["rec"],
                              "--log", f["log"]],
                   self.check_decode)

    def _tamper_parity(self) -> None:
        """Flip one bit of a parity in the first received slot after a burst."""
        start, length = self.runs[0]
        offset = (start + length) * self.WIDTH + self.SUBS
        with open(self.files["stream"], "r+b") as fh:
            fh.seek(offset)
            byte = fh.read(1)[0]
            fh.seek(offset)
            fh.write(bytes([byte ^ 1]))

    def check_encode(self, text: str) -> Optional[str]:
        if text.strip() != f"encoded {self.slots} slots":
            return f"unexpected output {text!r}"
        stream = Path(self.files["stream"]).read_bytes()
        if len(stream) != self.slots * self.WIDTH:
            return f"stream has {len(stream)} bytes"
        w, k = self.WIDTH, self.SUBS
        systematic = b"".join(stream[i * w:i * w + k] for i in range(self.slots))
        if systematic != self.source:
            return "systematic part of the stream differs from the source"
        return None

    def check_decode(self, text: str) -> Optional[str]:
        rec = Path(self.files["rec"]).read_bytes()
        if len(rec) != self.slots * self.SUBS:
            return f"recovered file has {len(rec)} bytes"
        with open(self.files["log"], newline="") as fh:
            rows = list(csv.reader(fh))
        if rows[0] != ["slot", "recovery_slot", "delay", "miss"] \
                or len(rows) != self.slots + 1:
            return "decode log has the wrong header or length"
        erased = {s for start, n in self.runs for s in range(start, start + n)}
        delay: List[Optional[int]] = [None] * self.slots
        k = self.SUBS
        for slot, (col, rslot, d, _) in enumerate(rows[1:]):
            if int(col) != slot:
                return f"log row {slot} names slot {col}"
            got = rec[slot * k:(slot + 1) * k]
            want = self.source[slot * k:(slot + 1) * k]
            if rslot == "":
                if slot not in erased:
                    return f"received slot {slot} reported unrecovered"
                # Unrecovered sub-symbols are written as 0; the rest must be right.
                if any(g not in (0, w) for g, w in zip(got, want)):
                    return f"partly recovered slot {slot} has a wrong value"
                continue
            delay[slot] = int(d)
            if got != want:
                return f"slot {slot} recovered with a wrong value"
            if slot not in erased and delay[slot] != 0:
                return f"received slot {slot} reported with delay {d}"
        misses = []
        for deadline in (self.T1, self.T2):
            misses.append(sum(1 for d in delay if d is None or d > deadline))
        if text.strip() != f"decoded {self.slots} slots, {misses[1]} misses":
            return f"unexpected output {text!r}"
        problem = self._check_guarantee(delay)
        self.miss_rates = (misses[0] / self.slots, misses[1] / self.slots)
        return problem

    def _check_guarantee(self, delay: List[Optional[int]]) -> Optional[str]:
        """Isolated bursts within a user's design length meet its deadline."""
        runs = self.runs
        for i, (start, n) in enumerate(runs):
            before = start - (runs[i - 1][0] + runs[i - 1][1]) if i else start
            after = (runs[i + 1][0] if i + 1 < len(runs) else self.slots) - start - n
            if min(before, after) < self.GUARD:
                continue
            for b, deadline in ((self.B1, self.T1), (self.B2, self.T2)):
                if n > b:
                    continue
                for s in range(start, start + n):
                    if delay[s] is None or delay[s] > deadline:
                        return (f"isolated burst {start}:{n} missed the "
                                f"deadline {deadline} at slot {s}")
        return None


class VerifySweep:
    """``streamfec verify`` on three codecs, one command per codec.

    The sweep is exhaustive and has no random input; the seed only
    shuffles the order of the codecs in each iteration.
    """

    name = "verify_sweep"
    LINE = re.compile(r"user-(\d) max delay (\d+) \(target (\d+)\), misses (\d+)")

    @classmethod
    def codec_specs(cls, size: str) -> List[str]:
        return [f"desco:{b1},{t1},{a},{b}" for b1, t1, a, b in SIZES[size]["verify"]]

    def __init__(self, size: str, seed: int, work: Path, tamper: bool):
        self.codecs = list(SIZES[size]["verify"])
        self.rng = random.Random(seed)
        self.miss_rates = (0.0, 0.0)  # any miss fails the check

    def iteration(self, client: Client) -> None:
        order = list(self.codecs)
        self.rng.shuffle(order)
        for b1, t1, a, b in order:
            argv = ["verify", "--b1", str(b1), "--t1", str(t1),
                    "--alpha-num", str(a), "--alpha-den", str(b)]
            client.run("verify", argv,
                       lambda text, p=(b1, t1, a, b): self.check(text, *p))

    def check(self, text: str, b1: int, t1: int, a: int, b: int) -> Optional[str]:
        lines = text.strip().splitlines()
        if not lines or lines[-1] != "PASS":
            return f"verify ({b1},{t1},{a}/{b}) did not PASS: {text!r}"
        want = {1: t1, 2: math.ceil(Fraction(a, b) * t1) + b1}
        found = {}
        for m in self.LINE.finditer(text):
            user, worst, target, misses = map(int, m.groups())
            found[user] = (worst, target, misses)
        for user, deadline in want.items():
            if found.get(user) != (deadline, deadline, 0):
                return (f"verify ({b1},{t1},{a}/{b}) user {user}: "
                        f"got {found.get(user)}, want max delay {deadline}")
        return None


class LossCurve:
    """``streamfec simulate`` for (1,2,2): the paper's loss-curve run."""

    name = "loss_curve"
    BMAX = list(range(9))
    SCHEMES = ("desco", "ia", "rlc")
    SEGMENT_LEN = 100
    B1, B2 = 1, 2

    @classmethod
    def codec_specs(cls, size: str) -> List[str]:
        return ["desco:1,2,2,1", "ia:1,2,2"]

    def __init__(self, size: str, seed: int, work: Path, tamper: bool):
        self.seed = seed
        self.segments = SIZES[size]["segments"]
        golden = BENCH_DIR / "golden" / f"loss_curve_seed{DEFAULT_SEED}.csv"
        self.golden = (golden.read_text() if size == "full" and seed == DEFAULT_SEED
                       else None)
        self.first: Optional[str] = None
        self.miss_rates = (0.0, 0.0)

    def iteration(self, client: Client) -> None:
        argv = ["simulate", "--b1", "1", "--t1", "2", "--alpha-num", "2",
                "--bmax-list", ",".join(map(str, self.BMAX)),
                "--segment-len", str(self.SEGMENT_LEN),
                "--segments", str(self.segments), "--seed", str(self.seed),
                "--schemes", ",".join(self.SCHEMES)]
        client.run("simulate", argv, self.check)

    def check(self, text: str) -> Optional[str]:
        if self.golden is not None and text != self.golden:
            return "CSV differs from the golden file"
        if self.first is None:
            self.first = text
        elif text != self.first:
            return "CSV changed between iterations"
        rows = list(csv.DictReader(io.StringIO(text)))
        keys = [(int(r["b_max"]), r["scheme"], int(r["user"])) for r in rows]
        if keys != [(b, s, u) for b in self.BMAX for s in self.SCHEMES
                    for u in (1, 2)]:
            return "CSV rows are not one per (b_max, scheme, user)"
        total = self.segments * self.SEGMENT_LEN
        lost = {1: 0, 2: 0}
        for (b_max, scheme, user), r in zip(keys, rows):
            n = int(r["symbols_lost"])
            if int(r["symbols_total"]) != total or int(r["seed"]) != self.seed \
                    or float(r["loss_probability"]) != n / total:
                return f"inconsistent row {r}"
            if scheme == "desco":
                if n and b_max <= (self.B1 if user == 1 else self.B2):
                    return f"desco user {user} lost {n} symbols at b_max {b_max}"
                lost[user] += n
        symbols_per_user = total * len(self.BMAX)
        self.miss_rates = (lost[1] / symbols_per_user, lost[2] / symbols_per_user)
        return None


WORKLOADS = {w.name: w for w in (StreamRoundtrip, VerifySweep, LossCurve)}


# -- measurement -------------------------------------------------------


def setup_probe(workload_cls, size: str) -> Callable[[], Tuple[float, float]]:
    """One cold set-up in a fresh interpreter process.

    Returns its seconds, as measured and at the reference speed.
    """
    cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC),
           *workload_cls.codec_specs(size)]

    def probe() -> Tuple[float, float]:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=60,
                              check=False)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        seconds, reference = map(float, done.stdout.split())
        return seconds, at_reference_speed(seconds, reference, reference)
    return probe


def metric(value, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def time_left(start: float, seconds: float, last: float) -> bool:
    """Whether another round as long as the last one fits the budget."""
    return perf_counter() - start + last <= seconds


def untraced_run(workload, client: Client, seconds: float, start: float,
                 probe: Callable[[], Tuple[float, float]]) -> Dict[str, dict]:
    """Iterations alternate with cold set-up probes until the budget is spent.

    Alternating spreads the probes over the whole run.  A round's length,
    checks and probes included, decides whether another round fits.
    ``wall_s`` and ``setup_s`` are medians at the reference speed; the
    times as measured are printed on stderr.
    """
    walls: List[float] = []
    raw_walls: List[float] = []
    setups: List[Tuple[float, float]] = []
    last = 0.0
    while not walls or time_left(start, seconds, last):
        began = perf_counter()
        raw_walls.append(sum(client.iteration(workload).values()))
        walls.append(sum(client.scaled.values()))
        setups.extend(probe() for _ in range(PROBES_PER_ROUND))
        last = perf_counter() - began
    while len(setups) < SETUP_PROBES:
        setups.append(probe())
    raw_setups = [raw for raw, _ in setups]
    print(f"{len(walls)} iterations, wall_s as measured "
          f"{statistics.median(raw_walls):.4f} median, {min(raw_walls):.4f} "
          f"min; {len(setups)} set-ups, setup_s as measured "
          f"{statistics.median(raw_setups):.4f} median, "
          f"{min(raw_setups):.4f} min", file=sys.stderr)
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {"wall_s": metric(statistics.median(walls), "s"),
            "peak_rss_mib": metric(rss_mib, "MiB"),
            "setup_s": metric(statistics.median(s for _, s in setups), "s")}


def _add(name: str):
    def on_return(counts, args, result, _n=name):
        counts[_n] += len(result)
    return on_return


def _count_unpacked(counts, args, result):
    counts["wire.bytes"] += len(args[0])


def _count_decoded(counts, args, result):
    counts["decoder.slots_in"] += len(args[4])
    counts["decoder.recovered_subs"] += len(result[2])


def span_patches(tracer):
    """Where each layer's spans are recorded: the name its callers look up."""
    from streamfec import channel, cli, desco, oracle, sco, wire
    from streamfec.decoder import StreamLog
    from streamfec.desco import CombinedCodec, DeScoCodec
    from streamfec.gf import IncrementalSystem
    from streamfec.sco import ScoCodec

    s = tracer.span
    return [
        (cli, "main", s("cli")),
        (wire, "pack_stream", s("wire.pack", _add("wire.bytes"))),
        (wire, "unpack_stream", s("wire.unpack", _count_unpacked)),
        (cli, "parse_descriptor", s("desco.build")),
        (cli, "ia_sco_build", s("desco.build")),
        (DeScoCodec, "__init__", s("desco.build")),
        (CombinedCodec, "encode_stream", s("desco.encode_stream")),
        (CombinedCodec, "decode", s("desco.decode")),
        (desco, "burst_decode_log", s("desco.burst_decode")),
        (ScoCodec, "parity_value", s("sco.parity_value")),
        (sco, "make_burst_parity", s("bebc.make_burst_parity")),
        (desco, "staged_decode", s("decoder.staged_decode", _count_decoded)),
        (StreamLog, "misses", s("decoder.log_misses")),
        (IncrementalSystem, "add_equation", s("gf.add_equation")),
        (channel, "parse_pattern", s("channel.pattern")),
        (channel, "apply", s("channel.apply")),
        (channel, "draw_segment_burst", s("channel.draw_segment_burst")),
        (oracle, "rlc_burst_losses", s("oracle.rlc_burst_losses")),
    ]


def probe_patches(counts: Counter, peak):
    """Counters for the hottest calls, and memory of the decoder."""
    from streamfec import desco
    from streamfec.gf import GF
    from tracing import counter

    return [(GF, "mul", counter(counts, "gf.mul")),
            (GF, "inv", counter(counts, "gf.inv")),
            (desco, "staged_decode", peak.wrap)]


def traced_run(workload, client: Client, seconds: float, start: float,
               spans_path: Path) -> Dict[str, dict]:
    """Per-layer metrics; untraced and traced iterations alternate.

    The first iteration is a probe that only counts ``GF.mul``/``GF.inv``
    and takes the decoder's tracemalloc peak; both would swamp the span
    timings.  Span metrics are medians over the traced iterations.
    """
    from tracing import PeakMemory, Tracer, median_or_zero, patched, percentile

    probe_counts: Counter = Counter()
    peak = PeakMemory()
    with patched(probe_patches(probe_counts, peak)):
        client.iteration(workload)

    tracer = Tracer()
    plain: List[Dict[str, float]] = []
    traced_walls: List[float] = []
    last = 0.0
    while not traced_walls or time_left(start, seconds, last):
        began = perf_counter()
        plain.append(client.iteration(workload))
        tracer.run_id = len(traced_walls)
        with patched(span_patches(tracer)):
            traced_walls.append(sum(client.iteration(workload).values()))
        last = perf_counter() - began
    tracer.write(str(spans_path))

    runs = tracer.per_run()
    nruns = len(traced_walls)

    def med(name: str, field: str) -> float:
        return median_or_zero([runs[r][name][field] if name in runs[r] else 0
                               for r in range(nruns)])

    def secs(name: str) -> float:
        return med(name, "total")

    def calls(name: str) -> int:
        return int(med(name, "calls"))

    def count(key: str) -> int:
        return int(median_or_zero([tracer.counts[r][key] for r in range(nruns)]))

    def slots_per_s(label: str) -> float:
        times = [p[label] for p in plain if label in p]
        return workload.slots / statistics.median(times) if times else 0.0

    burst_us = [d * 1e6 for d in tracer.durations_of("desco.burst_decode")]
    plain_wall = statistics.median(sum(p.values()) for p in plain)
    traced_wall = statistics.median(traced_walls)
    m = {
        "cli.self_s": metric(med("cli", "self"), "s"),
        "cli.encode_slots_per_s": metric(slots_per_s("encode"), "1/s"),
        "cli.decode_slots_per_s": metric(slots_per_s("decode"), "1/s"),
        "wire.unpack_s": metric(secs("wire.unpack"), "s"),
        "wire.pack_s": metric(secs("wire.pack"), "s"),
        "wire.bytes": metric(count("wire.bytes"), "bytes"),
        "desco.build_s": metric(secs("desco.build"), "s"),
        "desco.encode_stream_s": metric(secs("desco.encode_stream"), "s"),
        "desco.decode_self_s": metric(med("desco.decode", "self"), "s"),
        "desco.burst_decode_calls": metric(calls("desco.burst_decode"), "count"),
        "desco.burst_decode_p50_us": metric(percentile(burst_us, 50), "us"),
        "desco.burst_decode_p99_us": metric(percentile(burst_us, 99), "us"),
        "sco.parity_value_calls": metric(calls("sco.parity_value"), "count"),
        "sco.parity_value_s": metric(secs("sco.parity_value"), "s"),
        "bebc.make_burst_parity_s": metric(secs("bebc.make_burst_parity"), "s"),
        "decoder.staged_decode_calls": metric(calls("decoder.staged_decode"), "count"),
        "decoder.staged_decode_s": metric(secs("decoder.staged_decode"), "s"),
        "decoder.slots_in": metric(count("decoder.slots_in"), "count"),
        "decoder.recovered_subs": metric(count("decoder.recovered_subs"), "count"),
        "decoder.log_misses_s": metric(secs("decoder.log_misses"), "s"),
        "decoder.peak_traced_mib": metric(peak.peak_bytes / 2**20, "MiB"),
        "decoder.user1_miss_rate": metric(workload.miss_rates[0], "fraction"),
        "decoder.user2_miss_rate": metric(workload.miss_rates[1], "fraction"),
        "gf.add_equation_calls": metric(calls("gf.add_equation"), "count"),
        "gf.add_equation_s": metric(secs("gf.add_equation"), "s"),
        "gf.mul_calls": metric(probe_counts["gf.mul"], "count"),
        "gf.inv_calls": metric(probe_counts["gf.inv"], "count"),
        "channel.pattern_s": metric(secs("channel.pattern"), "s"),
        "channel.apply_s": metric(secs("channel.apply"), "s"),
        "channel.draw_segment_burst_calls": metric(calls("channel.draw_segment_burst"), "count"),
        "channel.draw_segment_burst_s": metric(secs("channel.draw_segment_burst"), "s"),
        "oracle.rlc_burst_losses_calls": metric(calls("oracle.rlc_burst_losses"), "count"),
        "oracle.rlc_burst_losses_s": metric(secs("oracle.rlc_burst_losses"), "s"),
        "trace.wall_s": metric(traced_wall, "s"),
        "trace.overhead_s": metric(traced_wall - plain_wall, "s"),
    }
    print(f"{workload.name}: {nruns} traced iterations, traced wall "
          f"{traced_wall:.3f} s, untraced {plain_wall:.3f} s")
    print(f"{'span':32} {'total s':>9} {'self s':>9} {'share':>7} {'calls':>9}")
    for name in tracer.names:
        total, own = secs(name), med(name, "self")
        print(f"{name:32} {total:9.4f} {own:9.4f} {total / traced_wall:7.1%} "
              f"{calls(name):9d}")
    return m


def main(argv: Optional[List[str]] = None) -> int:
    start = perf_counter()  # the --seconds budget covers the whole run
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring budget (default: run_seconds in BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(SIZES), default="full",
                    help=argparse.SUPPRESS)
    ap.add_argument("--tamper", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds is None:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        args.seconds = spec["run_seconds"]

    if not (SRC / "streamfec" / "__init__.py").is_file():
        print(f"error: no streamfec sources under {SRC}", file=sys.stderr)
        return 2
    # One thread per process, the probes' included: numpy's BLAS would
    # otherwise start a thread per CPU when it is first imported.
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(BENCH_DIR))

    workload_cls = WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        workload = workload_cls(args.size, args.seed, work, args.tamper)
        client = Client()
        if args.trace:
            spans = ROOT / ".bench_work" / f"spans-{args.workload}.csv"
            metrics = traced_run(workload, client, args.seconds, start, spans)
        else:
            metrics = untraced_run(workload, client, args.seconds, start,
                                   setup_probe(workload_cls, args.size))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": client.failed == 0,
                      "attempted": client.attempted,
                      "failed": client.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Streaming codecs: single-user, and two-user diversity-embedded.

``CombinedCodec`` is the one codec class.  Its parity stream is the sum
of one or more component codes' parity streams, each delayed by its
shift; a single-user code (``sco_build``) is one component at shift 0.

A base streaming code C1 serves the strong receiver (burst b1, delay t1).
A second code C2 of the same rate family runs along reversed diagonals;
its parity stream is delayed by t1 + b1 slots and added onto C1's, so
the combined stream has exactly the width of a single-user stream.  The
strong receiver decodes as if C2 were absent, while a weak receiver
tolerating bursts up to b2 = alpha*b1 decodes with the minimum possible
delay ceil(alpha*t1) + b1.

Rational ratios alpha = a/b are handled by running the construction on a
pseudo-expanded clock with n expanded slots per stream slot, n chosen as
the smallest integer making n*alpha*t1 an integer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .bebc import BurstParityMatrix
from .decoder import (Component, StreamLog, encode_symbols, source_array,
                      staged_decode)
from .gf import GF, default_field
from .sco import MAIN, OFF, ScoCodec, ScoParams, Var, memory_bound


def optimal_delay(b: int, t: int, alpha: Fraction) -> int:
    """Minimum weak-receiver delay: alpha*t + b, rounded up if fractional."""
    alpha = Fraction(alpha)
    if alpha <= 1:
        raise ValueError("alpha must exceed 1")
    if (alpha * b).denominator != 1:
        raise ValueError("alpha * b must be an integer")
    return math.ceil(alpha * t + b)


def rate_upper_bound(b1: int, b2: int, t2: int, t1: Optional[int] = None) -> Fraction:
    """Largest rate any code with these burst/delay targets can achieve.

    High-delay regime (t2 >= t1 + b1, the default when t1 is omitted):
    1 - b2 / (b2 - b1 + t2).  If t1 is supplied and t2 < t1 + b1, the
    low-delay bound t1 / (t1 + b2) applies instead.
    """
    if b2 <= b1:
        raise ValueError("need b2 = alpha * b1 with alpha > 1")
    if t1 is not None and t2 < t1 + b1:
        return Fraction(t1, t1 + b2)
    return 1 - Fraction(b2, b2 - b1 + t2)


@dataclass(frozen=True)
class DeScoParams:
    """Two-user code parameters with ratio alpha = a/b (coprime, a > b >= 1)."""

    b1: int
    t1: int
    a: int
    b: int = 1

    def __post_init__(self):
        if not 1 <= self.b < self.a:
            raise ValueError("need a > b >= 1")
        if math.gcd(self.a, self.b) != 1:
            raise ValueError("a and b must be coprime")
        if not 1 <= self.b1 <= self.t1:
            raise ValueError("need 1 <= b1 <= t1")
        if self.b1 % self.b:
            raise ValueError("b1 must be divisible by b")

    @property
    def alpha(self) -> Fraction:
        return Fraction(self.a, self.b)

    @property
    def b2(self) -> int:
        return self.a * self.b1 // self.b

    @property
    def expansion(self) -> int:
        """Expanded slots per stream slot (1 when b divides t1)."""
        return self.b // math.gcd(self.b, self.t1)

    @property
    def delta(self) -> int:
        """Parity-stream shift in expanded slots."""
        return self.expansion * (self.t1 + self.b1)

    @property
    def t2_star(self) -> Fraction:
        return self.alpha * self.t1 + self.b1

    @property
    def user2_deadline(self) -> int:
        return math.ceil(self.t2_star)

    @property
    def rate(self) -> Fraction:
        return Fraction(self.t1, self.t1 + self.b1)


def source_expand(b1: int, t1: int, a: int, b: int) -> Tuple[DeScoParams, int]:
    """Pseudo-expansion: parameters on the n-times-faster clock, and n."""
    p = DeScoParams(b1, t1, a, b)
    n = p.expansion
    return DeScoParams(n * b1, n * t1, a, b), n


class CombinedCodec:
    """Streaming codec whose parity stream sums one or more component codes.

    A single-user code is one component at shift 0; the two-user codecs
    add a second component whose parities are delayed by its shift.
    Works on an expanded clock with ``expansion`` expanded slots per
    stream slot.  A channel symbol per stream slot is the concatenation
    of its expanded slots, each carrying ``t0`` source sub-symbols and
    ``b0`` combined parities.  ``deadlines[u - 1]`` is user u's delay
    target in stream slots.
    """

    def __init__(self, components: Sequence[Component], expansion: int,
                 deadlines: Sequence[int]):
        first = components[0].codec
        if any((c.codec.field, c.codec.t, c.codec.b)
               != (first.field, first.t, first.b) for c in components):
            raise ValueError("component codecs must share field and base size")
        self.components = list(components)
        self.expansion = expansion
        self.deadlines = tuple(deadlines)
        self.field = first.field
        self.t0 = first.t
        self.b0 = first.b
        # stream slots covering the widest template reach: a parity never
        # reads source older than this many slots back
        reach = max(comp.reach for comp in self.components)
        self.reach_slots = -(-reach // expansion)

    def deadline(self, user: int) -> int:
        """Delay target of ``user``; ValueError names the valid users."""
        if not 1 <= user <= len(self.deadlines):
            raise ValueError(f"user must be in 1..{len(self.deadlines)}")
        return self.deadlines[user - 1]

    @property
    def user2_deadline(self) -> int:
        return self.deadline(2)

    @property
    def subs_per_slot(self) -> int:
        return self.expansion * self.t0

    @property
    def parities_per_slot(self) -> int:
        return self.expansion * self.b0

    @property
    def symbol_width(self) -> int:
        return self.subs_per_slot + self.parities_per_slot

    # -- encoding -------------------------------------------------------

    def encode_stream(self, source: Sequence[Sequence[int]]) -> List[Tuple[int, ...]]:
        """Encode stream-slot source symbols (subs_per_slot values each)."""
        n, t0, b0 = self.expansion, self.t0, self.b0
        expanded = source_array(source, n * t0, self.field).reshape(-1, t0)
        sym = encode_symbols(self.components, self.field, expanded)
        return list(map(tuple, sym.reshape(len(source), n * (t0 + b0)).tolist()))

    def encode_step(self, history: Sequence[Sequence[int]],
                    s_now: Sequence[int]) -> Tuple[int, ...]:
        """encode_stream(history + [s_now])[-1], reading only the history
        slots that the current slot's parities reach (``reach_slots``)."""
        keep = self.reach_slots
        window = list(history[max(0, len(history) - keep):]) + [s_now]
        return self.encode_stream(window)[-1]

    # -- decoding -------------------------------------------------------

    def decode(self, received: Sequence[Optional[Sequence[int]]], user: int):
        """Decode for one user; users differ only in the miss deadline.

        Returns (stream, log) on the stream clock: stream[i] lists the
        subs_per_slot recovered sub-symbols (None where unrecovered), and
        the log's times are expressed in stream slots.
        """
        deadline = self.deadline(user)
        n, t0, b0 = self.expansion, self.t0, self.b0
        horizon = len(received)
        if n == 1:
            # the expanded clock is the stream clock
            values, times, trace = staged_decode(
                self.components, self.field, t0, b0, received)
            stream = [list(sym[:t0]) if sym is not None
                      else [values.get((i, k)) for k in range(t0)]
                      for i, sym in enumerate(received)]
        else:
            values, times, trace = staged_decode(
                self.components, self.field, t0, b0, self._expand(received))
            stream = [[values.get((i * n + r, k))
                       for r in range(n) for k in range(t0)]
                      for i in range(horizon)]
        log = StreamLog(horizon=horizon, n_subs=n * t0, deadline=deadline,
                        sub_times=self.stream_times(times), trace=trace)
        return stream, log

    def stream_times(self, times: Dict[Var, Optional[int]]
                     ) -> Dict[Var, Optional[int]]:
        """Map (expanded slot, sub) -> expanded time onto the stream clock;
        ``times`` itself at expansion 1."""
        n, t0 = self.expansion, self.t0
        if n == 1:
            return times
        return {(tau // n, (tau % n) * t0 + k): None if tm is None else tm // n
                for (tau, k), tm in times.items()}

    def _expand(self, received: Sequence[Optional[Sequence[int]]]
                ) -> List[Optional[Tuple[int, ...]]]:
        """Split each stream slot into its expanded slots."""
        n, t0, b0 = self.expansion, self.t0, self.b0
        expanded: List[Optional[Tuple[int, ...]]] = []
        for sym in received:
            if sym is None:
                expanded.extend([None] * n)
                continue
            if len(sym) != self.symbol_width:
                raise ValueError(f"expected {self.symbol_width} symbols per slot")
            for r in range(n):
                expanded.append(tuple(sym[r * (t0 + b0):(r + 1) * (t0 + b0)]))
        return expanded


class DeScoCodec(CombinedCodec):
    """Diversity-embedded codec: reversed-diagonal C2, parity shift t1+b1."""

    def __init__(self, params: DeScoParams, field: Optional[GF] = None,
                 h: Optional[BurstParityMatrix] = None):
        self.params = params
        n = params.expansion
        eb1, et1 = n * params.b1, n * params.t1
        b0, t0 = eb1 // params.b, et1 // params.b
        if field is None:
            field = default_field(t0, b0)
        c1 = ScoCodec(ScoParams(b0, t0, step=params.b, orientation=MAIN,
                                field=field), h)
        c2 = ScoCodec(ScoParams(b0, t0, step=params.a - params.b,
                                orientation=OFF, field=field), h or c1.h)
        super().__init__([Component(c1), Component(c2, params.delta)], n,
                         (params.t1, params.user2_deadline))


def desco_build(params: DeScoParams, field: Optional[GF] = None) -> DeScoCodec:
    return DeScoCodec(params, field)


def sco_build(params: ScoParams,
              h: Optional[BurstParityMatrix] = None) -> CombinedCodec:
    """Single-user streaming code: one component, deadline t * step."""
    return CombinedCodec([Component(ScoCodec(params, h))], 1,
                         (memory_bound(params),))


def ia_sco_build(b1: int, t1: int, alpha: int,
                 field: Optional[GF] = None) -> CombinedCodec:
    """Interference-avoidance baseline: forward-diagonal C2, parity shift t1.

    The embedded code is the (alpha*b1, alpha*t1) interleaved code; the
    weak receiver's delay is alpha*t1 + t1, worse than the embedded
    construction's alpha*t1 + b1 whenever b1 < t1.
    """
    if alpha < 2 or int(alpha) != alpha:
        raise ValueError("alpha must be an integer >= 2")
    if field is None:
        field = default_field(t1, b1)
    c1 = ScoCodec(ScoParams(b1, t1, field=field))
    c2 = ScoCodec(ScoParams(b1, t1, step=alpha, field=field), c1.h)
    return CombinedCodec([Component(c1), Component(c2, t1)], 1,
                         (t1, alpha * t1 + t1))


# -- burst sweeps ---------------------------------------------------------


def zero_stream(codec: CombinedCodec, horizon: int) -> List[Tuple[int, ...]]:
    """All-zero channel stream (valid by linearity); handy for loss counting."""
    return [tuple([0] * codec.symbol_width)] * horizon


def burst_decode_log(codec: CombinedCodec, start: int, length: int,
                     user: int, horizon: Optional[int] = None) -> StreamLog:
    """Decode an all-zero stream with one burst; recovery is structural,
    so the log applies to any source content."""
    if horizon is None:
        # slots after the last deadline cannot change any miss verdict
        horizon = start + length + max(codec.deadlines) + 2
    rx: List[Optional[Tuple[int, ...]]] = list(zero_stream(codec, horizon))
    for s in range(start, start + length):
        rx[s] = None
    _, log = codec.decode(rx, user)
    return log


def burst_loss_count(codec: CombinedCodec, length: int, user: int) -> int:
    """Deadline misses caused by one isolated burst of the given length.

    The burst starts at ``codec.reach_slots``, the first start whose
    decode no parity's zero padding before slot 0 reaches; by time
    invariance (see ``sweep_max_delay``) it stands for every later start.
    """
    if length == 0:
        return 0
    log = burst_decode_log(codec, codec.reach_slots, length, user)
    return len(log.misses)


def sweep_max_delay(codec: CombinedCodec, burst_len: int, user: int,
                    window: Optional[int] = None) -> Tuple[int, int]:
    """(max recovery delay, miss count) over every burst start in a window.

    Exact without decoding every start.  Templates are causal and
    time-invariant: a parity at slot t reads source of slots
    t - reach_slots .. t only, with the same terms at every t.  A burst at
    start s is touched only by parities at slots >= s, so the zero
    padding before slot 0 enters its decode only when s < reach_slots.
    ``burst_decode_log``'s horizon moves with the start, so every start
    s >= reach_slots decodes like start reach_slots shifted by
    s - reach_slots: the same delays, the same number of misses.  Starts
    0 .. reach_slots - 1 are decoded one by one; the decode at
    reach_slots stands for all later starts, its misses counted once per
    start.
    """
    if window is None:
        window = 10 * sum(codec.deadlines)
    last = window - burst_len  # the last start in the window
    worst = 0
    misses = 0
    for start in range(min(codec.reach_slots, last) + 1):
        log = burst_decode_log(codec, start, burst_len, user)
        # the decode at reach_slots stands for starts reach_slots .. last
        copies = last - start + 1 if start == codec.reach_slots else 1
        misses += copies * len(log.misses)
        for slot in range(start, start + burst_len):
            d = log.slot_delay(slot)
            if d is not None:
                worst = max(worst, d)
    return worst, misses


# -- codec descriptor ---------------------------------------------------


def descriptor(codec: DeScoCodec) -> str:
    """Text block (key=value lines) reconstructing the codec bit-exactly."""
    p = codec.params
    rows = ",".join("-".join(format(v, "x") for v in row)
                    for row in codec.components[0].codec.h.rows)
    lines = [f"b1={p.b1}", f"t1={p.t1}", f"a={p.a}", f"b={p.b}",
             f"field={codec.field.degree}", f"h={rows}"]
    return "\n".join(lines) + "\n"


def parse_descriptor(text: str) -> DeScoCodec:
    kv: Dict[str, str] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"bad descriptor line: {line!r}")
        k, v = line.split("=", 1)
        kv[k.strip()] = v.strip()
    try:
        params = DeScoParams(int(kv["b1"]), int(kv["t1"]), int(kv["a"]),
                             int(kv.get("b", "1")))
        field = GF.binary(int(kv["field"]))
    except KeyError as exc:
        raise ValueError(f"descriptor missing key {exc}") from exc
    h = None
    if kv.get("h"):
        rows = tuple(tuple(int(x, 16) for x in row.split("-"))
                     for row in kv["h"].split(","))
        n = params.expansion
        t0 = n * params.t1 // params.b
        b0 = n * params.b1 // params.b
        h = BurstParityMatrix(rows, t0, b0, field)
    return DeScoCodec(params, field, h)

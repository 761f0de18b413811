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
delay ceil(alpha*t1) + b1.  Both run one and the same decode here; a
user's deadline (``CombinedCodec.deadline``) only decides its misses.

Rational ratios alpha = a/b are handled by building the construction on
a pseudo-expanded clock with n expanded slots per stream slot, n chosen
as the smallest integer making n*alpha*t1 an integer.  Each ``Component``
folds that clock into its templates, so encoding and decoding run on
stream slots only: a channel symbol is the subs_per_slot source
sub-symbols followed by the parities_per_slot combined parities, at
every n.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .bebc import BurstParityMatrix, verify_burst_correcting
from .channel import single_burst
from .decoder import Component, StreamLog, encode_symbols, staged_decode
from .gf import GF, default_field
from .sco import MAIN, OFF, ScoCodec, ScoParams, memory_bound, require_ints
from .wire import check_stream


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
        require_ints(b1=self.b1, t1=self.t1, a=self.a, b=self.b)
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
    def base_size(self) -> Tuple[int, int]:
        """(b0, t0) = (n*b1/b, n*t1/b): burst and delay of the base code
        that both components interleave on the expanded clock."""
        n = self.expansion
        return n * self.b1 // self.b, n * self.t1 // self.b

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


class CombinedCodec:
    """Streaming codec whose parity stream sums one or more component codes.

    A single-user code is one component at shift 0; the two-user codecs
    add a second component whose parities are delayed by its shift.  The
    components share one expansion, which their templates fold into
    stream slots (see ``Component``).  A channel symbol per stream slot
    is its ``subs_per_slot`` source sub-symbols followed by its
    ``parities_per_slot`` combined parities.  ``deadlines[u - 1]`` is
    user u's delay target in stream slots.
    """

    def __init__(self, components: Sequence[Component],
                 deadlines: Sequence[int]):
        first = components[0]
        if any((c.codec.field, c.codec.t, c.codec.b, c.expansion)
               != (first.codec.field, first.codec.t, first.codec.b,
                   first.expansion) for c in components):
            raise ValueError(
                "components must share field, base size and expansion")
        self.components = list(components)
        self.deadlines = tuple(deadlines)
        self.field = first.codec.field
        self.subs_per_slot = first.expansion * first.codec.t
        self.parities_per_slot = len(first.templates)
        self.symbol_width = self.subs_per_slot + self.parities_per_slot
        # stream slots covering the widest template reach: a parity never
        # reads source older than this many slots back
        self.reach_slots = max(comp.reach for comp in self.components)

    def deadline(self, user: int) -> int:
        """Delay target of ``user``; ValueError names the valid users."""
        if not 1 <= user <= len(self.deadlines):
            raise ValueError(f"user must be in 1..{len(self.deadlines)}")
        return self.deadlines[user - 1]

    @property
    def user2_deadline(self) -> int:
        return self.deadline(2)

    # -- encoding -------------------------------------------------------

    def encode_stream(self, source: np.ndarray) -> np.ndarray:
        """Channel symbols of an (n_slots, subs_per_slot) integer source
        array: row t is source row t followed by slot t's combined
        parities, at the field's dtype, the wire's element width.
        ValueError on another width or an element outside the field."""
        check_stream(source, self.field, self.subs_per_slot)
        return encode_symbols(self.components, self.field, source)

    # -- decoding -------------------------------------------------------

    def decode(self, symbols: np.ndarray, erased: np.ndarray):
        """Decode a received stream once, for every user.

        ``symbols`` is the (n_slots, symbol_width) received array and
        ``erased`` the (n_slots,) bool mask of its lost rows, whose
        contents are ignored; ValueError names the dtype and shape of any
        other mask.  Returns (recovered, log): recovered is the
        (n_slots, subs_per_slot) source array, 0 wherever
        ``log.sub_times`` is -1 (never recovered), and
        ``log.misses(self.deadline(u))`` lists user u's misses.
        """
        recovered, times, trace = staged_decode(
            self.components, self.field, self.subs_per_slot,
            self.parities_per_slot, symbols, erased)
        return recovered, StreamLog(times, trace)


class DeScoCodec(CombinedCodec):
    """Diversity-embedded codec: reversed-diagonal C2, parity shift t1+b1."""

    def __init__(self, params: DeScoParams, field: Optional[GF] = None,
                 h: Optional[BurstParityMatrix] = None):
        self.params = params
        n = params.expansion
        b0, t0 = params.base_size
        if field is None:
            field = default_field(t0, b0)
        c1 = ScoCodec(ScoParams(b0, t0, step=params.b, orientation=MAIN,
                                field=field), h)
        c2 = ScoCodec(ScoParams(b0, t0, step=params.a - params.b,
                                orientation=OFF, field=field), h or c1.h)
        super().__init__([Component(c1, 0, n), Component(c2, params.delta, n)],
                         (params.t1, params.user2_deadline))


def sco_build(params: ScoParams,
              h: Optional[BurstParityMatrix] = None) -> CombinedCodec:
    """Single-user streaming code: one component, deadline t * step."""
    return CombinedCodec([Component(ScoCodec(params, h))],
                         (memory_bound(params),))


def ia_sco_build(b1: int, t1: int, alpha: int,
                 field: Optional[GF] = None) -> CombinedCodec:
    """Interference-avoidance baseline: forward-diagonal C2, parity shift t1.

    The embedded code is the (alpha*b1, alpha*t1) interleaved code; the
    weak receiver's delay is alpha*t1 + t1, worse than the embedded
    construction's alpha*t1 + b1 whenever b1 < t1.
    """
    require_ints(alpha=alpha)
    if alpha < 2:
        raise ValueError("alpha must be an integer >= 2")
    if field is None:
        field = default_field(t1, b1)
    c1 = ScoCodec(ScoParams(b1, t1, field=field))
    c2 = ScoCodec(ScoParams(b1, t1, step=alpha, field=field), c1.h)
    return CombinedCodec([Component(c1), Component(c2, t1)],
                         (t1, alpha * t1 + t1))


# -- burst sweeps ---------------------------------------------------------


def burst_decode_log(codec: CombinedCodec, start: int, length: int,
                     horizon: Optional[int] = None) -> StreamLog:
    """Decode an all-zero stream with one burst; recovery is structural,
    so the log applies to any source content."""
    if horizon is None:
        # slots after the last deadline cannot change any miss verdict
        horizon = start + length + max(codec.deadlines) + 2
    zeros = np.zeros((horizon, codec.symbol_width), dtype=np.int64)
    return codec.decode(zeros, single_burst(start, length, horizon))[1]


# most stream slots of one decode of ``burst_loss_counts``, so that its
# memory does not grow with the number of lengths asked for; a burst
# that does not fit with another is decoded alone
_BATCH_SLOTS = 4096


def _batches(lengths: Sequence[int], gap: int) -> Iterator[List[int]]:
    """The lengths in order, as runs of bursts that, each followed by
    ``gap`` slots, fit in ``_BATCH_SLOTS``."""
    batch: List[int] = []
    slots = 0
    for length in lengths:
        if batch and slots + length + gap > _BATCH_SLOTS:
            yield batch
            batch, slots = [], 0
        batch.append(length)
        slots += length + gap
    if batch:
        yield batch


def burst_loss_counts(codec: CombinedCodec,
                      lengths: Iterable[int]) -> Dict[int, Tuple[int, ...]]:
    """Deadline misses of one isolated burst of each length, user u's at
    entry u - 1.

    The bursts are laid out on one all-zero stream, each followed by
    max(``reach_slots``, latest deadline + 2) received slots, and the
    stream is decoded once for every user.  A burst that many slots
    after the one before it starts a cluster of its own, with received
    slots all through its window, so it decodes as it does alone (see
    the ``decoder`` module); its misses fall due before the next burst,
    and a slot recovered after its deadline is a miss whether it is
    recovered later or never.  So each burst's misses, as
    ``StreamLog.misses`` lists them, are those of the burst alone.  The
    stream is cut into decodes of at most ``_BATCH_SLOTS`` slots.
    """
    gap = max(codec.reach_slots, max(codec.deadlines) + 2)
    losses: Dict[int, Tuple[int, ...]] = {}
    for batch in _batches(sorted(set(lengths)), gap):
        # burst k erases [starts[k], starts[k] + batch[k]); the last
        # entry is the horizon
        starts = list(accumulate([length + gap for length in batch],
                                 initial=0))
        erased = np.zeros(starts[-1], dtype=bool)
        for start, length in zip(starts, batch):
            erased[start:start + length] = True
        zeros = np.zeros((starts[-1], codec.symbol_width), dtype=np.int64)
        log = codec.decode(zeros, erased)[1]
        misses = [[0] * len(codec.deadlines) for _ in batch]
        for user, deadline in enumerate(codec.deadlines):
            for slot in log.misses(deadline):
                misses[bisect_right(starts, slot) - 1][user] += 1
        losses.update(zip(batch, map(tuple, misses)))
    return losses


def burst_loss_count(codec: CombinedCodec, length: int) -> Tuple[int, ...]:
    """Deadline misses of one isolated burst of the given length, user u's
    at entry u - 1: ``burst_loss_counts`` of that one length."""
    return burst_loss_counts(codec, [length])[length]


def sweep_max_delay(codec: CombinedCodec, burst_len: int, user: int,
                    window: int) -> Tuple[int, int]:
    """(max recovery delay, miss count) over every burst start in a window.

    Exact with one decode.  A burst decodes alike at every start >= 0
    (see the ``decoder`` module), and ``burst_decode_log``'s horizon
    moves with the start, so the burst at start 0 has the delays of
    every start, and its misses count once per start in
    0 .. window - burst_len.  ValueError if the window holds no start or
    the user is not the codec's.  The window has no default; ``verify``'s
    is 10*(t1+b1).
    """
    deadline = codec.deadline(user)
    if window < burst_len:
        raise ValueError(f"window {window} is shorter than the burst "
                         f"length {burst_len}")
    log = burst_decode_log(codec, 0, burst_len)
    times = log.slot_times[:burst_len]  # -1 for a slot with no delay
    worst = int((times - np.arange(burst_len))[times >= 0].max(initial=0))
    return worst, (window - burst_len + 1) * len(log.misses(deadline))


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

    def num(key: str, value: str, base: int = 10) -> int:
        try:
            return int(value, base)
        except ValueError:
            raise ValueError(f"descriptor key {key} holds {value!r}, "
                             "not an integer") from None
    try:
        params = DeScoParams(*(num(k, kv[k]) for k in ("b1", "t1", "a")),
                             num("b", kv.get("b", "1")))
        field = GF(num("field", kv["field"]))
    except KeyError as exc:
        raise ValueError(f"descriptor missing key {exc}") from exc
    h = None
    if kv.get("h"):
        rows = tuple(tuple(num("h", x, 16) for x in row.split("-"))
                     for row in kv["h"].split(","))
        b0, t0 = params.base_size
        h = BurstParityMatrix(rows, t0, b0, field)
        if not verify_burst_correcting(h):
            raise ValueError(f"descriptor h={kv['h']} does not correct "
                             f"every burst of {b0} erasures")
    return DeScoCodec(params, field, h)

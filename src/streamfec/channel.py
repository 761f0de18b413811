"""Erasure-pattern generators and pattern algebra.

Patterns are immutable sets of erased slots over a finite horizon:
single bursts, the periodic patterns used by the rate-converse argument,
and the segmented random-burst model used for loss-probability runs.
``apply`` gives a pattern's erasures as the bool mask over a stream
array's slots that the decoder takes.

In the segmented model each segment's burst comes from its own generator,
``PCG64(SeedSequence([seed, segment]))``; ``draw_segment_burst`` is the one
definition of a segment's burst.  ``burst_length_counts`` and
``segmented_bursts`` evaluate that definition in batch: a numpy kernel
computes the first 64-bit output of many segments' generators at once
(seeding, one PCG64 step, numpy's bounded draw), so the counts, the
patterns and the loss curve built from them equal one
``draw_segment_burst`` call per segment and b_max.  The rare draw that
numpy would reject and redraw, and any range above 2**32, is made by
``draw_segment_burst`` itself.  Seeds must be >= 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

HIGH_DELAY = "high-delay"
LOW_DELAY = "low-delay"


@dataclass(frozen=True)
class ErasurePattern:
    slots: Tuple[int, ...]
    horizon: int

    def __post_init__(self):
        slots = tuple(sorted(set(self.slots)))
        object.__setattr__(self, "slots", slots)
        if slots and not (0 <= slots[0] and slots[-1] < self.horizon):
            raise ValueError("erased slots outside horizon")

    def serialize(self) -> str:
        """Text form: one "start:length" line per erased run."""
        lines = []
        for start, length in self.runs():
            lines.append(f"{start}:{length}")
        return "\n".join(lines) + ("\n" if lines else "")

    def runs(self) -> List[Tuple[int, int]]:
        runs: List[Tuple[int, int]] = []
        for s in self.slots:
            if runs and s == runs[-1][0] + runs[-1][1]:
                runs[-1] = (runs[-1][0], runs[-1][1] + 1)
            else:
                runs.append((s, 1))
        return runs


def parse_pattern(text: str, horizon: int) -> ErasurePattern:
    slots: List[int] = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#")[0].strip()
        if not line:
            continue
        try:
            start_s, length_s = line.split(":")
            start, length = int(start_s), int(length_s)
        except ValueError as exc:
            raise ValueError(f"bad pattern line {lineno}: {line!r}") from exc
        if length < 0:
            raise ValueError(f"bad pattern line {lineno}: negative {line!r}")
        slots.extend(range(start, start + length))
    return ErasurePattern(tuple(slots), horizon)


def single_burst(start: int, length: int, horizon: int) -> ErasurePattern:
    if min(start, length) < 0 or start + length > horizon:
        raise ValueError(f"burst {start}:{length} is not a run inside "
                         f"horizon {horizon}")
    return ErasurePattern(tuple(range(start, start + length)), horizon)


def periodic_pattern(b1: int, b2: int, t2: int, regime: str, periods: int,
                     t1: Optional[int] = None) -> ErasurePattern:
    """Periodic channel: b2 erasures at the head of every period.

    High-delay regime: period (alpha-1)*b1 + t2 = b2 - b1 + t2.
    Low-delay regime: period t1 + b2 (t1 required).
    """
    if b2 <= b1:
        raise ValueError("need b2 = alpha * b1 with alpha > 1")
    if regime == HIGH_DELAY:
        period = b2 - b1 + t2
    elif regime == LOW_DELAY:
        if t1 is None:
            raise ValueError("low-delay regime needs t1")
        period = t1 + b2
    else:
        raise ValueError(f"unknown regime {regime!r}")
    if period <= b2:
        raise ValueError("period not longer than its erasure run")
    slots = [p * period + k for p in range(periods) for k in range(b2)]
    return ErasurePattern(tuple(slots), periods * period)


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")


def _segment_bits(seed: int, segment: int) -> np.random.PCG64:
    """The bit generator that one segment's burst is drawn from."""
    _check_seed(seed)
    return np.random.PCG64(np.random.SeedSequence([seed, segment]))


def draw_segment_burst(seed: int, segment: int, segment_len: int,
                       b_max: int) -> Tuple[int, int]:
    """(start, length) of the burst in one segment, reproducible from seed.

    Length is uniform on {0..b_max}; start uniform over the placements
    keeping the burst inside the segment (offset within the segment).
    """
    rng = np.random.Generator(_segment_bits(seed, segment))
    length = int(rng.integers(0, b_max + 1))
    start = int(rng.integers(0, segment_len - length + 1)) if length else 0
    return start, length


# The kernel below evaluates ``draw_segment_burst`` for a chunk of
# segments at once, in uint64 array arithmetic that follows numpy's
# SeedSequence (numpy/random/bit_generator.pyx), PCG64 (pcg64.h) and
# bounded integers (distributions.c).  Every constant is an np.uint64, so
# promotion is the same under legacy rules and under NEP 50.
_CHUNK = 4096  # segments per pass; a power of two, so no chunk crosses 2**32
_U = np.uint64
_LOW32 = _U(0xFFFFFFFF)
_TWO32 = _U(1 << 32)
_CLAMP = 1 << 33  # a range above 2**32 is clamped here: still never accepted
_HASH_A = (0x43B0D7E5, 0x931E8875)  # SeedSequence INIT_A, MULT_A
_HASH_B = (0x8B51F9DD, 0x58F38DED)  # INIT_B, MULT_B
_MIX_L, _MIX_R = _U(0xCA01F9DD), _U(0x4973F715)
_POOL_SIZE = 4
_PCG_HI, _PCG_LO = _U(0x2360ED051FC65DA4), _U(0x4385DF649FCCF645)


def _hasher(hash_const: int, mult: int):
    """SeedSequence's hashmix; each call advances the shared hash constant."""
    def hashmix(value):
        nonlocal hash_const
        value = value ^ _U(hash_const)
        hash_const = hash_const * mult & 0xFFFFFFFF
        value = value * _U(hash_const) & _LOW32
        return value ^ (value >> _U(16))
    return hashmix


def _mix(x, y):
    r = (x * _MIX_L - y * _MIX_R) & _LOW32
    return r ^ (r >> _U(16))


def _words(value: int) -> List[int]:
    """An int as SeedSequence splits it: 32-bit words, low word first."""
    return [value >> s & 0xFFFFFFFF
            for s in range(0, max(value.bit_length(), 1), 32)]


def _add128(a_hi, a_lo, b_hi, b_lo):
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo).astype(_U), lo


def _pcg_step(hi, lo, inc_hi, inc_lo):
    """One LCG step of PCG64: state * multiplier + inc, mod 2**128."""
    # high half of lo * _PCG_LO from 32-bit limbs
    a0, a1 = lo & _LOW32, lo >> _U(32)
    b0, b1 = _PCG_LO & _LOW32, _PCG_LO >> _U(32)
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> _U(32)) + (p01 & _LOW32) + (p10 & _LOW32)
    carry = a1 * b1 + (p01 >> _U(32)) + (p10 >> _U(32)) + (mid >> _U(32))
    return _add128(carry + lo * _PCG_HI + hi * _PCG_LO, lo * _PCG_LO,
                   inc_hi, inc_lo)


def _first_outputs(seed: int, lo: int, hi: int) -> np.ndarray:
    """First 64-bit output of ``_segment_bits(seed, seg)`` for seg in lo..hi-1.

    The segments must share their count of 32-bit words.
    """
    segs = np.arange(lo, hi, dtype=_U)
    words = [np.full(len(segs), w, dtype=_U) for w in _words(seed)]
    words += [segs >> _U(s) & _LOW32
              for s in range(0, 32 * len(_words(lo)), 32)]
    # SeedSequence: mix the entropy words into the pool
    hashmix = _hasher(*_HASH_A)
    zero = np.zeros(len(segs), dtype=_U)
    pool = [hashmix(words[i] if i < len(words) else zero)
            for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    # generate_state(4, uint64), cycling the pool
    hashmix = _hasher(*_HASH_B)
    state = [hashmix(pool[i % _POOL_SIZE]) for i in range(8)]
    seed_hi, seed_lo, seq_hi, seq_lo = (state[i] | state[i + 1] << _U(32)
                                        for i in range(0, 8, 2))
    # PCG64 srandom: inc = 2 * seq + 1; state = inc + seed, then one step
    inc_hi = seq_hi << _U(1) | seq_lo >> _U(63)
    inc_lo = seq_lo << _U(1) | _U(1)
    s_hi, s_lo = _pcg_step(*_add128(inc_hi, inc_lo, seed_hi, seed_lo),
                           inc_hi, inc_lo)
    # first output: one step, then XSL-RR
    s_hi, s_lo = _pcg_step(s_hi, s_lo, inc_hi, inc_lo)
    x, rot = s_hi ^ s_lo, s_hi >> _U(58)
    return x >> rot | x << ((_U(64) - rot) & _U(63))


def _bounded(word: np.ndarray, high) -> Tuple[np.ndarray, np.ndarray]:
    """numpy's ``integers(0, high)`` when its first ``next_uint32`` is word.

    Lemire's method: the value is ``word * high >> 32``, and the draw is
    rejected (numpy would draw again) when the low half is below
    ``2**32 % high``.  ``high`` is a uint64 scalar or array >= 1.  Returns
    (values, accepted); a high above 2**32 (numpy's 64-bit draw) is never
    accepted.
    """
    fits = high <= _TWO32
    n = np.where(fits, high, _U(1)).astype(_U)
    m = word * n
    return m >> _U(32), fits & ((m & _LOW32) >= _TWO32 % n)


def _segment_outputs(seed: int, segments: int):
    """(first segment, first outputs) for range(segments), chunk by chunk."""
    _check_seed(seed)
    for lo in range(0, segments, _CHUNK):
        yield lo, _first_outputs(seed, lo, min(lo + _CHUNK, segments))


def burst_length_counts(seed: int, segments: int,
                        b_max_list: Iterable[int]) -> Dict[int, List[int]]:
    """Per distinct b_max, how many of the segments draw each burst length.

    ``counts[b_max][length]`` is the number of segments ``seg`` in
    ``range(segments)`` whose ``draw_segment_burst(seed, seg, _, b_max)``
    has that length.  The lengths are evaluated in batch: the length is
    the first draw of the segment's generator, taken from the low half of
    its first output, which the kernel computes once per segment for
    every b_max; a draw numpy would reject and redraw is made by
    ``draw_segment_burst`` itself.  A repeated b_max is counted once.
    Raises ValueError on a negative b_max or seed.
    """
    distinct = sorted(set(b_max_list))
    if distinct and distinct[0] < 0:
        raise ValueError(f"b_max must be >= 0, got {distinct[0]}")
    counts = {b_max: np.zeros(b_max + 1, dtype=np.int64) for b_max in distinct}
    for lo, out in _segment_outputs(seed, segments):
        for b_max in distinct:
            lengths, ok = _bounded(out & _LOW32, _U(min(b_max, _CLAMP) + 1))
            for i in np.flatnonzero(~ok):
                # any segment_len >= b_max: the start does not move the length
                lengths[i] = draw_segment_burst(seed, lo + i, b_max, b_max)[1]
            counts[b_max] += np.bincount(lengths.astype(np.int64),
                                         minlength=b_max + 1)
    return {b_max: c.tolist() for b_max, c in counts.items()}


def segmented_bursts(segment_len: int, b_max: int, segments: int,
                     seed: int) -> ErasurePattern:
    """One uniform-length burst per segment of the stream.

    Segment ``seg``'s burst is ``draw_segment_burst(seed, seg, segment_len,
    b_max)``, evaluated in batch like ``burst_length_counts``: the start
    is the second ``next_uint32``, the high half of the first output.
    """
    if not 0 <= b_max < segment_len:
        raise ValueError("b_max must be >= 0 and smaller than segment_len")
    parts = []
    for lo, out in _segment_outputs(seed, segments):
        lengths, ok = _bounded(out & _LOW32, _U(min(b_max, _CLAMP) + 1))
        starts, ok_start = _bounded(out >> _U(32),
                                    _U(min(segment_len, _CLAMP) + 1) - lengths)
        ok &= ok_start  # a zero length uses no start: a rejection is harmless
        for i in np.flatnonzero(~ok):
            starts[i], lengths[i] = draw_segment_burst(seed, lo + i,
                                                       segment_len, b_max)
        lengths = lengths.astype(np.int64)
        first = (np.arange(lo, lo + len(out)) * segment_len
                 + starts.astype(np.int64))
        run_at = np.repeat(np.cumsum(lengths) - lengths, lengths)
        parts.append(np.repeat(first, lengths)
                     + np.arange(len(run_at)) - run_at)
    slots = np.concatenate(parts).tolist() if parts else []
    return ErasurePattern(tuple(slots), segments * segment_len)


def apply(pattern: ErasurePattern, symbols: np.ndarray) -> np.ndarray:
    """The (n_slots,) bool mask of the stream's slots the pattern erases."""
    if len(symbols) < pattern.horizon:
        raise ValueError("stream shorter than pattern horizon")
    return np.isin(np.arange(len(symbols)), pattern.slots)

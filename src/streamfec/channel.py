"""Erasure-pattern generators and pattern algebra.

Patterns are immutable sets of erased slots over a finite horizon:
single bursts, the periodic patterns used by the rate-converse argument,
and the segmented random-burst model used for loss-probability runs.

In the segmented model each segment's burst comes from its own generator,
seeded with ``SeedSequence([seed, segment])``; ``draw_segment_burst`` is
the one definition of a segment's burst.  ``burst_length_counts`` tallies
the lengths that definition draws for many b_max values at once: it builds
each segment's generator once and replays its starting state for every
b_max, so the counts (and the loss curve built from them) are the same as
one ``draw_segment_burst`` call per segment and b_max.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

S = TypeVar("S")

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
        object.__setattr__(self, "_slot_set", frozenset(slots))

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
        slots.extend(range(start, start + length))
    return ErasurePattern(tuple(slots), horizon)


def single_burst(start: int, length: int, horizon: int) -> ErasurePattern:
    if start < 0 or start + length > horizon:
        raise ValueError("burst outside horizon")
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


def _segment_bits(seed: int, segment: int) -> np.random.PCG64:
    """The bit generator that one segment's burst is drawn from."""
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


def burst_length_counts(seed: int, segments: int,
                        b_max_list: Iterable[int]) -> Dict[int, List[int]]:
    """Per distinct b_max, how many of the segments draw each burst length.

    ``counts[b_max][length]`` is the number of segments ``seg`` in
    ``range(segments)`` whose ``draw_segment_burst(seed, seg, _, b_max)``
    has that length.  The length is the first draw of the segment's
    generator, so the generator is built once per segment and its state
    restored before the draw for each b_max; a repeated b_max is counted
    once.  Raises ValueError on a negative b_max.
    """
    distinct = sorted(set(b_max_list))
    if distinct and distinct[0] < 0:
        raise ValueError(f"b_max must be >= 0, got {distinct[0]}")
    counts = {b_max: [0] * (b_max + 1) for b_max in distinct}
    for seg in range(segments):
        bits = _segment_bits(seed, seg)
        rng = np.random.Generator(bits)
        start = bits.state
        for i, b_max in enumerate(distinct):
            if i:
                bits.state = start
            counts[b_max][int(rng.integers(0, b_max + 1))] += 1
    return counts


def segmented_bursts(segment_len: int, b_max: int, segments: int,
                     seed: int) -> ErasurePattern:
    """One uniform-length burst per segment of the stream."""
    if b_max >= segment_len:
        raise ValueError("b_max must be smaller than segment_len")
    slots: List[int] = []
    for seg in range(segments):
        start, length = draw_segment_burst(seed, seg, segment_len, b_max)
        base = seg * segment_len + start
        slots.extend(range(base, base + length))
    return ErasurePattern(tuple(slots), segments * segment_len)


def apply(pattern: ErasurePattern, stream: Sequence[S]) -> List[Optional[S]]:
    """Mask erased slots of a channel stream with None."""
    if len(stream) < pattern.horizon:
        raise ValueError("stream shorter than pattern horizon")
    erased = pattern._slot_set
    return [None if t in erased else stream[t] for t in range(len(stream))]

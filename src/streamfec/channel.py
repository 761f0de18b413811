"""Erasure patterns: pattern files, single bursts, and the segmented
random-burst model of the loss-probability runs.  The periodic channel
of the rate-converse argument is a reference of the tests
(``tests/reference_bounds.py``).

A pattern is the (horizon,) bool mask of its erased slots, the mask the
decoder takes; ``apply`` pads it with False to a longer stream.  A
pattern file holds one "start:length" run per line; ``parse_pattern``
reads it in one pass, and the mask is the union of its runs.  Only
``segmented_bursts`` returns its bursts as (starts, lengths) arrays, one
entry per segment, since its horizon can be too long for a mask.

In the segmented model each segment's burst comes from its own generator,
``PCG64(SeedSequence([seed, segment]))``; ``draw_segment_burst`` is the one
definition of a segment's burst.  ``burst_length_counts`` and
``segmented_bursts`` evaluate that definition in batch: a numpy kernel
computes the first 64-bit output of many segments' generators at once
(SeedSequence hashing on uint32 words, the PCG64 steps on uint64), and
numpy's bounded draw turns it into a length and a start, so the counts,
the bursts and the loss curve built from them equal one
``draw_segment_burst`` call per segment and b_max.  The counts take
every b_max's lengths from one histogram of the words when the common
multiple of their ranges fits ``_BINS``, and from one histogram per
b_max otherwise; a b_max >= 2**32, whose counts list could not be
built, is refused.  Only ``segmented_bursts`` draws from a range above
2**32, the starts of a segment that long; such a draw, and the rare one
that numpy would reject and redraw, is made by ``draw_segment_burst``
itself.  Seeds must be >= 0.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Tuple

import numpy as np


def parse_pattern(text: str, horizon: int) -> np.ndarray:
    """The (horizon,) bool mask of a pattern text: one "start:length" run
    of erased slots per line, "#" starting a comment.  Runs may overlap;
    a non-empty run must lie inside the horizon.  One pass over the
    lines collects the non-empty runs, and ValueError names the first
    bad line; the mask is their union."""
    starts: List[int] = []
    ends: List[int] = []
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
        if length:
            if not 0 <= start <= horizon - length:
                raise ValueError(f"bad pattern line {lineno}: {line!r} "
                                 f"outside horizon {horizon}")
            starts.append(start)
            ends.append(start + length)
    return _union(np.array(starts, dtype=np.int64),
                  np.array(ends, dtype=np.int64), horizon)


def _union(starts: np.ndarray, ends: np.ndarray, horizon: int) -> np.ndarray:
    """The (horizon,) bool mask of the union of runs [start, end).

    In order of start, each run adds the slots from the end of the union
    so far, if it reaches past it; the index of those disjoint pieces
    holds each erased slot once, however the runs overlap."""
    order = np.argsort(starts)
    starts = starts[order]
    ends = np.maximum.accumulate(ends[order])  # the union's end so far
    lo = np.maximum(starts, np.concatenate(([0], ends[:-1])))
    counts = np.maximum(ends - lo, 0)
    erased = np.zeros(horizon, dtype=bool)
    erased[np.repeat(lo - np.cumsum(counts) + counts, counts)
           + np.arange(counts.sum())] = True
    return erased


def single_burst(start: int, length: int, horizon: int) -> np.ndarray:
    if min(start, length) < 0 or start + length > horizon:
        raise ValueError(f"burst {start}:{length} is not a run inside "
                         f"horizon {horizon}")
    erased = np.zeros(horizon, dtype=bool)
    erased[start:start + length] = True
    return erased


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")


def draw_segment_burst(seed: int, segment: int, segment_len: int,
                       b_max: int) -> Tuple[int, int]:
    """(start, length) of the burst in one segment, reproducible from seed.

    Length is uniform on {0..b_max}; start uniform over the placements
    keeping the burst inside the segment (offset within the segment).
    """
    _check_seed(seed)
    rng = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence([seed, segment])))
    length = int(rng.integers(0, b_max + 1))
    start = int(rng.integers(0, segment_len - length + 1)) if length else 0
    return start, length


# The kernel below evaluates ``draw_segment_burst`` for a chunk of
# segments at once, in array arithmetic that follows numpy's SeedSequence
# (numpy/random/bit_generator.pyx), PCG64 (pcg64.h) and bounded integers
# (distributions.c).  SeedSequence hashes 32-bit words, so it runs on
# uint32 arrays, whose products and differences wrap mod 2**32 as its
# own do; only PCG64's 128-bit state is assembled in uint64.  Every
# constant is a typed np.uint32 or np.uint64, so promotion is the same
# under legacy rules and under NEP 50.
_CHUNK = 4096  # segments per pass; a power of two, so no chunk crosses 2**32
_U = np.uint64
_W = np.uint32
_LOW32 = _U(0xFFFFFFFF)
_TWO32 = _U(1 << 32)
_CLAMP = 1 << 33  # a range above 2**32 is clamped here: still never accepted
_BINS = 4096  # bins of a shared length histogram, as many as a chunk's words
_HASH_A = (0x43B0D7E5, 0x931E8875)  # SeedSequence INIT_A, MULT_A
_HASH_B = (0x8B51F9DD, 0x58F38DED)  # INIT_B, MULT_B
_MIX_L, _MIX_R = _W(0xCA01F9DD), _W(0x4973F715)
_SIXTEEN = _W(16)
_POOL_SIZE = 4
_PCG_HI, _PCG_LO = _U(0x2360ED051FC65DA4), _U(0x4385DF649FCCF645)


def _hasher(hash_const: int, mult: int):
    """SeedSequence's hashmix on uint32 words; each call advances the
    shared hash constant."""
    def hashmix(value):
        nonlocal hash_const
        value = value ^ _W(hash_const)
        hash_const = hash_const * mult & 0xFFFFFFFF
        value *= _W(hash_const)
        return value ^ (value >> _SIXTEEN)
    return hashmix


def _mix(x, y):
    r = x * _MIX_L - y * _MIX_R
    return r ^ (r >> _SIXTEEN)


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
    """First 64-bit output of the generator ``draw_segment_burst`` draws
    segment seg's burst from, for seg in lo..hi-1.

    The segments must share their count of 32-bit words.
    """
    segs = np.arange(lo, hi, dtype=_U)
    # the seed's words, and the pool's zero padding, are the same for
    # every segment: one-element arrays, hashed once and broadcast where
    # they meet a segment's words
    words = [np.full(1, w, dtype=_W) for w in _words(seed)]
    words += [(segs >> _U(s)).astype(_W)  # the cast keeps the low word
              for s in range(0, 32 * len(_words(lo)), 32)]
    # SeedSequence: mix the entropy words into the pool
    hashmix = _hasher(*_HASH_A)
    zero = np.zeros(1, dtype=_W)
    pool = [hashmix(words[i] if i < len(words) else zero)
            for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    # generate_state(4, uint64), cycling the pool: word 2k is the low
    # half of uint64 k, word 2k + 1 its high half
    hashmix = _hasher(*_HASH_B)
    state = np.empty((4, len(segs), 2), dtype="<u4")
    for i in range(8):
        state[i // 2, :, i % 2] = hashmix(pool[i % _POOL_SIZE])
    seed_hi, seed_lo, seq_hi, seq_lo = state.view("<u8")[..., 0]
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
    (values, accepted); a high above 2**32 (numpy's 64-bit draw, met only
    by ``segmented_bursts``) is never accepted.
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


def _bin_firsts(products: np.ndarray, bins: int) -> np.ndarray:
    """Indices of the words w whose ``products`` w * bins have a low half
    below bins: the first word of each of the bins equal slices of
    [0, 2**32).  Every word that numpy rejects for a range n dividing
    bins is one: the low half of w * n is below 2**32 % n < n."""
    return np.flatnonzero((products & _LOW32) < _U(bins))


def burst_length_counts(seed: int, segments: int,
                        b_max_list: Iterable[int]) -> Dict[int, List[int]]:
    """Per distinct b_max, how many of the segments draw each burst length.

    ``counts[b_max][length]`` is the number of segments ``seg`` in
    ``range(segments)`` whose ``draw_segment_burst(seed, seg, _, b_max)``
    has that length.  The lengths are evaluated in batch: the length is
    the first draw of the segment's generator, numpy's bounded draw from
    the low half of its first output, which the kernel computes once per
    segment.  That draw maps the word's slice of [0, 2**32), one of
    b_max + 1 equal slices, to its length, so a histogram of each
    chunk's words over a multiple of a range counts that b_max's lengths.
    One histogram over the least common multiple of all the ranges
    serves every b_max when it has at most ``_BINS`` bins; otherwise each
    b_max takes a histogram over its own range.  The first word of a bin
    (``_bin_firsts``), rarely met, is drawn by ``_bounded`` on its own,
    since only such a word can be one that numpy rejects and redraws;
    ``draw_segment_burst`` itself makes that redraw.  A repeated b_max
    is counted once.  Raises ValueError on a negative b_max, seed or
    segment count, and on a b_max >= 2**32, whose counts list could
    not be built.
    """
    if segments < 0:
        raise ValueError(f"segments must be >= 0, got {segments}")
    distinct = sorted(set(b_max_list))
    if distinct and distinct[0] < 0:
        raise ValueError(f"b_max must be >= 0, got {distinct[0]}")
    if distinct and distinct[-1] >= 1 << 32:
        raise ValueError(f"b_max must be < 2**32, got {distinct[-1]}")
    counts = {b_max: np.zeros(b_max + 1, dtype=np.int64) for b_max in distinct}
    shared = math.lcm(*(b_max + 1 for b_max in distinct))
    groups = ([(shared, distinct)] if shared <= _BINS
              else [(b_max + 1, [b_max]) for b_max in distinct])
    for lo, out in _segment_outputs(seed, segments):
        low = out & _LOW32
        for bins, group in groups:
            products = low * _U(bins)
            at = (products >> _U(32)).view(np.int64)  # each word's bin
            firsts = _bin_firsts(products, bins)
            hist = np.bincount(at, minlength=bins)
            hist -= np.bincount(at[firsts], minlength=bins)
            for b_max in group:
                counts[b_max] += hist.reshape(b_max + 1, -1).sum(axis=1)
            for b_max in group if len(firsts) else ():
                values, ok = _bounded(low[firsts], _U(b_max + 1))
                for i, length, accepted in zip(firsts.tolist(),
                                               values.tolist(), ok.tolist()):
                    if not accepted:
                        # any segment_len >= b_max: the start does not
                        # move the length
                        length = draw_segment_burst(seed, lo + i, b_max,
                                                    b_max)[1]
                    counts[b_max][length] += 1
    return {b_max: c.tolist() for b_max, c in counts.items()}


def segmented_bursts(segment_len: int, b_max: int, segments: int,
                     seed: int) -> Tuple[np.ndarray, np.ndarray]:
    """One uniform-length burst per segment of the stream, as (starts,
    lengths) int arrays with one entry per segment.

    Segment ``seg``'s burst is ``draw_segment_burst(seed, seg, segment_len,
    b_max)`` with its start moved onto the stream clock (plus
    ``seg * segment_len``), evaluated in batch like
    ``burst_length_counts``: the start is the second ``next_uint32``, the
    high half of the first output.  No mask is built: the horizon
    ``segments * segment_len`` can be far larger than the segment count.
    """
    if not 0 <= b_max < segment_len:
        raise ValueError("b_max must be >= 0 and smaller than segment_len")
    if segments < 0:
        raise ValueError(f"segments must be >= 0, got {segments}")
    starts = np.zeros(segments, dtype=np.int64)
    lengths = np.zeros(segments, dtype=np.int64)
    for lo, out in _segment_outputs(seed, segments):
        length, ok = _bounded(out & _LOW32, _U(min(b_max, _CLAMP) + 1))
        offset, ok_start = _bounded(out >> _U(32),
                                    _U(min(segment_len, _CLAMP) + 1) - length)
        ok &= ok_start  # a zero length uses no start: a rejection is harmless
        for i in np.flatnonzero(~ok):
            offset[i], length[i] = draw_segment_burst(seed, lo + i,
                                                      segment_len, b_max)
        offset[length == 0] = 0  # the definition's start of an empty burst
        at = slice(lo, lo + len(out))
        starts[at] = (np.arange(lo, at.stop) * segment_len
                      + offset.astype(np.int64))
        lengths[at] = length
    return starts, lengths


def apply(pattern: np.ndarray, symbols: np.ndarray) -> np.ndarray:
    """The (n_slots,) bool mask of the stream's erased slots: the
    pattern's mask padded with False to the stream's length."""
    if len(symbols) < len(pattern):
        raise ValueError("stream shorter than pattern horizon")
    return np.pad(pattern, (0, len(symbols) - len(pattern)))

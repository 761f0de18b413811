import tracemalloc

import numpy as np
import pytest

from streamfec import channel
from streamfec.channel import (HIGH_DELAY, LOW_DELAY, ErasurePattern, apply,
                               burst_length_counts, draw_segment_burst,
                               parse_pattern, periodic_pattern,
                               segmented_bursts, single_burst)


def test_pattern_normalizes_and_checks_bounds():
    p = ErasurePattern((4, 2, 2, 3), horizon=10)
    assert p.slots == (2, 3, 4)
    with pytest.raises(ValueError):
        ErasurePattern((10,), horizon=10)
    with pytest.raises(ValueError):
        ErasurePattern((-1,), horizon=10)


def test_runs_groups_contiguous_slots():
    p = ErasurePattern((1, 2, 3, 7, 9, 10), horizon=12)
    assert p.runs() == [(1, 3), (7, 1), (9, 2)]


def test_serialize_parse_roundtrip():
    p = ErasurePattern((1, 2, 3, 7), horizon=12)
    text = p.serialize()
    assert text == "1:3\n7:1\n"
    assert parse_pattern(text, 12) == p
    assert parse_pattern("", 5) == ErasurePattern((), 5)


def test_parse_rejects_malformed_line():
    with pytest.raises(ValueError, match="line 2"):
        parse_pattern("0:1\nnope\n", 10)


def test_parse_allows_comments():
    p = parse_pattern("# header\n3:2  # trailing\n", 10)
    assert p.slots == (3, 4)


def test_single_burst():
    assert single_burst(3, 2, 10).slots == (3, 4)
    with pytest.raises(ValueError):
        single_burst(9, 2, 10)


def test_negative_run_length_is_refused():
    # a negative length used to erase nothing, reading as a clean stream
    with pytest.raises(ValueError, match="line 2: negative '5:-3'"):
        parse_pattern("0:1\n5:-3\n", 10)
    with pytest.raises(ValueError, match="burst 5:-3 is not a run inside"):
        single_burst(5, -3, 10)
    assert parse_pattern("5:0\n", 10).slots == ()
    assert single_burst(5, 0, 10).slots == ()


def test_periodic_high_delay_shape():
    # b1=1, b2=2, t2=5: period 6, bursts of 2 at each period head
    p = periodic_pattern(1, 2, 5, HIGH_DELAY, periods=3)
    assert p.horizon == 18
    assert p.runs() == [(0, 2), (6, 2), (12, 2)]


def test_periodic_low_delay_shape():
    p = periodic_pattern(1, 2, 5, LOW_DELAY, periods=2, t1=2)
    assert p.horizon == 8
    assert p.runs() == [(0, 2), (4, 2)]


def test_periodic_validation():
    with pytest.raises(ValueError):
        periodic_pattern(2, 2, 5, HIGH_DELAY, periods=1)  # b2 not > b1
    with pytest.raises(ValueError):
        periodic_pattern(1, 2, 5, LOW_DELAY, periods=1)   # t1 missing
    with pytest.raises(ValueError):
        periodic_pattern(1, 2, 5, "fast", periods=1)
    with pytest.raises(ValueError):
        periodic_pattern(1, 4, 1, HIGH_DELAY, periods=1)  # period <= burst


def test_periodic_rational_ratio_allowed():
    p = periodic_pattern(2, 3, 9, HIGH_DELAY, periods=2)
    assert p.runs() == [(0, 3), (10, 3)]


def test_draw_segment_burst_reproducible_and_in_range():
    for seg in range(50):
        s1 = draw_segment_burst(7, seg, segment_len=20, b_max=5)
        s2 = draw_segment_burst(7, seg, segment_len=20, b_max=5)
        assert s1 == s2
        start, length = s1
        assert 0 <= length <= 5
        assert 0 <= start and start + length <= 20


def test_draw_segment_burst_differs_across_segments_and_seeds():
    draws = {draw_segment_burst(7, seg, 50, 10) for seg in range(30)}
    assert len(draws) > 5
    assert draw_segment_burst(7, 0, 50, 10) != draw_segment_burst(8, 1, 50, 10) \
        or draw_segment_burst(7, 2, 50, 10) != draw_segment_burst(8, 2, 50, 10)


def test_segmented_bursts_one_run_per_segment():
    p = segmented_bursts(segment_len=20, b_max=4, segments=10, seed=3)
    assert p.horizon == 200
    for start, length in p.runs():
        seg = start // 20
        assert start + length <= (seg + 1) * 20
        assert length <= 4


def test_segmented_bursts_matches_draws():
    p = segmented_bursts(segment_len=15, b_max=3, segments=5, seed=11)
    expect = []
    for seg in range(5):
        start, length = draw_segment_burst(11, seg, 15, 3)
        expect.extend(range(seg * 15 + start, seg * 15 + start + length))
    assert list(p.slots) == expect


def test_segmented_bursts_validation():
    with pytest.raises(ValueError):
        segmented_bursts(segment_len=5, b_max=5, segments=1, seed=0)
    with pytest.raises(ValueError):
        segmented_bursts(segment_len=5, b_max=-1, segments=1, seed=0)


def test_apply_masks_erased_slots():
    p = ErasurePattern((1, 3), horizon=4)
    symbols = np.zeros((4, 3), dtype=np.int64)
    erased = apply(p, symbols)
    assert erased.dtype == bool
    assert erased.tolist() == [False, True, False, True]
    with pytest.raises(ValueError):
        apply(p, symbols[:2])


@pytest.mark.parametrize("seed", [0, 7, 1009])
def test_burst_length_counts_match_draws(seed):
    segments = 300
    counts = burst_length_counts(seed, segments, range(9))
    assert sorted(counts) == list(range(9))
    for b_max in range(9):
        expect = [0] * (b_max + 1)
        for seg in range(segments):
            expect[draw_segment_burst(seed, seg, 20, b_max)[1]] += 1
        assert counts[b_max] == expect, b_max


def test_burst_length_counts_repeats_and_validation():
    assert burst_length_counts(3, 50, [4, 0, 4]) == burst_length_counts(3, 50, [0, 4])
    assert sum(burst_length_counts(3, 50, [4, 4])[4]) == 50
    assert burst_length_counts(3, 50, []) == {}
    with pytest.raises(ValueError):
        burst_length_counts(3, 50, [2, -1])


KERNEL_SEEDS = [0, 7, 1009, 2**32 + 5, 2**100 + 7]


@pytest.mark.parametrize("seed", KERNEL_SEEDS)
def test_kernel_outputs_equal_numpy(seed):
    # segment 0 has the entropy word 0; 2**32 - 2.. takes one word, 2**32..
    # two; a chunk boundary falls inside the first range
    for first, stop in [(0, 300), (channel._CHUNK - 5, channel._CHUNK + 5),
                        (2**32 - 2, 2**32), (2**32, 2**32 + 2)]:
        out = channel._first_outputs(seed, first, stop)
        assert out.tolist() == [
            int(channel._segment_bits(seed, seg).random_raw())
            for seg in range(first, stop)], (first, stop)


@pytest.mark.parametrize("seed", KERNEL_SEEDS)
def test_kernel_bursts_equal_draws_across_a_chunk(seed):
    segments = channel._CHUNK + 50
    for segment_len, b_max in [(100, 8), (15, 3), (7, 6)]:
        p = segmented_bursts(segment_len, b_max, segments, seed)
        expect = []
        for seg in range(segments):
            start, length = draw_segment_burst(seed, seg, segment_len, b_max)
            base = seg * segment_len + start
            expect.extend(range(base, base + length))
        assert list(p.slots) == expect, (segment_len, b_max)


def test_kernel_bounded_draw_and_forced_rejection():
    """integers(0, 3 * 2**30) rejects the first word when it is 0 mod 4:
    about a quarter of the draws fall back to draw_segment_burst."""
    high = 3 << 30
    out = channel._first_outputs(7, 0, 400)
    values, ok = channel._bounded(out & channel._LOW32, np.uint64(high))
    assert 0.15 < 1 - ok.mean() < 0.35
    for seg in np.flatnonzero(ok):
        rng = np.random.Generator(channel._segment_bits(7, int(seg)))
        assert int(rng.integers(0, high)) == values[seg]
    # b_max 1: every burst of length 1 draws its start from [0, 3 * 2**30)
    p = segmented_bursts(high, 1, 400, 7)
    expect = [seg * high + start
              for seg in range(400)
              for start, length in [draw_segment_burst(7, seg, high, 1)]
              if length]
    assert list(p.slots) == expect


def test_kernel_rejected_lengths_are_drawn_by_the_definition(monkeypatch):
    bounded = channel._bounded

    def reject_every_third(word, high):
        values, ok = bounded(word, high)
        ok[::3] = False
        values[::3] = 0
        return values, ok

    expect = burst_length_counts(7, 300, range(9))
    monkeypatch.setattr(channel, "_bounded", reject_every_third)
    assert burst_length_counts(7, 300, range(9)) == expect
    draws = [draw_segment_burst(7, seg, 20, 8) for seg in range(300)]
    assert list(segmented_bursts(20, 8, 300, 7).slots) == [
        seg * 20 + start + k
        for seg, (start, n) in enumerate(draws) for k in range(n)]


def test_negative_seed_is_refused():
    with pytest.raises(ValueError, match="seed must be >= 0"):
        burst_length_counts(-1, 10, [2])
    with pytest.raises(ValueError, match="seed must be >= 0"):
        segmented_bursts(20, 2, 10, -1)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        draw_segment_burst(-1, 0, 20, 2)


def test_burst_length_counts_memory_is_bounded():
    def peak(segments):
        tracemalloc.start()
        try:
            counts = burst_length_counts(7, segments, [8])
            _, top = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(counts[8]) == segments
        return top

    # the kernel works chunk by chunk; only the last chunk's results are
    # still alive while the next is computed
    small, large = peak(10_000), peak(1_000_000)
    assert large < small + 32 * channel._CHUNK, (small, large)

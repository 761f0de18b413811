import tracemalloc

import numpy as np
import pytest

from streamfec import channel
from streamfec.channel import (apply, burst_length_counts,
                               draw_segment_burst, parse_pattern,
                               segmented_bursts, single_burst)

from reference_bounds import HIGH_DELAY, LOW_DELAY, periodic_pattern


def erased_slots(pattern):
    return np.flatnonzero(pattern).tolist()


def drawn_runs(seed, segments, segment_len, b_max):
    """The (starts, lengths) of segmented_bursts from one
    draw_segment_burst per segment, starts on the stream clock."""
    draws = [draw_segment_burst(seed, seg, segment_len, b_max)
             for seg in range(segments)]
    return ([seg * segment_len + start for seg, (start, _) in enumerate(draws)],
            [length for _, length in draws])


def runs_of(bursts):
    starts, lengths = bursts
    assert starts.dtype == lengths.dtype == np.int64
    return starts.tolist(), lengths.tolist()


def test_parse_overlapping_runs_are_union():
    p = parse_pattern("1:3\n2:4\n9:1\n1:1\n", 12)
    assert p.dtype == bool and p.shape == (12,)
    assert erased_slots(p) == [1, 2, 3, 4, 5, 9]
    assert parse_pattern("1:3\n7:1\n", 12).tolist() == \
        [False] + [True] * 3 + [False] * 3 + [True] + [False] * 4
    assert parse_pattern("", 5).tolist() == [False] * 5


def test_parse_refuses_run_outside_horizon():
    with pytest.raises(ValueError, match="line 2: '-1:2' outside horizon 10"):
        parse_pattern("0:1\n-1:2\n", 10)
    with pytest.raises(ValueError, match="line 3: '9:2' outside horizon 10"):
        parse_pattern("0:1\n# ok\n9:2\n", 10)
    assert erased_slots(parse_pattern("0:1\n8:2\n", 10)) == [0, 8, 9]


def test_zero_length_run_is_accepted_anywhere():
    assert not parse_pattern("5:0\n-3:0\n10:0\n99:0\n", 10).any()


def test_parse_rejects_malformed_line():
    with pytest.raises(ValueError, match="line 2"):
        parse_pattern("0:1\nnope\n", 10)


def test_parse_allows_comments():
    p = parse_pattern("# header\n3:2  # trailing\n", 10)
    assert erased_slots(p) == [3, 4]


# (text, erased slots at horizon 10 or the error message), as the line
# by line parse that the one-pass parse replaced gave them: line breaks
# of str.splitlines, int()'s signs, blanks and underscores, comments,
# overlapping and zero-length runs, and runs past the horizon
PATTERN_TABLE = [
    ("1:3\r\n2:4\r\n", [1, 2, 3, 4, 5]),
    ("0:1\r\n4:2  # two\r\n", [0, 4, 5]),
    ("# x\r3:2\n", [3, 4]),
    ("3:2\r", [3, 4]),
    ("3:2\x0b5:1", [3, 4, 5]),
    ("3:2\x0c1:1\x1c7:1\x852:1\u20280:1", [0, 1, 2, 3, 4, 7]),
    ("+3:1\n", [3]),
    (" 5 : 2\n", [5, 6]),
    ("5 : 2", [5, 6]),
    ("1:2 4:1\n", "bad pattern line 1: '1:2 4:1'"),
    ("1 2:3", "bad pattern line 1: '1 2:3'"),
    ("0_1:1", [1]),
    ("\u0663:1", [3]),
    ("x", "bad pattern line 1: 'x'"),
    ("3:", "bad pattern line 1: '3:'"),
    ("1:2:3", "bad pattern line 1: '1:2:3'"),
    (":", "bad pattern line 1: ':'"),
    ("0:1\nnope\n", "bad pattern line 2: 'nope'"),
    ("x\n0:11\n", "bad pattern line 1: 'x'"),
    ("# runs\n3:2  # one\n\n\t0:4 \n7:0", [0, 1, 2, 3, 4]),
    ("# header\n3:2  # trailing\n", [3, 4]),
    ("  # 0:99 x\n4:1  # 5:2\n", [4]),
    ("#", []),
    ("", []),
    ("\n\n \t\n", []),
    ("1:3\n2:4\n9:1\n1:1\n", [1, 2, 3, 4, 5, 9]),
    ("0:10", [0, 1, 2, 3, 4, 5, 6, 7, 8, 9]),
    ("5:0\n-3:0\n10:0\n99:0\n", []),
    ("-3:0", []),
    ("0:1\n9:2\n", "bad pattern line 2: '9:2' outside horizon 10"),
    ("0:1\n# ok\n-1:2\n", "bad pattern line 3: '-1:2' outside horizon 10"),
    ("10:1", "bad pattern line 1: '10:1' outside horizon 10"),
    ("0:11", "bad pattern line 1: '0:11' outside horizon 10"),
    ("99999999999999999999:1",
     "bad pattern line 1: '99999999999999999999:1' outside horizon 10"),
    ("0:-1", "bad pattern line 1: negative '0:-1'"),
    ("0:1\n5:-3\n", "bad pattern line 2: negative '5:-3'"),
]


@pytest.mark.parametrize("text, want", PATTERN_TABLE)
def test_parse_pattern_table(text, want):
    """``parse_pattern`` gives each text's mask, or its error message."""
    try:
        got = erased_slots(parse_pattern(text, 10))
    except ValueError as exc:
        got = str(exc)
    assert got == want


def test_single_burst():
    assert single_burst(3, 2, 10).tolist() == [False] * 3 + [True] * 2 \
        + [False] * 5
    with pytest.raises(ValueError):
        single_burst(9, 2, 10)


def test_negative_run_length_is_refused():
    # a negative length used to erase nothing, reading as a clean stream
    with pytest.raises(ValueError, match="line 2: negative '5:-3'"):
        parse_pattern("0:1\n5:-3\n", 10)
    with pytest.raises(ValueError, match="burst 5:-3 is not a run inside"):
        single_burst(5, -3, 10)
    assert parse_pattern("5:0\n", 10).tolist() == [False] * 10
    assert single_burst(5, 0, 10).tolist() == [False] * 10


def test_periodic_high_delay_shape():
    # b1=1, b2=2, t2=5: period 6, bursts of 2 at each period head
    p = periodic_pattern(1, 2, 5, HIGH_DELAY, periods=3)
    assert p.dtype == bool and p.shape == (18,)
    assert erased_slots(p) == [0, 1, 6, 7, 12, 13]


def test_periodic_low_delay_shape():
    p = periodic_pattern(1, 2, 5, LOW_DELAY, periods=2, t1=2)
    assert p.shape == (8,)
    assert erased_slots(p) == [0, 1, 4, 5]


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
    assert p.shape == (20,)
    assert erased_slots(p) == [0, 1, 2, 10, 11, 12]


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
    starts, lengths = runs_of(segmented_bursts(segment_len=20, b_max=4,
                                               segments=10, seed=3))
    assert len(starts) == len(lengths) == 10
    for seg, (start, length) in enumerate(zip(starts, lengths)):
        assert seg * 20 <= start and start + length <= (seg + 1) * 20
        assert 0 <= length <= 4


def test_segmented_bursts_matches_draws():
    bursts = segmented_bursts(segment_len=15, b_max=3, segments=5, seed=11)
    assert runs_of(bursts) == drawn_runs(11, 5, 15, 3)
    assert runs_of(segmented_bursts(15, 3, 0, 11)) == ([], [])


def test_segmented_bursts_validation():
    with pytest.raises(ValueError):
        segmented_bursts(segment_len=5, b_max=5, segments=1, seed=0)
    with pytest.raises(ValueError):
        segmented_bursts(segment_len=5, b_max=-1, segments=1, seed=0)
    with pytest.raises(ValueError, match="segments must be >= 0, got -1"):
        segmented_bursts(segment_len=5, b_max=2, segments=-1, seed=0)
    assert [a.tolist() for a in segmented_bursts(5, 2, 0, 0)] == [[], []]


def test_apply_masks_erased_slots():
    p = np.array([False, True, False, True])
    symbols = np.zeros((6, 3), dtype=np.int64)
    assert apply(p, symbols[:4]).tolist() == p.tolist()
    erased = apply(p, symbols)  # padded: slots past the horizon arrive
    assert erased.dtype == bool
    assert erased.tolist() == [False, True, False, True, False, False]
    with pytest.raises(ValueError):
        apply(p, symbols[:2])


def drawn_counts(seed, segments, b_max):
    """Burst length counts from one draw_segment_burst per segment."""
    expect = [0] * (b_max + 1)
    for seg in range(segments):
        expect[draw_segment_burst(seed, seg, b_max + 1, b_max)[1]] += 1
    return expect


@pytest.mark.parametrize("seed", [0, 7, 1009, 2**32 + 5])
def test_burst_length_counts_match_draws(seed):
    # across a chunk boundary; 2**32 + 5 is a two-word seed
    segments = channel._CHUNK + 50
    counts = burst_length_counts(seed, segments, range(9))
    assert sorted(counts) == list(range(9))
    for b_max in range(9):
        assert counts[b_max] == drawn_counts(seed, segments, b_max), b_max


def test_burst_length_counts_share_histograms_up_to_a_bound():
    """Ranges whose common multiple passes _BINS take histograms of their
    own, and a range above _BINS one alone; the counts still equal the
    draws."""
    b_max_list = [0, 4, 10, 11, 12, channel._BINS + 7]
    groups = channel._histogram_groups(b_max_list)
    assert sorted(b for _, group in groups for b in group) == b_max_list
    assert len(groups) > 2
    for bins, group in groups:
        assert all(bins % (b_max + 1) == 0 for b_max in group)
        assert bins <= channel._BINS or len(group) == 1
    counts = burst_length_counts(7, 300, b_max_list)
    for b_max in b_max_list:
        assert counts[b_max] == drawn_counts(7, 300, b_max), b_max


def test_rejected_words_are_bin_firsts():
    """Every first word that numpy rejects for a range n dividing bins,
    those with w * n mod 2**32 below 2**32 % n, is one of _bin_firsts,
    and the words after it are not."""
    bins = 2520  # the common multiple of the ranges 1..9
    rejected = [((length << 32) + low) // n for n in range(1, 10)
                for length in range(n) for low in range((1 << 32) % n)
                if ((length << 32) + low) % n == 0]
    assert len(rejected) > 5
    words = np.array(rejected + [w + 1 for w in rejected], dtype=np.uint64)
    firsts = channel._bin_firsts(words * np.uint64(bins), bins)
    assert firsts.tolist() == list(range(len(rejected)))
    for w in rejected:
        n = next(n for n in range(1, 10) if w * n % 2**32 < 2**32 % n)
        _, ok = channel._bounded(np.array([w], dtype=np.uint64), np.uint64(n))
        assert not ok[0], (w, n)


def test_burst_length_counts_repeats_and_validation():
    assert burst_length_counts(3, 50, [4, 0, 4]) == burst_length_counts(3, 50, [0, 4])
    assert sum(burst_length_counts(3, 50, [4, 4])[4]) == 50
    assert burst_length_counts(3, 50, []) == {}
    with pytest.raises(ValueError):
        burst_length_counts(3, 50, [2, -1])
    with pytest.raises(ValueError, match="segments must be >= 0, got -5"):
        burst_length_counts(1, -5, [3])
    assert burst_length_counts(1, 0, [3]) == {3: [0, 0, 0, 0]}


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
        runs = runs_of(segmented_bursts(segment_len, b_max, segments, seed))
        assert runs == drawn_runs(seed, segments, segment_len, b_max), \
            (segment_len, b_max)
        assert 0 in runs[1]  # zero-length bursts are compared too


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
    # b_max 1: every burst of length 1 draws its start from [0, 3 * 2**30);
    # a zero-length one has start 0, whatever the kernel's raw start
    runs = runs_of(segmented_bursts(high, 1, 400, 7))
    assert runs == drawn_runs(7, 400, high, 1)
    assert 0 < runs[1].count(0) < 400


def test_kernel_rejected_lengths_are_drawn_by_the_definition(monkeypatch):
    """Every word drawn on its own, and every third of those rejected
    with a wrong value: the counts and the bursts still equal the draws,
    so a rejected word is drawn again by the definition, not counted."""
    bounded = channel._bounded
    redrawn = []
    draw = channel.draw_segment_burst

    def reject_every_third(word, high):
        values, ok = bounded(word, high)
        ok[::3] = False
        values[::3] = 0
        return values, ok

    def counting_draw(*args):
        redrawn.append(args)
        return draw(*args)

    expect = burst_length_counts(7, 300, range(9))
    monkeypatch.setattr(channel, "_bounded", reject_every_third)
    monkeypatch.setattr(channel, "_bin_firsts",
                        lambda products, bins: np.arange(len(products)))
    monkeypatch.setattr(channel, "draw_segment_burst", counting_draw)
    assert burst_length_counts(7, 300, range(9)) == expect
    assert len(redrawn) == 9 * 100
    assert runs_of(segmented_bursts(20, 8, 300, 7)) == drawn_runs(7, 300, 20, 8)


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

import random
from fractions import Fraction

import numpy as np
import pytest

from streamfec.channel import ErasurePattern, single_burst
from streamfec.desco import (DeScoParams, desco_build, ia_sco_build,
                             sco_build)
from streamfec.oracle import (ml_decode_times, rlc_burst_losses,
                              rlc_decode_times, rlc_partial_threshold,
                              rlc_perfect_threshold)
from streamfec.sco import ScoParams

rng = random.Random(20240819)


# ---------------------------------------------------------
# Unrestricted-decoder oracle
# ---------------------------------------------------------

def staged_times(codec, pattern):
    stream = np.zeros((pattern.horizon, codec.symbol_width), dtype=np.int64)
    erased = np.zeros(pattern.horizon, dtype=bool)
    erased[list(pattern.slots)] = True
    _, log = codec.decode(stream, erased)
    return log.sub_times


def test_ml_matches_staged_on_single_user_bursts():
    codec = sco_build(ScoParams(2, 3))
    for start in (5, 9):
        pattern = single_burst(start, 2, 20)
        assert np.array_equal(ml_decode_times(codec, pattern),
                              staged_times(codec, pattern))


def test_ml_matches_staged_on_combined_random_patterns():
    codecs = [desco_build(DeScoParams(1, 2, 2)),
              desco_build(DeScoParams(2, 5, 3, 2)),
              ia_sco_build(1, 2, 2)]
    for codec in codecs:
        horizon = 36
        for _ in range(15):
            slots = tuple(s for s in range(horizon - codec.user2_deadline - 2)
                          if rng.random() < 0.12)
            pattern = ErasurePattern(slots, horizon)
            assert np.array_equal(ml_decode_times(codec, pattern),
                                  staged_times(codec, pattern))


def test_ml_unrecoverable_stays_none():
    codec = sco_build(ScoParams(1, 2))
    times = ml_decode_times(codec, single_burst(4, 4, 20))
    assert (times == -1).any()


def test_ml_clean_slots_are_instant():
    codec = sco_build(ScoParams(2, 3))
    times = ml_decode_times(codec, ErasurePattern((), 8))
    assert all(times[(s, k)] == s for s in range(8) for k in range(3))


# ---------------------------------------------------------
# Information-debt model
# ---------------------------------------------------------

def test_rlc_single_burst_group_decode():
    # R=2/3, burst of 2 at slot 5: debt 4/3, retired by 4 clean slots
    times = rlc_decode_times(Fraction(2, 3), single_burst(5, 2, 20))
    assert times[5] == times[6] == 10
    assert times[4] == 4 and times[7] == 7


def test_rlc_burst_longer_debt():
    times = rlc_decode_times(Fraction(1, 2), single_burst(3, 3, 20))
    assert times[3] == times[4] == times[5] == 8  # debt 3/2 needs 3 slots


def test_rlc_back_to_back_bursts_accumulate():
    p = ErasurePattern((4, 5, 7), 30)
    times = rlc_decode_times(Fraction(1, 2), p)
    # debt never clears between the bursts (only one clean slot at 6)
    assert times[4] == times[5] == times[7]


def test_rlc_rate_validation():
    with pytest.raises(ValueError):
        rlc_decode_times(Fraction(1), single_burst(0, 1, 4))


def test_rlc_perfect_threshold_values():
    assert rlc_perfect_threshold(Fraction(1, 2), 4) == 2
    assert rlc_perfect_threshold(Fraction(2, 3), 5) == 2
    assert rlc_perfect_threshold(Fraction(5, 7), 10) == 3


def test_rlc_perfect_threshold_is_tight():
    # at the threshold every burst symbol meets the deadline; above it not
    for rate, t in [(Fraction(1, 2), 4), (Fraction(2, 3), 5),
                    (Fraction(5, 7), 10)]:
        bmax = rlc_perfect_threshold(rate, t)
        assert rlc_burst_losses(rate, bmax, t) == 0
        assert rlc_burst_losses(rate, bmax + 1, t) > 0
        times = rlc_decode_times(rate, single_burst(10, bmax, 60))
        assert all(times[10 + j] <= 10 + j + t for j in range(bmax))


def test_rlc_burst_losses_matches_simulation():
    for rate, t in [(Fraction(1, 2), 4), (Fraction(2, 3), 5)]:
        for length in range(0, 10):
            times = rlc_decode_times(rate, single_burst(10, length, 80)) \
                if length else {}
            sim = sum(1 for j in range(length)
                      if times[10 + j] is None or times[10 + j] > 10 + j + t)
            assert rlc_burst_losses(rate, length, t) == sim, (rate, t, length)


def test_rlc_partial_threshold_values():
    assert rlc_partial_threshold(1, 2, 2) == 2
    assert rlc_partial_threshold(4, 4, 8) == 12
    assert rlc_partial_threshold(2, 5, 3) == 3


def test_rlc_partial_recovery_band():
    # between perfect and partial thresholds some, but not all, symbols miss
    rate = Fraction(4, 8)  # t1/(t1+b1) for (4, 4)
    t2 = 12  # weak deadline for alpha = 2
    perfect = rlc_perfect_threshold(rate, t2)
    partial = rlc_partial_threshold(4, 4, 8)
    assert perfect == 6 and partial == 12
    for length in range(perfect + 1, partial + 1):
        lost = rlc_burst_losses(rate, length, t2)
        assert 0 < lost < length
    assert rlc_burst_losses(rate, partial + 1, t2) >= partial + 1 - t2

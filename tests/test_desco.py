import random
from fractions import Fraction

import numpy as np
import pytest

from streamfec.channel import apply, single_burst
from streamfec.decoder import Component
from streamfec.desco import (CombinedCodec, DeScoCodec, DeScoParams,
                             burst_decode_log, burst_loss_count, desco_build,
                             descriptor, ia_sco_build, optimal_delay,
                             parse_descriptor, rate_upper_bound, sco_build,
                             sweep_max_delay)
from streamfec.gf import GF
from streamfec.sco import ScoParams, capacity

rng = random.Random(20240818)


def random_source(codec, slots):
    q = codec.field.order
    return np.array([[rng.randrange(q) for _ in range(codec.subs_per_slot)]
                     for _ in range(slots)])


# ---------------------------------------------------------
# Bounds and parameters
# ---------------------------------------------------------

def test_optimal_delay_values():
    assert optimal_delay(1, 2, Fraction(2)) == 5
    assert optimal_delay(2, 5, Fraction(3, 2)) == 10
    assert optimal_delay(2, 3, Fraction(3)) == 11


def test_optimal_delay_validation():
    with pytest.raises(ValueError):
        optimal_delay(1, 2, Fraction(1))
    with pytest.raises(ValueError):
        optimal_delay(1, 2, Fraction(3, 2))  # alpha * b not integral


def test_rate_upper_bound_regimes():
    assert rate_upper_bound(1, 2, 5) == 1 - Fraction(2, 6)
    assert rate_upper_bound(1, 2, 2, t1=2) == Fraction(2, 4)  # t2 < t1 + b1
    assert rate_upper_bound(2, 3, 9) == 1 - Fraction(3, 10)  # rational ratio
    with pytest.raises(ValueError):
        rate_upper_bound(2, 2, 5)  # ratio not > 1


def test_rate_meets_upper_bound_at_optimal_delay():
    # at t2 = alpha*t1 + b1 the bound equals t1/(t1+b1)
    for (b1, t1, alpha) in [(1, 2, 2), (2, 3, 2), (1, 4, 3)]:
        t2 = alpha * t1 + b1
        assert rate_upper_bound(b1, alpha * b1, t2) == Fraction(t1, t1 + b1)


def test_params_properties():
    p = DeScoParams(2, 5, 3, 2)
    assert p.alpha == Fraction(3, 2)
    assert p.b2 == 3
    assert p.expansion == 2
    assert p.delta == 14
    assert p.t2_star == Fraction(19, 2)
    assert p.user2_deadline == 10
    assert p.rate == Fraction(5, 7)


def test_params_integer_alpha_no_expansion():
    p = DeScoParams(1, 2, 2)
    assert p.expansion == 1 and p.delta == 3 and p.user2_deadline == 5
    assert p.rate == capacity(1, 2)


def test_params_validation():
    with pytest.raises(ValueError):
        DeScoParams(1, 2, 1)          # alpha <= 1
    with pytest.raises(ValueError):
        DeScoParams(1, 2, 4, 2)       # not coprime
    with pytest.raises(ValueError):
        DeScoParams(3, 2, 2)          # b1 > t1
    with pytest.raises(ValueError):
        DeScoParams(3, 4, 3, 2)       # b1 not divisible by b


def test_source_expand():
    p = DeScoParams(2, 5, 3, 2)
    b0, t0 = p.base_size
    assert p.expansion == 2
    # (n*b1, n*t1) on the expanded clock is the base code at step b
    assert (p.b * b0, p.b * t0) == (4, 10)


# ---------------------------------------------------------
# Encoding
# ---------------------------------------------------------

def test_12_alpha2_combined_parity_formula():
    codec = desco_build(DeScoParams(1, 2, 2))
    src = random_source(codec, 20)

    def s(j, t):
        return src[t][j] if t >= 0 else 0

    stream = codec.encode_stream(src)
    for t in range(20):
        assert np.array_equal(stream[t][:2], src[t])
        want = s(0, t - 2) ^ s(1, t - 1) ^ s(0, t - 4) ^ s(1, t - 5)
        assert stream[t][2] == want, t


def test_symbol_width_rational_alpha():
    codec = desco_build(DeScoParams(2, 5, 3, 2))
    assert codec.subs_per_slot == 10  # n * t0 = 2 * 5
    assert codec.parities_per_slot == 4
    assert codec.symbol_width == 14
    stream = codec.encode_stream(random_source(codec, 5))
    assert all(len(sym) == 14 for sym in stream)


def encode_step(codec, src, t):
    """Slot t's channel symbol from the slots its parities reach."""
    return codec.encode_stream(src[max(0, t - codec.reach_slots):t + 1])[-1]


def test_encode_step_matches_stream():
    codec = desco_build(DeScoParams(1, 2, 2))
    src = random_source(codec, 8)
    full = codec.encode_stream(src)
    for t in range(8):
        assert np.array_equal(encode_step(codec, src, t), full[t])


@pytest.mark.parametrize("codec", [desco_build(DeScoParams(1, 2, 2)),
                                   desco_build(DeScoParams(2, 3, 3, 2)),
                                   ia_sco_build(1, 2, 2)])
def test_encode_step_reads_only_the_reach(codec):
    keep = max(comp.reach for comp in codec.components)  # in stream slots
    src = random_source(codec, 3 * keep + 4)
    full = codec.encode_stream(src)
    assert codec.reach_slots == keep
    for t in range(len(src)):
        # slots before the window are not passed, so they go unread
        assert np.array_equal(encode_step(codec, src, t), full[t]), t


def test_encode_rejects_elements_outside_the_field():
    codec = desco_build(DeScoParams(1, 2, 2))  # GF(4), 2 subs per slot
    for bad in ([[0, -1]], [[4, 0]], [[0, 1], [2, 1 << 70]]):
        with pytest.raises(ValueError):
            codec.encode_stream(np.array(bad))
    with pytest.raises(ValueError):
        codec.encode_stream(np.array([[0, 1, 2]]))


def test_combined_codec_rejects_mismatched_components():
    c = desco_build(DeScoParams(1, 2, 2))
    other = desco_build(DeScoParams(2, 3, 2))
    with pytest.raises(ValueError):
        CombinedCodec([c.components[0],
                       Component(other.components[1].codec, shift=3)],
                      deadlines=(2, 5))
    with pytest.raises(ValueError):  # one expansion for all components
        CombinedCodec([c.components[0],
                       Component(c.components[1].codec, 3, expansion=2)],
                      deadlines=(2, 5))


# ---------------------------------------------------------
# Decoding
# ---------------------------------------------------------

def decode_burst(codec, src, start, length):
    stream = codec.encode_stream(src)
    erased = apply(single_burst(start, length, len(stream)), stream)
    return codec.decode(stream, erased)


def test_user1_unaffected_by_embedding():
    codec = desco_build(DeScoParams(2, 3, 2))
    src = random_source(codec, 30)
    out, log = decode_burst(codec, src, 10, 2)
    assert np.array_equal(out, src)
    assert log.misses(codec.deadline(1)) == []
    times = log.slot_times[10:12]
    assert (times >= 0).all()
    assert max(times - [10, 11]) == 3


def test_12_alpha2_double_burst_recovery_times():
    codec = desco_build(DeScoParams(1, 2, 2))
    src = random_source(codec, 25)
    out, log = decode_burst(codec, src, 9, 2)
    assert np.array_equal(out, src)
    assert log.misses(codec.deadline(2)) == []
    times = {(s, k): log.sub_times[(s, k)] for s in (9, 10) for k in (0, 1)}
    assert times[(10, 0)] == 12
    assert times[(9, 0)] == 13
    assert times[(9, 1)] == 14  # worst case: exactly delay 5
    assert 0 <= times[(10, 1)] <= 15


def test_user2_miss_when_burst_exceeds_b2():
    codec = desco_build(DeScoParams(1, 2, 2))
    log = burst_decode_log(codec, 20, 3)
    assert log.misses(codec.deadline(2)) != []


def test_delay_grid():
    cases = [(1, 2, 2, 1), (2, 3, 3, 1), (2, 3, 3, 2), (2, 5, 3, 2),
             (2, 2, 2, 1), (2, 4, 5, 2)]
    for (b1, t1, a, b) in cases:
        p = DeScoParams(b1, t1, a, b)
        codec = desco_build(p)
        window = 4 * (t1 + p.user2_deadline)
        w1, m1 = sweep_max_delay(codec, b1, user=1, window=window)
        assert (w1, m1) == (t1, 0), (b1, t1, a, b)
        w2, m2 = sweep_max_delay(codec, p.b2, user=2, window=window)
        assert (w2, m2) == (p.user2_deadline, 0), (b1, t1, a, b)


def test_sweep_rejects_a_window_without_a_start():
    codec = desco_build(DeScoParams(1, 2, 2))
    with pytest.raises(ValueError, match="shorter than the burst"):
        sweep_max_delay(codec, 2, 2, 1)
    assert sweep_max_delay(codec, 2, 2, 2) == (5, 0)  # one start fits


def test_zero_stream_burst_is_structural():
    codec = desco_build(DeScoParams(2, 3, 2))
    src = random_source(codec, 40)
    for length in (2, 4, 5):
        _, log_rand = decode_burst(codec, src, 15, length)
        log_zero = burst_decode_log(codec, 15, length, horizon=40)
        deadline = codec.deadline(2)
        assert log_rand.misses(deadline) == log_zero.misses(deadline)
        assert np.array_equal(log_rand.sub_times, log_zero.sub_times)


def test_burst_loss_count_profile_12_alpha2():
    codec = desco_build(DeScoParams(1, 2, 2))
    got = [burst_loss_count(codec, length) for length in range(6)]
    assert [u2 for _, u2 in got] == [0, 0, 0, 3, 4, 5]
    assert [u1 for u1, _ in got[:4]] == [0, 0, 2, 3]


# ---------------------------------------------------------
# Interference-avoidance baseline
# ---------------------------------------------------------

def test_ia_baseline_has_larger_user2_delay():
    ia = ia_sco_build(2, 3, 2)
    de = desco_build(DeScoParams(2, 3, 2))
    assert ia.user2_deadline == 9 and de.user2_deadline == 8
    w_ia, m_ia = sweep_max_delay(ia, 4, user=2, window=60)
    w_de, m_de = sweep_max_delay(de, 4, user=2, window=60)
    assert (w_ia, m_ia) == (9, 0)
    assert (w_de, m_de) == (8, 0)


def test_ia_deadline_values():
    assert ia_sco_build(1, 2, 2).user2_deadline == 6
    assert ia_sco_build(1, 2, 3).user2_deadline == 8


def test_ia_user1_still_meets_t1():
    ia = ia_sco_build(2, 3, 2)
    w, m = sweep_max_delay(ia, 2, user=1, window=40)
    assert (w, m) == (3, 0)


def test_ia_rejects_fractional_alpha():
    with pytest.raises(ValueError):
        ia_sco_build(1, 2, 1)


# ---------------------------------------------------------
# Descriptor round-trip
# ---------------------------------------------------------

def test_descriptor_roundtrip_bit_exact():
    for params in (DeScoParams(1, 2, 2), DeScoParams(2, 5, 3, 2)):
        codec = desco_build(params)
        clone = parse_descriptor(descriptor(codec))
        assert clone.params == params
        assert clone.field == codec.field
        src = random_source(codec, 12)
        assert np.array_equal(clone.encode_stream(src),
                              codec.encode_stream(src))


def test_descriptor_with_explicit_field():
    codec = DeScoCodec(DeScoParams(1, 2, 2), field=GF.binary(4))
    clone = parse_descriptor(descriptor(codec))
    assert clone.field.degree == 4


def test_parse_descriptor_errors():
    with pytest.raises(ValueError):
        parse_descriptor("b1=1\nt1=2\n")  # missing keys
    with pytest.raises(ValueError):
        parse_descriptor("nonsense line\n")
    with pytest.raises(ValueError, match="row 0, column 1"):
        parse_descriptor("b1=2\nt1=5\na=2\nfield=3\nh=6-1f,5-2,1-3\n")
    with pytest.raises(ValueError, match="1..16"):
        parse_descriptor("b1=1\nt1=2\na=2\nfield=17\n")


def test_decode_rejects_bad_user_and_width():
    codec = desco_build(DeScoParams(1, 2, 2))
    stream = codec.encode_stream(random_source(codec, 5))
    erased = np.zeros(5, dtype=bool)
    with pytest.raises(ValueError):
        codec.deadline(3)
    with pytest.raises(ValueError, match=r"1\.\.2"):
        sweep_max_delay(codec, 2, 3, 10)
    single = sco_build(ScoParams(1, 2))
    with pytest.raises(ValueError, match=r"1\.\.1"):
        single.deadline(2)
    with pytest.raises(ValueError):  # two of the three symbols per slot
        codec.decode(stream[:, :2], erased)

import random
from fractions import Fraction

import numpy as np
import pytest

from streamfec.channel import apply, single_burst
from streamfec.decoder import Component
from streamfec.desco import (CombinedCodec, DeScoCodec, DeScoParams,
                             burst_outcomes, descriptor,
                             ia_sco_build, optimal_delay, parse_descriptor,
                             rate_upper_bound, sco_build)
from streamfec.gf import GF
from streamfec.sco import ScoParams, capacity, memory_bound
from streamfec.wire import pack_stream

from zero_bursts import burst_outcome, zero_burst_log

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
    # ceil(alpha*t1 + b1) = ceil(19/2)
    assert p.user2_deadline == optimal_delay(p.b1, p.t1, p.alpha) == 10
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
    for args, name in (((1.0, 2, 2), "b1"), ((1, 2.5, 2), "t1"),
                       ((1, 2, 2.0), "a"), ((2, 5, 3, 2.0), "b")):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            DeScoParams(*args)


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
    codec = DeScoCodec(DeScoParams(1, 2, 2))
    src = random_source(codec, 20)

    def s(j, t):
        return src[t][j] if t >= 0 else 0

    stream = codec.encode_stream(src)
    for t in range(20):
        assert np.array_equal(stream[t][:2], src[t])
        want = s(0, t - 2) ^ s(1, t - 1) ^ s(0, t - 4) ^ s(1, t - 5)
        assert stream[t][2] == want, t


def test_symbol_width_rational_alpha():
    codec = DeScoCodec(DeScoParams(2, 5, 3, 2))
    assert codec.subs_per_slot == 10  # n * t0 = 2 * 5
    assert codec.parities_per_slot == 4
    assert codec.symbol_width == 14
    stream = codec.encode_stream(random_source(codec, 5))
    assert all(len(sym) == 14 for sym in stream)


def test_encode_step_matches_stream():
    codec = DeScoCodec(DeScoParams(1, 2, 2))
    src = random_source(codec, 8)
    full = codec.encode_stream(src)
    r = codec.reach_slots
    for t in range(8):
        # a streaming encoder's step: the current slot and reach_slots before
        assert np.array_equal(
            codec.encode_stream(src[max(0, t - r):t + 1])[-1], full[t]), t


@pytest.mark.parametrize("codec", [
    pytest.param(sco_build(ScoParams(2, 3, field=GF(1))), id="sco-2-3-gf2"),
    pytest.param(sco_build(ScoParams(2, 3, step=2)), id="sco-2-3-step2"),
    pytest.param(DeScoCodec(DeScoParams(1, 2, 2)), id="desco-1-2-2"),
    pytest.param(DeScoCodec(DeScoParams(2, 3, 3, 2)), id="desco-2-3-3/2"),
    pytest.param(ia_sco_build(1, 2, 2), id="ia-1-2-2"),
])
def test_every_slot_encodes_from_reach_slots_of_history(codec):
    keep = codec.reach_slots
    assert keep == max(comp.reach for comp in codec.components)  # in slots
    if len(codec.components) == 1:  # a single-user code's memory
        assert keep == memory_bound(codec.components[0].codec.params)
    src = random_source(codec, 3 * keep + 4)
    full = codec.encode_stream(src)
    for t in range(len(src)):
        # slots before the last reach_slots are not passed, so they go unread
        assert np.array_equal(
            codec.encode_stream(src[max(0, t - keep):t + 1])[-1], full[t]), t


def test_encode_rejects_elements_outside_the_field():
    codec = DeScoCodec(DeScoParams(1, 2, 2))  # GF(4), 2 subs per slot
    for bad in ([[0, -1]], [[4, 0]], [[0, 1], [2, 1 << 70]]):
        with pytest.raises(ValueError):
            codec.encode_stream(np.array(bad))
    with pytest.raises(ValueError):
        codec.encode_stream(np.array([[0, 1, 2]]))


def test_combined_codec_rejects_mismatched_components():
    c = DeScoCodec(DeScoParams(1, 2, 2))
    other = DeScoCodec(DeScoParams(2, 3, 2))
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
    codec = DeScoCodec(DeScoParams(2, 3, 2))
    src = random_source(codec, 30)
    out, log = decode_burst(codec, src, 10, 2)
    assert np.array_equal(out, src)
    assert log.misses(codec.deadline(1)) == []
    times = log.slot_times[10:12]
    assert (times >= 0).all()
    assert max(times - [10, 11]) == 3


def test_12_alpha2_double_burst_recovery_times():
    codec = DeScoCodec(DeScoParams(1, 2, 2))
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
    codec = DeScoCodec(DeScoParams(1, 2, 2))
    log = zero_burst_log(codec, 20, 3)
    assert log.misses(codec.deadline(2)) != []


def test_delay_grid():
    cases = [(1, 2, 2, 1), (2, 3, 3, 1), (2, 3, 3, 2), (2, 5, 3, 2),
             (2, 2, 2, 1), (2, 4, 5, 2)]
    for (b1, t1, a, b) in cases:
        p = DeScoParams(b1, t1, a, b)
        codec = DeScoCodec(p)
        w1, m1 = burst_outcome(codec, b1, user=1)
        assert (w1, m1) == (t1, 0), (b1, t1, a, b)
        w2, m2 = burst_outcome(codec, p.b2, user=2)
        assert (w2, m2) == (p.user2_deadline, 0), (b1, t1, a, b)


def test_zero_stream_burst_is_structural():
    codec = DeScoCodec(DeScoParams(2, 3, 2))
    src = random_source(codec, 40)
    for length in (2, 4, 5):
        _, log_rand = decode_burst(codec, src, 15, length)
        log_zero = zero_burst_log(codec, 15, length, horizon=40)
        deadline = codec.deadline(2)
        assert log_rand.misses(deadline) == log_zero.misses(deadline)
        assert np.array_equal(log_rand.sub_times, log_zero.sub_times)


def test_burst_outcome_misses_by_length_12_alpha2():
    codec = DeScoCodec(DeScoParams(1, 2, 2))
    got = [burst_outcomes(codec, [length])[length][1] for length in range(6)]
    assert [u2 for _, u2 in got] == [0, 0, 0, 3, 4, 5]
    assert [u1 for u1, _ in got[:4]] == [0, 0, 2, 3]
    with pytest.raises(ValueError, match="burst length must be >= 0, got -1"):
        burst_outcomes(codec, [2, -1])


@pytest.mark.parametrize("codec, b2", [
    pytest.param(DeScoCodec(DeScoParams(1, 2, 2)), 2, id="desco-1-2-2"),
    pytest.param(DeScoCodec(DeScoParams(2, 5, 2)), 4, id="desco-2-5-2"),
    pytest.param(DeScoCodec(DeScoParams(3, 8, 3)), 9, id="desco-3-8-3"),
    pytest.param(DeScoCodec(DeScoParams(2, 3, 3, 2)), 3, id="desco-2-3-3/2"),
    pytest.param(ia_sco_build(1, 2, 2), 2, id="ia-1-2-2"),
])
def test_burst_outcomes_equal_one_full_decode_per_length(codec, b2):
    """``burst_outcomes`` gives each length the worst delay and the
    misses, per user, of one decode of that burst alone at start 0."""
    lengths = range(1, 2 * b2 + 3)
    expect = {}
    for length in lengths:
        log = zero_burst_log(codec, 0, length)
        times = log.slot_times[:length]  # -1 for a slot never recovered
        worst = int((times - np.arange(length))[times >= 0].max(initial=0))
        expect[length] = (worst,
                          tuple(len(log.misses(d)) for d in codec.deadlines))
    assert burst_outcomes(codec, lengths) == expect


# ---------------------------------------------------------
# Interference-avoidance baseline
# ---------------------------------------------------------

def test_ia_baseline_has_larger_user2_delay():
    ia = ia_sco_build(2, 3, 2)
    de = DeScoCodec(DeScoParams(2, 3, 2))
    assert ia.user2_deadline == 9 and de.user2_deadline == 8
    w_ia, m_ia = burst_outcome(ia, 4, user=2)
    w_de, m_de = burst_outcome(de, 4, user=2)
    assert (w_ia, m_ia) == (9, 0)
    assert (w_de, m_de) == (8, 0)


def test_ia_deadline_values():
    assert ia_sco_build(1, 2, 2).user2_deadline == 6
    assert ia_sco_build(1, 2, 3).user2_deadline == 8


def test_ia_user1_still_meets_t1():
    ia = ia_sco_build(2, 3, 2)
    w, m = burst_outcome(ia, 2, user=1)
    assert (w, m) == (3, 0)


def test_ia_rejects_fractional_alpha():
    with pytest.raises(ValueError):
        ia_sco_build(1, 2, 1)
    for alpha in (2.0, 2.5):
        with pytest.raises(ValueError, match="alpha must be an integer"):
            ia_sco_build(1, 2, alpha)


# ---------------------------------------------------------
# Descriptor round-trip
# ---------------------------------------------------------

def test_descriptor_roundtrip_bit_exact():
    for params in (DeScoParams(1, 2, 2), DeScoParams(2, 5, 3, 2)):
        codec = DeScoCodec(params)
        clone = parse_descriptor(descriptor(codec))
        assert clone.params == params
        assert clone.field == codec.field
        src = random_source(codec, 12)
        assert np.array_equal(clone.encode_stream(src),
                              codec.encode_stream(src))


def test_descriptor_with_explicit_field():
    codec = DeScoCodec(DeScoParams(1, 2, 2), field=GF(4))
    clone = parse_descriptor(descriptor(codec))
    assert clone.field.degree == 4


def test_descriptor_skips_comment_and_blank_lines():
    codec = DeScoCodec(DeScoParams(2, 5, 2))
    clone = parse_descriptor("# DE-SCo (2,5,2)\n\n" + descriptor(codec)
                             + "  # end\n")
    assert clone.params == codec.params
    assert clone.components[0].codec.h == codec.components[0].codec.h


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
    codec = DeScoCodec(DeScoParams(1, 2, 2))
    stream = codec.encode_stream(random_source(codec, 5))
    erased = np.zeros(5, dtype=bool)
    with pytest.raises(ValueError, match=r"1\.\.2"):
        codec.deadline(3)
    single = sco_build(ScoParams(1, 2))
    with pytest.raises(ValueError, match=r"1\.\.1"):
        single.deadline(2)
    with pytest.raises(ValueError):  # two of the three symbols per slot
        codec.decode(stream[:, :2], erased)


@pytest.mark.parametrize("mask, dtype, shape", [
    ([False, True, False, False, False], "list", (5,)),
    (np.array([0, 1, 0, 0, 0]), "int64", (5,)),
    (np.array([0.0, 1.0, 0.0, 0.0, 0.0]), "float64", (5,)),
    (np.zeros((5, 1), dtype=bool), "bool", (5, 1)),
    (np.zeros(4, dtype=bool), "bool", (4,)),
    (None, "NoneType", ()),
])
def test_decode_refuses_a_mask_that_is_not_one_bool_per_slot(mask, dtype,
                                                             shape):
    """A non-array is named by its type alone, ``dtype`` here."""
    codec = DeScoCodec(DeScoParams(1, 2, 2))
    stream = codec.encode_stream(random_source(codec, 5))
    with pytest.raises(ValueError) as exc:
        codec.decode(stream, mask)
    named = (f"dtype {dtype} and shape {shape}" if hasattr(mask, "dtype")
             else f"type {dtype}")
    assert f"a mask of {named}" in str(exc.value)


@pytest.mark.parametrize("convert, dtype, shape", [
    (lambda s: s.astype(np.float64), "float64", (5, 3)),
    (lambda s: s.astype(np.complex128), "complex128", (5, 3)),
    (lambda s: s.tolist(), "list", (5, 3)),
    (lambda s: s[0, 0], "uint8", ()),
    # ragged: no shape to name
    (lambda s: [s[0].tolist(), s[1, :1].tolist()], "list", None),
])
def test_decode_refuses_symbols_that_are_not_an_integer_array(convert,
                                                              dtype, shape):
    """Decode, and encode and pack through the same check: encode is
    given a source-shaped array, its first two columns.  A non-array is
    named by its type alone, ``dtype`` here."""
    codec = DeScoCodec(DeScoParams(1, 2, 2))
    stream = codec.encode_stream(random_source(codec, 5))
    erased = np.array([False, True, False, False, False])
    for call, columns in [(lambda s: codec.decode(s, erased), 3),
                          (codec.encode_stream, 2),
                          (lambda s: pack_stream(s, codec.field), 3)]:
        arg = convert(stream[:, :columns])
        with pytest.raises(ValueError) as exc:
            call(arg)
        if hasattr(arg, "dtype"):
            got = shape[:1] + (columns,) * (len(shape) - 1)
            named = f"dtype {dtype} and shape {got}"
        else:
            named = f"type {dtype}"
        assert f"symbols of {named}" in str(exc.value)


@pytest.mark.parametrize("value", [-1, 4])  # GF(4) holds 0..3
@pytest.mark.parametrize("slot", [12, 25], ids=["read", "unread"])
def test_decode_names_a_received_element_outside_the_field(slot, value):
    """Refused in a slot right after the burst, which the decoder reads,
    and in one past the burst's reach, which it never reads; an erased
    row may hold any value."""
    codec = DeScoCodec(DeScoParams(1, 2, 2))
    rx = codec.encode_stream(np.zeros((30, 2), dtype=np.int64))
    rx = rx.astype(np.int64)
    erased = single_burst(10, 2, 30)
    rx[10] = value
    assert codec.decode(rx, erased)[1].misses(codec.deadline(2)) == []
    rx[slot, 2] = value
    with pytest.raises(ValueError,
                       match=f"element {value} at row {slot}, column 2 "):
        codec.decode(rx, erased)

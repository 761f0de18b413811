import random
from fractions import Fraction

import numpy as np
import pytest

from streamfec.bebc import make_burst_parity
from streamfec.channel import apply, single_burst
from streamfec.desco import sco_build
from streamfec.gf import GF
from streamfec.sco import (MAIN, OFF, ScoCodec, ScoParams, capacity,
                           memory_bound, vertical_interleave)

GF2 = GF(1)
rng = random.Random(20240817)


def random_source(codec, slots):
    q = codec.field.order
    return np.array([[rng.randrange(q) for _ in range(codec.subs_per_slot)]
                     for _ in range(slots)])


def decode_with_burst(codec, source, start, length):
    stream = codec.encode_stream(source)
    erased = apply(single_burst(start, length, len(stream)), stream)
    return codec.decode(stream, erased)


# ---------------------------------------------------------
# Rate / capacity
# ---------------------------------------------------------

def test_capacity_values():
    assert capacity(2, 3) == Fraction(3, 5)
    assert capacity(1, 2) == Fraction(2, 3)
    assert capacity(3, 2) == 0


def test_capacity_refuses_negative_parameters():
    with pytest.raises(ValueError, match="b and t must be non-negative"):
        capacity(-1, 2)


def test_codec_refuses_a_parity_matrix_of_other_parameters():
    h = make_burst_parity(3, 1)
    with pytest.raises(ValueError, match="parity matrix does not match params"):
        ScoCodec(ScoParams(1, 2), h)


def test_rate_is_b_over_t_plus_b():
    p = ScoParams(2, 5, step=3, field=GF2)
    codec = sco_build(p)
    assert codec.parities_per_slot == 2 and codec.subs_per_slot == 5
    assert p.rate == Fraction(5, 7)


# ---------------------------------------------------------
# Encoding golden formulas
# ---------------------------------------------------------

def check_parities(params, formulas, slots=20):
    codec = sco_build(params)
    src = np.array([[rng.randrange(2) for _ in range(params.t)]
                    for _ in range(slots)])

    def s(j, t):
        return src[t][j] if t >= 0 else 0

    stream = codec.encode_stream(src)
    for t in range(slots):
        assert np.array_equal(stream[t][:params.t], src[t])
        assert np.array_equal(stream[t][params.t:],
                              [f(s, t) for f in formulas]), t


def test_23_main_parities():
    check_parities(ScoParams(2, 3, field=GF2),
                   [lambda s, t: s(0, t - 3) ^ s(2, t - 1),
                    lambda s, t: s(1, t - 3) ^ s(2, t - 2)])


def test_12_main_parity():
    check_parities(ScoParams(1, 2, field=GF2),
                   [lambda s, t: s(0, t - 2) ^ s(1, t - 1)])


def test_zero_source_gives_zero_parities():
    codec = sco_build(ScoParams(2, 5, field=GF2))
    for sym in codec.encode_stream(np.array([[0] * 5] * 12)):
        assert np.array_equal(sym[5:], (0, 0))


def test_encoders_reject_elements_outside_the_field():
    codec = sco_build(ScoParams(2, 3))  # GF(8)
    r = codec.reach_slots
    for bad in ([0, 0, -1], [8, 0, 0]):
        with pytest.raises(ValueError):
            codec.encode_stream(np.array([bad]))
        with pytest.raises(ValueError):  # the step at slot 0: no history
            codec.encode_stream(np.array([bad])[max(0, -r):1])
    one = np.array([[1, 2, 3]])
    assert np.array_equal(codec.encode_stream(one[max(0, -r):1])[-1],
                          codec.encode_stream(one)[0])


def test_component_rejects_non_causal_templates():
    from streamfec.decoder import Component
    codec = ScoCodec(ScoParams(1, 2))
    assert Component(codec).reach == memory_bound(codec.params)
    with pytest.raises(ValueError, match="causal"):
        Component(codec, shift=-2)


# ---------------------------------------------------------
# Vertical interleaving
# ---------------------------------------------------------

def test_interleave_12_alpha2_parity():
    check_parities(vertical_interleave(ScoParams(1, 2, field=GF2), 2),
                   [lambda s, t: s(0, t - 4) ^ s(1, t - 2)])


def test_interleave_equals_decimated_substreams():
    base_params = ScoParams(1, 2, field=GF2)
    base = sco_build(base_params)
    inter = sco_build(vertical_interleave(base_params, 2))
    src = random_source(inter, 16)
    got = inter.encode_stream(src)
    for phase in range(2):
        sub = base.encode_stream(src[phase::2])
        for k, sym in enumerate(sub):
            assert np.array_equal(got[2 * k + phase][2:], sym[2:])


def test_interleave_alpha3_corrects_length3_bursts():
    params = vertical_interleave(ScoParams(1, 2, field=GF2), 3)
    codec = sco_build(params)
    src = random_source(codec, 40)
    for start in range(40 - 3 - memory_bound(params)):  # tail slack
        out, log = decode_with_burst(codec, src, start, 3)
        assert np.array_equal(out, src)
        assert log.misses(codec.deadline(1)) == []  # every symbol within delay 6


# ---------------------------------------------------------
# Decoding
# ---------------------------------------------------------

def test_23_burst_recovered_within_3():
    codec = sco_build(ScoParams(2, 3, field=GF2))
    src = random_source(codec, 25)
    out, log = decode_with_burst(codec, src, 9, 2)
    assert np.array_equal(out, src)
    assert log.misses(codec.deadline(1)) == []
    times = log.slot_times[9:11]
    assert (times >= 0).all()
    assert max(times - [9, 10]) == 3


def test_no_erasures_passthrough():
    codec = sco_build(ScoParams(2, 3, field=GF2))
    src = random_source(codec, 10)
    out, log = codec.decode(codec.encode_stream(src), np.zeros(10, dtype=bool))
    assert np.array_equal(out, src)
    assert log.misses(codec.deadline(1)) == []
    assert log.slot_times.tolist() == list(range(10))


def test_oversized_burst_marks_losses_not_raises():
    codec = sco_build(ScoParams(1, 2, field=GF2))
    src = random_source(codec, 20)
    out, log = decode_with_burst(codec, src, 8, 4)
    assert log.misses(codec.deadline(1))  # some slots lost
    assert (log.slot_times < 0).any()  # not every slot recovered


def test_exhaustive_small_grid():
    for t in range(1, 5):
        for b in range(1, t + 1):
            for step in (1, 2, 3):
                codec = sco_build(ScoParams(b, t, step=step))
                window = 5 * (t + b)
                src = random_source(codec, window + t * step + b * step + 2)
                for start in range(window - b * step + 1):
                    out, log = decode_with_burst(codec, src, start, b * step)
                    assert np.array_equal(out, src), (b, t, step, start)
                    assert log.misses(codec.deadline(1)) == [], \
                        (b, t, step, start)


def test_multiple_separated_bursts():
    codec = sco_build(ScoParams(2, 3, field=GF2))
    src = random_source(codec, 40)
    stream = codec.encode_stream(src)
    erased = np.zeros(len(stream), dtype=bool)
    for s in (5, 6, 20, 21):  # separation >> (t+b)*step
        erased[s] = True
    out, log = codec.decode(stream, erased)
    assert np.array_equal(out, src)
    assert log.misses(codec.deadline(1)) == []


def test_diagonal_erasure_count_structural():
    # a channel burst of b*step slots hits each diagonal in <= b entries
    for params in (ScoParams(2, 5, step=2, field=GF2),
                   ScoParams(2, 5, step=2, orientation=OFF, field=GF2)):
        codec = ScoCodec(params)
        b, t, m = params.b, params.t, params.step
        for start in range(30, 30 + t * m):
            burst = set(range(start, start + b * m))
            for i in range(60):
                hits = sum(codec.info_entry(i, k)[0] in burst for k in range(t))
                assert hits <= b


# ---------------------------------------------------------
# Memory and urgent split
# ---------------------------------------------------------

def test_memory_bound_values():
    assert memory_bound(ScoParams(2, 3, field=GF2)) == 3
    assert memory_bound(ScoParams(1, 2, step=2, field=GF2)) == 4


def test_memory_twin_stream():
    params = ScoParams(2, 5, field=GF2)
    codec = sco_build(params)
    src_a = random_source(codec, 20)
    src_b = src_a.copy()
    src_b[5] ^= 1  # perturb at lag 6 from slot 11
    a = codec.encode_stream(src_a)
    b = codec.encode_stream(src_b)
    lag = memory_bound(params)
    for t in range(5 + lag + 1, 20):
        assert np.array_equal(a[t][5:], b[t][5:])


def entry_subs(codec, diag=40):
    """Subs of diagonal ``diag``'s entries 0..t-1; 0..b-1 are urgent."""
    return [codec.info_entry(diag, k)[1] for k in range(codec.t)]


def test_split_urgent_main():
    # the urgent entries 0..b-1 of a main diagonal sit at subs 0..b-1
    codec = ScoCodec(ScoParams(2, 5, field=GF2))
    subs = entry_subs(codec)
    assert subs[:2] == [0, 1] and subs[2:] == [2, 3, 4]


def test_split_urgent_off_diagonal():
    # on a reversed diagonal they sit at subs t-1..t-b
    codec = ScoCodec(ScoParams(2, 5, orientation=OFF, field=GF2))
    subs = entry_subs(codec)
    assert subs[:2] == [4, 3] and subs[2:] == [2, 1, 0]


def test_split_urgent_b_equals_t():
    # with b = t every entry is urgent, and each parity reads its own entry
    codec = ScoCodec(ScoParams(3, 3, field=GF2))
    assert entry_subs(codec)[:codec.b] == [0, 1, 2]
    assert [codec.h.coeff(e, j) for j in range(3) for e in range(3)] \
        == [1, 0, 0, 0, 1, 0, 0, 0, 1]


def test_params_validation():
    with pytest.raises(ValueError):
        ScoParams(3, 2)
    with pytest.raises(ValueError):
        ScoParams(1, 2, step=0)
    with pytest.raises(ValueError):
        ScoParams(1, 2, orientation="diag")
    with pytest.raises(ValueError):
        vertical_interleave(ScoParams(1, 2), 1)
    # a non-integer parameter is refused by name, not carried into a
    # float deadline or sub index
    for kwargs, name in (({"b": 1.0, "t": 2}, "b"), ({"b": 1, "t": 2.5}, "t"),
                         ({"b": 1, "t": 2, "step": 1.5}, "step")):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            ScoParams(**kwargs)
    with pytest.raises(ValueError, match="alpha must be an integer"):
        vertical_interleave(ScoParams(1, 2), 2.0)

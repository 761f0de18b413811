"""Property tests over random sources and random multi-burst patterns.

Codecs: single-user, DE-SCo with integer and with rational alpha
(expansion 2), and the interference-avoidance baseline.
"""

import pytest
from hypothesis import given, strategies as st

from streamfec.channel import ErasurePattern, apply
from streamfec.desco import (DeScoCodec, DeScoParams, burst_decode_log,
                             ia_sco_build, sco_build)
from streamfec.gf import GF
from streamfec.oracle import ml_decode_times
from streamfec.sco import ScoParams
from streamfec.wire import element_width, pack_stream, unpack_stream

CODECS = {
    "single": sco_build(ScoParams(2, 3)),
    "desco": DeScoCodec(DeScoParams(1, 2, 2)),
    "desco-rational": DeScoCodec(DeScoParams(2, 3, 3, 2)),
    "ia": ia_sco_build(1, 2, 2),
}


def decode(codec, rx):
    """Decode for the codec's last (slowest) user."""
    return codec.decode(rx, len(codec.deadlines))


@st.composite
def channel_runs(draw, codec, max_horizon=28):
    """(source, erasure pattern) with a few bursts anywhere in the stream."""
    horizon = draw(st.integers(6, max_horizon))
    element = st.integers(0, codec.field.order - 1)
    width = codec.subs_per_slot
    source = draw(st.lists(st.lists(element, min_size=width, max_size=width),
                           min_size=horizon, max_size=horizon))
    bursts = draw(st.lists(st.tuples(st.integers(0, horizon - 1),
                                     st.integers(1, 4)), max_size=4))
    erased = {s for start, n in bursts
              for s in range(start, min(horizon, start + n))}
    return source, ErasurePattern(tuple(erased), horizon)


def reference_parities(codec, source):
    """Per stream slot, the parities from ScoCodec.parity_value on the
    expanded clock and from Component.terms on the stream clock, computed
    element by element.  Stream row r * b0 + j is expanded parity j at
    sub-slot r."""
    f = codec.field
    n = codec.components[0].expansion
    t0, b0 = codec.components[0].codec.t, codec.components[0].codec.b
    expanded = [row[r * t0:(r + 1) * t0] for row in source for r in range(n)]
    by_value, by_terms = [], []
    for i in range(len(source)):
        pv, pt = [], []
        for r in range(n):
            for j in range(b0):
                a = b = 0
                for comp in codec.components:
                    a = f.add(a, comp.codec.parity_value(
                        n * i + r - comp.shift, j, expanded))
                    for (slot, sub), c in comp.terms(i, r * b0 + j)[1].items():
                        if slot >= 0:
                            b = f.add(b, f.mul(c, source[slot][sub]))
                pv.append(a)
                pt.append(b)
        by_value.append(pv)
        by_terms.append(pt)
    return by_value, by_terms


@pytest.mark.parametrize("name", CODECS)
@given(data=st.data())
def test_array_encoder_matches_scalar_reference(name, data):
    codec = CODECS[name]
    source, _ = data.draw(channel_runs(codec))
    stream = codec.encode_stream(source)
    by_value, by_terms = reference_parities(codec, source)
    assert by_value == by_terms
    subs = codec.subs_per_slot
    for i, sym in enumerate(stream):
        assert list(sym[:subs]) == list(source[i])
        assert list(sym[subs:]) == by_value[i], i


@pytest.mark.parametrize("name", CODECS)
@given(data=st.data())
def test_staged_decode_never_returns_a_wrong_value(name, data):
    codec = CODECS[name]
    source, pattern = data.draw(channel_runs(codec))
    recovered, _ = decode(codec, apply(pattern, codec.encode_stream(source)))
    for i, slot in enumerate(recovered):
        for k, v in enumerate(slot):
            assert v is None or v == source[i][k], (i, k)


@pytest.mark.parametrize("name", CODECS)
@given(data=st.data())
def test_staged_decode_is_never_earlier_than_ml(name, data):
    codec = CODECS[name]
    source, pattern = data.draw(channel_runs(codec))
    _, log = decode(codec, apply(pattern, codec.encode_stream(source)))
    ml = ml_decode_times(codec, pattern)
    for var, t in log.sub_times.items():
        if t is not None:
            assert ml[var] is not None and ml[var] <= t, var


@pytest.mark.parametrize("name", CODECS)
@given(data=st.data())
def test_trace_events_are_on_the_stream_clock(name, data):
    codec = CODECS[name]
    source, pattern = data.draw(channel_runs(codec))
    _, log = decode(codec, apply(pattern, codec.encode_stream(source)))
    for ev in log.trace:
        assert log.sub_times[(ev.slot, ev.sub)] == ev.time, ev
        assert -1 <= ev.row < codec.parities_per_slot, ev


@pytest.mark.parametrize("name", CODECS)
@given(data=st.data())
def test_cached_slot_times_match_definition(name, data):
    codec = CODECS[name]
    source, pattern = data.draw(channel_runs(codec))
    _, log = decode(codec, apply(pattern, codec.encode_stream(source)))

    def slot_time(slot):
        times = [log.sub_times.get((slot, k)) for k in range(log.n_subs)]
        return None if any(t is None for t in times) else max(times)

    for slot in range(-2, log.horizon + 2):
        assert log.slot_time(slot) == slot_time(slot), slot
    assert log.misses == [s for s in range(log.horizon)
                          if slot_time(s) is None
                          or slot_time(s) > s + log.deadline]
    assert log.fully_recovered == all(slot_time(s) is not None
                                      for s in range(log.horizon))


@pytest.mark.parametrize("name", CODECS)
@given(data=st.data())
def test_burst_decodes_alike_at_every_start_past_reach(name, data):
    codec = CODECS[name]
    first = codec.reach_slots
    start = data.draw(st.integers(0, first + 40))
    length = data.draw(st.integers(1, 8))
    user = data.draw(st.integers(1, len(codec.deadlines)))
    ref = burst_decode_log(codec, first, length, user)
    log = burst_decode_log(codec, start, length, user)
    span = ref.horizon - first
    assert log.horizon - start == span
    assert [log.slot_delay(start + k) for k in range(span)] \
        == [ref.slot_delay(first + k) for k in range(span)]
    assert [m - start for m in log.misses] == [m - first for m in ref.misses]


@pytest.mark.parametrize("name", CODECS)
@given(data=st.data())
def test_encode_step_reads_reach_slots_of_history(name, data):
    codec = CODECS[name]
    keep = codec.reach_slots
    assert keep == max(c.reach for c in codec.components)
    source, _ = data.draw(channel_runs(codec))
    full = codec.encode_stream(source)
    t = data.draw(st.integers(0, len(source) - 1))
    old = max(0, t - keep)
    history = [None] * old + source[old:t]  # older slots must go unread
    assert codec.encode_step(history, source[t]) == full[t]


FIELDS = [GF.binary(1), GF.binary(3), GF.binary(8), GF.binary(9),
          GF.binary(16)]


@st.composite
def packed_streams(draw):
    field = draw(st.sampled_from(FIELDS))
    width = draw(st.integers(1, 5))
    element = st.integers(0, field.order - 1)
    slots = draw(st.lists(st.tuples(*[element] * width), max_size=12))
    return field, width, slots


@given(packed_streams())
def test_wire_roundtrip(case):
    field, width, slots = case
    data = pack_stream(slots, field)
    assert len(data) == len(slots) * width * element_width(field)
    assert unpack_stream(data, field, width) == slots


@given(packed_streams(), st.data())
def test_wire_rejects_out_of_range_elements(case, data):
    field, width, slots = case
    if not slots:
        return
    i = data.draw(st.integers(0, len(slots) * width - 1))
    bad = data.draw(st.one_of(st.integers(max_value=-1),
                              st.integers(min_value=field.order)))
    flat = [v for slot in slots for v in slot]
    flat[i] = bad
    rows = [flat[s:s + width] for s in range(0, len(flat), width)]
    with pytest.raises(ValueError):
        pack_stream(rows, field)
    # the same element read back from the wire names its byte offset
    w = element_width(field)
    if 0 <= bad < 256 ** w:
        good = bytearray(pack_stream(slots, field))
        good[i * w:(i + 1) * w] = bad.to_bytes(w, "big")
        with pytest.raises(ValueError, match=f"byte {i * w}:"):
            unpack_stream(bytes(good), field, width)

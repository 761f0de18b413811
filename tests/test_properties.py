"""Property tests over random sources and random multi-burst patterns.

Codecs: single-user, DE-SCo with integer and with rational alpha
(expansion 2), and the interference-avoidance baseline.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from streamfec import channel, decoder
from streamfec.channel import apply
from streamfec.decoder import staged_decode
from streamfec.desco import DeScoCodec, DeScoParams, ia_sco_build, sco_build
from streamfec.gf import GF, InconsistentSystemError
from streamfec.sco import ScoParams
from streamfec.wire import check_stream, pack_stream, unpack_stream

from reference_decoder import ml_decode_times, reference_decode
from zero_bursts import zero_burst_log

CODECS = {
    "single": sco_build(ScoParams(2, 3)),
    "desco": DeScoCodec(DeScoParams(1, 2, 2)),
    "desco-rational": DeScoCodec(DeScoParams(2, 3, 3, 2)),
    "ia": ia_sco_build(1, 2, 2),
}


def decode(codec, stream, pattern):
    """Decode a stream with the pattern's slots erased."""
    return codec.decode(stream, apply(pattern, stream))


@st.composite
def channel_runs(draw, codec, max_horizon=28):
    """(source, erasure pattern) with a few bursts anywhere in the stream."""
    horizon = draw(st.integers(6, max_horizon))
    element = st.integers(0, codec.field.order - 1)
    width = codec.subs_per_slot
    source = np.array(draw(st.lists(
        st.lists(element, min_size=width, max_size=width),
        min_size=horizon, max_size=horizon)))
    bursts = draw(st.lists(st.tuples(st.integers(0, horizon - 1),
                                     st.integers(1, 4)), max_size=4))
    erased = np.zeros(horizon, dtype=bool)
    for start, n in bursts:
        erased[start:start + n] = True  # the slice stops at the horizon
    return source, erased


def reference_parities(codec, source):
    """Per stream slot, the parities from ScoCodec.parity_value on the
    expanded clock and from the Component templates on the stream clock,
    computed element by element.  Stream row r * b0 + j is expanded
    parity j at sub-slot r."""
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
                    a ^= comp.codec.parity_value(
                        n * i + r - comp.shift, j, expanded)
                    for ds, sub, c in comp.templates[r * b0 + j][1]:
                        if i + ds >= 0:
                            b ^= f.mul(c, source[i + ds][sub])
                pv.append(a)
                pt.append(b)
        by_value.append(pv)
        by_terms.append(pt)
    return by_value, by_terms


# two-byte elements: the encoder's uint16 kernel
WIDE = {"desco-gf12": DeScoCodec(DeScoParams(1, 2, 2), field=GF(12))}


@pytest.mark.parametrize("name", [*CODECS, *WIDE])
@given(data=st.data())
def test_array_encoder_matches_scalar_reference(name, data):
    codec = {**CODECS, **WIDE}[name]
    source, _ = data.draw(channel_runs(codec))
    stream = codec.encode_stream(source)
    # the wire's element width, so pack_stream writes it without a cast
    assert stream.dtype == codec.field.dtype
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
    recovered, log = decode(codec, codec.encode_stream(source), pattern)
    known = log.sub_times >= 0
    assert np.array_equal(recovered[known], source[known])
    assert not recovered[~known].any()  # unrecovered reads 0


@st.composite
def clustered_runs(draw, codec):
    """(source, erasure mask, first corrupted slot or None) whose clusters
    exercise the grouping by shape.

    A motif of bursts with gaps of reach - 1, reach and reach + 1 clean
    slots (one cluster, or several) repeats once, twice or 65 times,
    with gaps of at least reach between the copies, so one run of a
    shape holds one, two or 65 columns.  The first burst is at slot 0, 1 or reach + 1, and the stream ends
    0 .. reach + 1 slots after the last one, so the last cluster's shape
    may be clipped at the horizon.  A third of the streams get a random
    parity column from the second copy on (the first burst's end when
    there is one copy), after the first cluster of every shape.
    """
    reach = codec.reach_slots
    near = st.sampled_from([reach - 1, reach, reach + 1])
    bursts = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    gaps = [draw(near) for _ in bursts[1:]] + [draw(st.sampled_from(
        [reach, reach + 1]))]
    repeats = draw(st.sampled_from([1, 2, 65]))
    lead = draw(st.sampled_from([0, 1, reach + 1]))
    tail = draw(st.sampled_from([0, 1, reach - 1, reach, reach + 1]))
    motif = [False] * lead
    for length, gap in zip(bursts, gaps):
        motif += [True] * length + [False] * gap
    copy = len(motif) - lead
    erased = np.array(lead * [False] + repeats * motif[lead:], dtype=bool)
    erased = erased[:len(erased) - gaps[-1] + tail]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    source = rng.integers(0, codec.field.order,
                          (len(erased), codec.subs_per_slot))
    corrupt = draw(st.sampled_from([None, None, "corrupt"]))
    if corrupt:
        corrupt = lead + (copy if repeats > 1 else bursts[0])
    return source, erased, corrupt


@pytest.mark.parametrize("name", [*CODECS, *WIDE])
@given(data=st.data())
def test_shape_grouped_decode_equals_reference(name, data):
    """Decoding each cluster shape once for all its clusters gives the
    per-cluster reference's values, times and trace, in order, and a
    contradiction in one decode exactly when the reference has one, at
    the same stream slot.  The GF(2^12) codec multiplies vectors through
    uint16 product rows."""
    codec = {**CODECS, **WIDE}[name]
    source, erased, corrupt = data.draw(clustered_runs(codec))
    rx = codec.encode_stream(source)
    if corrupt is not None:
        rng = np.random.default_rng(corrupt)
        rx[corrupt:, codec.subs_per_slot] ^= rng.integers(
            1, codec.field.order, len(rx) - corrupt).astype(rx.dtype)
    args = (codec.components, codec.field, codec.subs_per_slot,
            codec.parities_per_slot, rx, erased)
    results = []
    for decode_fn in (reference_decode, staged_decode):
        try:
            results.append(decode_fn(*args))
        except InconsistentSystemError as exc:
            results.append(exc.slot)
    want, got = results
    assert isinstance(got, int) == isinstance(want, int)
    if isinstance(want, int):
        assert got == want
    else:
        assert_same_decode(got, want)


def assert_same_decode(got, want):
    """Equal recovered values, times and trace, in order."""
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])
    assert len(got[2]) == len(want[2])
    assert list(got[2]) == list(want[2])


HORIZON = decoder._HORIZON


@pytest.mark.parametrize("name, n_clusters", [
    pytest.param("desco", 2 * HORIZON + 193, id="desco"),
    pytest.param("desco-rational", 2 * HORIZON + 193, id="desco-rational"),
    pytest.param("desco", 2 * HORIZON, id="desco-two-full-horizons"),
    pytest.param("desco-rational", 2 * HORIZON,
                 id="desco-rational-two-full-horizons"),
    pytest.param("desco", 0, id="desco-no-erasure"),
    pytest.param("desco-rational", 0, id="desco-rational-no-erasure"),
])
def test_shape_grouped_decode_across_grouping_horizons(name, n_clusters):
    """One shape repeats more than a grouping horizon holds, interleaved
    with a second, so both take one run per grouping horizon, on each
    side of two horizon boundaries; a third shape, the last cluster, is
    clipped at the stream's end.  The stream holds 2 * _HORIZON + 193
    clusters, exactly 2 * _HORIZON (the last grouping horizon is full)
    or none.  The decode equals the per-cluster reference's, the trace's
    length and order included."""
    codec = CODECS[name]
    reach = codec.reach_slots
    period = 2 * reach + 4  # > reach clean slots after each cluster
    erased = np.zeros(max(n_clusters - 1, 1) * period + 1, dtype=bool)
    for i in range(n_clusters - 1):
        # every 5th cluster is a 2-slot burst, the others 1 slot
        erased[i * period:i * period + 1 + (i % 5 == 2)] = True
    if n_clusters:
        erased[-2:] = True
    assert len(list(decoder._clusters(erased, reach))) == n_clusters
    rng = np.random.default_rng(11)
    source = rng.integers(0, codec.field.order,
                          (len(erased), codec.subs_per_slot))
    args = (codec.components, codec.field, codec.subs_per_slot,
            codec.parities_per_slot, codec.encode_stream(source), erased)
    assert_same_decode(staged_decode(*args), reference_decode(*args))


def test_trace_length_builds_no_event(monkeypatch):
    """A trace's length is counted without building an event and equals
    the number it yields, and it yields the reference decoder's events
    in stream order.  The decode spans 33 grouping horizons, shrunk to 4
    clusters, with clusters of two shapes that repeat within each and
    one at the stream's end."""
    monkeypatch.setattr(decoder, "_HORIZON", 4)
    codec = CODECS["desco-rational"]
    period = 2 * codec.reach_slots + 4
    erased = np.zeros(130 * period, dtype=bool)
    for i in range(130):
        erased[i * period:i * period + 1 + (i % 3 == 1)] = True
    erased[-1] = True
    rng = np.random.default_rng(5)
    source = rng.integers(0, codec.field.order,
                          (len(erased), codec.subs_per_slot))
    args = (codec.components, codec.field, codec.subs_per_slot,
            codec.parities_per_slot, codec.encode_stream(source), erased)
    trace = staged_decode(*args)[2]

    built = []

    class CountingEvent(decoder.TraceEvent):
        def __new__(cls, *fields):
            built.append(fields)
            return super().__new__(cls, *fields)

    monkeypatch.setattr(decoder, "TraceEvent", CountingEvent)
    n = len(trace)
    assert built == []
    events = list(trace)
    assert n == len(events) == len(built) >= 300
    assert events == reference_decode(*args)[2]


def test_contradiction_names_the_earliest_cluster():
    """Two clusters of one shape, each with one corrupted element: the
    first contradicts at 19 slots past its start, the second at 17.  The
    error names the first's slot, as the per-cluster reference does,
    though the second's contradiction comes at an earlier offset."""
    codec = DeScoCodec(DeScoParams(2, 5, 2))
    rx = np.zeros((100, codec.symbol_width), dtype=np.int64)
    erased = np.zeros(100, dtype=bool)
    for start in (20, 60):
        erased[[start, start + 1, start + 6, start + 7]] = True
    rx[22, 1] = rx[62, 0] = 1
    args = (codec.components, codec.field, codec.subs_per_slot,
            codec.parities_per_slot, rx, erased)
    slots = []
    for decode_fn in (reference_decode, staged_decode):
        with pytest.raises(InconsistentSystemError) as exc:
            decode_fn(*args)
        slots.append(exc.value.slot)
    assert slots == [39, 39]


@pytest.mark.parametrize("name", CODECS)
@given(data=st.data())
def test_erased_rows_are_never_read(name, data):
    """Whatever an erased slot's row holds, values outside the field
    included, the recovered values, recovery times and trace are those
    of the same stream with the row zeroed."""
    codec = CODECS[name]
    source, erased, _ = data.draw(clustered_runs(codec))
    rx = codec.encode_stream(source)
    rx[erased] = 0
    filled = rx.copy()
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    filled[erased] = rng.integers(-2**40, 2**40, filled[erased].shape)
    want, got = (staged_decode(codec.components, codec.field,
                               codec.subs_per_slot, codec.parities_per_slot,
                               symbols, erased) for symbols in (rx, filled))
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])
    assert list(got[2]) == list(want[2])


@pytest.mark.parametrize("name", CODECS)
@given(data=st.data())
def test_staged_decode_is_never_earlier_than_ml(name, data):
    codec = CODECS[name]
    source, pattern = data.draw(channel_runs(codec))
    _, log = decode(codec, codec.encode_stream(source), pattern)
    ml = ml_decode_times(codec, pattern)
    for var, t in np.ndenumerate(log.sub_times):
        if t >= 0:
            assert 0 <= ml[var] <= t, var


@pytest.mark.parametrize("name", CODECS)
@given(data=st.data())
def test_decoder_keeps_values_of_erased_sub_symbols_only(name, data):
    """Received sub-symbols are read in place and erased ones hold their
    recovered value, 0 if never recovered; a received row of times is its
    own slot."""
    codec = CODECS[name]
    source, pattern = data.draw(channel_runs(codec))
    rx = codec.encode_stream(source)
    recovered, times, _ = staged_decode(codec.components, codec.field,
                                        codec.subs_per_slot,
                                        codec.parities_per_slot, rx,
                                        apply(pattern, rx))
    assert recovered.shape == times.shape == (len(pattern),
                                              codec.subs_per_slot)
    for (slot, sub), t in np.ndenumerate(times):
        if pattern[slot]:
            assert recovered[slot, sub] == (source[slot, sub] if t >= 0
                                            else 0), (slot, sub)
        else:
            assert t == slot, (slot, sub)
            assert recovered[slot, sub] == source[slot, sub], (slot, sub)


@pytest.mark.parametrize("name", CODECS)
@given(data=st.data())
def test_trace_events_are_on_the_stream_clock(name, data):
    codec = CODECS[name]
    source, pattern = data.draw(channel_runs(codec))
    _, log = decode(codec, codec.encode_stream(source), pattern)
    for ev in log.trace:
        assert log.sub_times[(ev.slot, ev.sub)] == ev.time, ev
        assert -1 <= ev.row < codec.parities_per_slot, ev


@pytest.mark.parametrize("name", CODECS)
@given(data=st.data())
def test_cached_slot_times_match_definition(name, data):
    codec = CODECS[name]
    source, pattern = data.draw(channel_runs(codec))
    _, log = decode(codec, codec.encode_stream(source), pattern)

    def slot_time(slot):
        times = [int(t) for t in log.sub_times[slot]]
        return -1 if min(times) < 0 else max(times)

    assert log.slot_times.tolist() == [slot_time(s)
                                       for s in range(log.horizon)]
    # one decode serves every user: each deadline reads the same times
    for deadline in codec.deadlines:
        assert log.misses(deadline) == [
            s for s in range(log.horizon)
            if slot_time(s) < 0 or slot_time(s) > s + deadline], deadline


@pytest.mark.parametrize("name", CODECS)
@given(data=st.data())
def test_burst_decodes_alike_at_every_start_past_reach(name, data):
    codec = CODECS[name]
    first = codec.reach_slots
    start = data.draw(st.integers(0, first + 40))
    length = data.draw(st.integers(1, 8))
    ref = zero_burst_log(codec, first, length)
    log = zero_burst_log(codec, start, length)
    span = ref.horizon - first

    def delays(log, at):
        """Delay of each slot from ``at`` on, -1 where not recovered."""
        times = log.slot_times[at:at + span]
        return np.where(times < 0, -1, times - np.arange(at, at + span))

    assert log.horizon - start == span
    assert np.array_equal(delays(log, start), delays(ref, first))
    for deadline in codec.deadlines:
        assert [m - start for m in log.misses(deadline)] \
            == [m - first for m in ref.misses(deadline)]


def decode_bursts(codec, bursts, horizon):
    """Log of an all-zero stream with the given (start, length) bursts."""
    erased = np.zeros(horizon, dtype=bool)
    for start, length in bursts:
        erased[start:start + length] = True
    zeros = np.zeros((horizon, codec.symbol_width), dtype=np.int64)
    return codec.decode(zeros, erased)[1]


@pytest.mark.parametrize("name", CODECS)
@given(data=st.data())
def test_bursts_reach_apart_decode_alone(name, data):
    """Two bursts with at least reach_slots clean slots between them decode
    like each burst alone, shifted: same sub-symbol times and misses."""
    codec = CODECS[name]
    reach = codec.reach_slots
    bursts = [(data.draw(st.integers(0, reach)), data.draw(st.integers(1, 8)))]
    second = sum(bursts[0]) + data.draw(st.integers(reach, reach + 6))
    bursts.append((second, data.draw(st.integers(1, 8))))
    horizon = sum(bursts[1]) + max(codec.deadlines) + 2
    joint = decode_bursts(codec, bursts, horizon)
    misses = {deadline: [] for deadline in codec.deadlines}
    for start, length in bursts:
        alone = zero_burst_log(codec, 0, length, horizon - start)
        rows = joint.sub_times[start:start + length]
        assert np.array_equal(np.where(rows < 0, -1, rows - start),
                              alone.sub_times[:length]), (start, length)
        for deadline in codec.deadlines:
            misses[deadline] += [m + start for m in alone.misses(deadline)]
    for deadline in codec.deadlines:
        assert joint.misses(deadline) == misses[deadline], deadline


# IA (1,2,2), reach_slots 6: user-2 sub-symbol times of a 3-slot burst at
# slot 0 and a 1-slot burst after 5 (reach_slots - 1) or 4 clean slots.
CLOSE_BURST_TIMES = {
    5: [[7, -1], [7, 5], [-1, 7], [3, 3], [4, 4], [5, 5], [6, 6], [7, 7],
        [10, 9], [9, 9], [10, 10], [11, 11], [12, 12], [13, 13], [14, 14],
        [15, 15], [16, 16]],
    4: [[-1, 11], [-1, 5], [11, -1], [3, 3], [4, 4], [5, 5], [6, 6], [9, 11],
        [8, 8], [9, 9], [10, 10], [11, 11], [12, 12], [13, 13], [14, 14],
        [15, 15]],
}


@pytest.mark.parametrize("gap", CLOSE_BURST_TIMES)
def test_bursts_closer_than_reach_decode_jointly(gap):
    """The second burst erases parities the first one needs, so the joint
    decode differs from the first burst decoded alone.  A cluster reset at
    the second burst is still exact at gap reach_slots - 1: no parity after
    it reads the first burst.  At gap reach_slots - 2 the parity right after
    it does, so a reset there loses the recovery of sub-symbol (0, 1)."""
    codec = ia_sco_build(1, 2, 2)
    assert codec.reach_slots == 6
    second = 3 + gap
    horizon = second + 1 + max(codec.deadlines) + 2
    log = decode_bursts(codec, [(0, 3), (second, 1)], horizon)
    assert log.sub_times.tolist() == CLOSE_BURST_TIMES[gap]
    alone = zero_burst_log(codec, 0, 3, horizon)
    assert log.misses(codec.deadline(2)) != alone.misses(codec.deadline(2))


def test_decoder_working_memory_does_not_grow_with_length():
    """tracemalloc peak minus the retained outputs of ``staged_decode``
    with a 4-slot burst every 50 slots stays flat with stream length:
    decoder state lives for one grouping horizon of ``_HORIZON``
    clusters, and the times array is filled without a horizon-long
    temporary.  Both lengths fill at least two grouping horizons, so the
    comparison reads growth with length, not the fill of the first
    horizon.  On DE-SCo (2,5,2) every burst is recovered; on (1,2,2)
    most are not, so few retained outputs hide the working memory.  A
    run decodes all of a shape's clusters in a grouping horizon, so
    (2,5,2) also has a ceiling that a window built through full-size
    temporaries exceeds."""
    def working_bytes(codec, slots):
        rx = np.zeros((slots, codec.symbol_width), dtype=np.int64)
        erased = np.zeros(slots, dtype=bool)
        for start in range(0, slots, 50):
            erased[start:start + 4] = True
        tracemalloc.start()
        try:
            result = staged_decode(codec.components, codec.field,
                                   codec.subs_per_slot,
                                   codec.parities_per_slot, rx, erased)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak - current, int((result[1][erased] >= 0).sum())

    short, long = 2 * 50 * decoder._HORIZON, 8 * 50 * decoder._HORIZON
    codec = DeScoCodec(DeScoParams(2, 5, 2))
    (small, _), (large, recovered) = (working_bytes(codec, short),
                                      working_bytes(codec, long))
    assert recovered == long // 50 * 4 * codec.subs_per_slot
    assert large < small + 16 * 1024, (small, large)
    assert small < 5 * 2**20, small
    codec = DeScoCodec(DeScoParams(1, 2, 2))
    (small, _), (large, _) = (working_bytes(codec, short),
                              working_bytes(codec, long))
    assert large < small + 16 * 1024, (small, large)


@given(seed=st.integers(0, 2**128 - 1),
       first=st.sampled_from([0, 8_000, 2**32 - 40, 2**32, 2**45]),
       count=st.integers(1, 40))
def test_batched_segment_outputs_equal_numpy(seed, first, count):
    """The kernel's first output of each segment's generator equals
    numpy's, for seeds of one to four 32-bit words and ranges of one
    and two words (a range may not cross 2**32)."""
    stop = first + count if first >= 2**32 else min(first + count, 2**32)
    out = channel._first_outputs(seed, first, stop)
    assert out.tolist() == [
        int(np.random.PCG64(np.random.SeedSequence([seed, seg])).random_raw())
        for seg in range(first, stop)]


@given(seed=st.integers(0, 2**128 - 1), segments=st.integers(1, 60),
       segment_len=st.integers(1, 40), data=st.data())
def test_batched_bursts_equal_draw_segment_burst(seed, segments, segment_len,
                                                 data):
    b_max = data.draw(st.integers(0, segment_len - 1))
    draws = [channel.draw_segment_burst(seed, seg, segment_len, b_max)
             for seg in range(segments)]
    starts, lengths = channel.segmented_bursts(segment_len, b_max, segments,
                                               seed)
    assert list(zip(starts.tolist(), lengths.tolist())) == [
        (seg * segment_len + start, length)
        for seg, (start, length) in enumerate(draws)]
    counts = channel.burst_length_counts(seed, segments, [b_max])[b_max]
    assert counts == [sum(length == n for _, length in draws)
                      for n in range(b_max + 1)]


@pytest.mark.parametrize("name", CODECS)
@given(data=st.data())
def test_any_slot_encodes_from_reach_slots_of_history(name, data):
    codec = CODECS[name]
    keep = codec.reach_slots
    assert keep == max(c.reach for c in codec.components)
    source, _ = data.draw(channel_runs(codec))
    full = codec.encode_stream(source)
    t = data.draw(st.integers(0, len(source) - 1))
    # older slots are not passed, so they must go unread
    window = codec.encode_stream(source[max(0, t - keep):t + 1])
    assert np.array_equal(window[-1], full[t])


FIELDS = [GF(1), GF(3), GF(8), GF(9),
          GF(16)]


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
    slots = np.array(slots, dtype=np.int64).reshape(-1, width)
    data = pack_stream(slots, field)
    assert len(data) == len(slots) * width * field.dtype.itemsize
    assert np.array_equal(unpack_stream(data, field, width), slots)


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
        pack_stream(np.array(rows), field)
    # the same element read back from the wire is refused by the one
    # element rule, naming its row and column
    w = field.dtype.itemsize
    if 0 <= bad < 256 ** w:
        good = bytearray(pack_stream(np.array(slots), field))
        good[i * w:(i + 1) * w] = bad.to_bytes(w, "big")
        unpacked = unpack_stream(bytes(good), field, width)
        row, col = divmod(i, width)
        with pytest.raises(ValueError) as exc:
            check_stream(unpacked, field)
        assert str(exc.value).startswith(
            f"element {bad} at row {row}, column {col} ")

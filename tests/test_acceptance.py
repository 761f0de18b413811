"""End-to-end acceptance suite: one test per headline guarantee.

Each test prints a single PASS line so a full run doubles as a report.
Runtime budgets are asserted where a guarantee includes one.
"""

import csv
import io
import math
import random
import time
from fractions import Fraction

import numpy as np
from hypothesis import given, strategies as st

from streamfec import cli
from streamfec.channel import apply, single_burst
from streamfec.desco import (DeScoCodec, DeScoParams, burst_decode_log,
                             burst_outcomes, ia_sco_build, rate_upper_bound,
                             sco_build)
from streamfec.gf import GF
from streamfec.oracle import rlc_burst_losses
from streamfec.sco import ScoParams, vertical_interleave

from reference_bounds import (HIGH_DELAY, periodic_pattern,
                              rlc_partial_threshold, rlc_perfect_threshold)
from reference_decoder import ml_decode_times
from zero_bursts import burst_outcome, zero_burst_log

GF2 = GF(1)
rng = random.Random(20240820)

GRID = [(b1, t1, a, b)
        for t1 in range(1, 6)
        for b1 in range(1, t1 + 1)
        for (a, b) in [(2, 1), (3, 1), (3, 2), (5, 2)]
        if b1 % b == 0]


def rand_bits(t, slots):
    return np.array([[rng.randrange(2) for _ in range(t)] for _ in range(slots)])


def zero_symbols(codec, horizon):
    """All-zero channel stream (valid by linearity)."""
    return np.zeros((horizon, codec.symbol_width), dtype=np.int64)


# ---------------------------------------------------------------------
# 1. Golden parity tables
# ---------------------------------------------------------------------

def test_golden_parity_tables():
    started = time.monotonic()

    def check_sco(params, formulas):
        codec = sco_build(params)
        src = rand_bits(params.t, 20)

        def s(j, t):
            return src[t][j] if t >= 0 else 0

        for t, sym in enumerate(codec.encode_stream(src)):
            assert np.array_equal(sym[:params.t], src[t])
            assert np.array_equal(sym[params.t:],
                                  [f(s, t) for f in formulas]), t

    # (2,3) code: two parities combining s0/s1 at lag 3 with s2
    check_sco(ScoParams(2, 3, field=GF2),
              [lambda s, t: s(0, t - 3) ^ s(2, t - 1),
               lambda s, t: s(1, t - 3) ^ s(2, t - 2)])
    # (1,2) code and its step-2 interleave, the (2,4) code
    check_sco(ScoParams(1, 2, field=GF2),
              [lambda s, t: s(1, t - 1) ^ s(0, t - 2)])
    check_sco(vertical_interleave(ScoParams(1, 2, field=GF2), 2),
              [lambda s, t: s(1, t - 2) ^ s(0, t - 4)])

    def check_combined(codec, formulas):
        src = rand_bits(codec.subs_per_slot, 20)

        def s(j, t):
            return src[t][j] if t >= 0 else 0

        for t, sym in enumerate(codec.encode_stream(src)):
            assert np.array_equal(sym[:codec.subs_per_slot], src[t])
            got = sym[codec.subs_per_slot:]
            assert np.array_equal(got, [f(s, t) for f in formulas]), t

    # interference-avoidance {(1,2),(2,6)}: q = p1 + p2 shifted by 2
    check_combined(ia_sco_build(1, 2, 2, field=GF2),
                   [lambda s, t: s(1, t - 1) ^ s(0, t - 2)
                    ^ s(1, t - 4) ^ s(0, t - 6)])
    # embedded {(1,2),(2,5)}: q = p1 + reversed-diagonal p2 shifted by 3
    check_combined(DeScoCodec(DeScoParams(1, 2, 2), field=GF2),
                   [lambda s, t: s(1, t - 1) ^ s(0, t - 2)
                    ^ s(1, t - 5) ^ s(0, t - 4)])
    # embedded {(2,5),(4,12)}: rows (a,b,c,d,e) = subs 0..4, shift 7
    a, b, c, d, e = range(5)
    check_combined(
        DeScoCodec(DeScoParams(2, 5, 2), field=GF2),
        [lambda s, t: s(a, t - 5) ^ s(c, t - 3) ^ s(e, t - 1)
         ^ s(e, t - 12) ^ s(c, t - 10) ^ s(a, t - 8),
         lambda s, t: s(b, t - 5) ^ s(d, t - 3) ^ s(e, t - 2)
         ^ s(d, t - 12) ^ s(b, t - 10) ^ s(a, t - 9)])

    elapsed = time.monotonic() - started
    assert elapsed < 1.0, f"golden tables took {elapsed:.2f}s"
    print(f"PASS golden parity tables ({elapsed:.2f}s)")


# ---------------------------------------------------------------------
# 2. Achievability: exhaustive delay sweeps over the parameter grid
# ---------------------------------------------------------------------

def test_achievability_grid():
    started = time.monotonic()
    for (b1, t1, a, b) in GRID:
        p = DeScoParams(b1, t1, a, b)
        codec = DeScoCodec(p)
        w1, m1 = burst_outcome(codec, b1, user=1)
        assert (w1, m1) == (t1, 0), (b1, t1, a, b)
        w2, m2 = burst_outcome(codec, p.b2, user=2)
        assert (w2, m2) == (p.user2_deadline, 0), (b1, t1, a, b)
        # and no shorter burst misses either user's deadline
        for length, (_, misses) in burst_outcomes(
                codec, range(1, p.b2 + 1)).items():
            assert misses[1] == 0, (b1, t1, a, b, length)
            assert length > b1 or misses[0] == 0, (b1, t1, a, b, length)
    elapsed = time.monotonic() - started
    assert elapsed < 120, f"grid sweep took {elapsed:.1f}s"
    print(f"PASS achievability grid: {len(GRID)} parameter sets, "
          f"delays (t1, ceil(alpha*t1)+b1) exact, no miss at any burst "
          f"length up to b1 / b2 ({elapsed:.1f}s)")


def test_burst_times_equal_full_decode():
    """``burst_decode_log``'s one shape run gives the sub-symbol times of
    a full decode of the burst on an all-zero stream, -1 included."""
    codecs = [(DeScoCodec(DeScoParams(*g)), DeScoParams(*g).b2) for g in GRID]
    codecs += [(ia_sco_build(1, 2, 2), 2), (ia_sco_build(2, 3, 2), 4)]
    for codec, b2 in codecs:
        for length in range(2 * b2 + 3):
            want = zero_burst_log(codec, 0, length).sub_times[:length]
            got = burst_decode_log(codec, length)
            assert got.shape == want.shape and np.array_equal(got, want), \
                (codec.deadlines, length)
    print(f"PASS burst shape runs equal full decodes on {len(codecs)} "
          f"codecs at lengths 0..2*b2+2")


def full_sweep(codec, burst_len, user, starts):
    """Reference for ``burst_outcome``, so for ``burst_outcomes``: the
    distinct (worst delay, misses) of one full decode at each start."""
    deadline = codec.deadline(user)
    outcomes = set()
    for start in starts:
        log = zero_burst_log(codec, start, burst_len)
        worst = 0
        for slot in range(start, start + burst_len):
            t = int(log.slot_times[slot])
            if t >= 0:  # a slot never recovered has no delay
                worst = max(worst, t - slot)
        outcomes.add((worst, len(log.misses(deadline))))
    return outcomes


def test_cut_sweep_equals_full_sweep():
    """A burst decodes alike at every start: one full decode per start
    gives ``burst_outcome``'s figures at each."""
    started = time.monotonic()
    for (b1, t1, a, b) in GRID:
        p = DeScoParams(b1, t1, a, b)
        codec = DeScoCodec(p)
        starts = range(10 * (t1 + b1))
        for length, user in ((b1, 1), (p.b2, 2)):
            assert full_sweep(codec, length, user, starts) \
                == {burst_outcome(codec, length, user)}, (p, user)
    # over-length bursts (misses > 0), and starts from 0 up to and
    # past reach_slots
    missed = 0
    for codec, b1, b2 in ((DeScoCodec(DeScoParams(1, 2, 2)), 1, 2),
                          (DeScoCodec(DeScoParams(2, 3, 3, 2)), 2, 3),
                          (ia_sco_build(2, 3, 2), 2, 4)):
        for length in (b1, b2, b2 + 1):
            for user in (1, 2):
                got = burst_outcome(codec, length, user)
                assert full_sweep(codec, length, user,
                                  range(4 * codec.reach_slots)) == {got}, \
                    (codec.deadlines, length, user)
                missed += got[1] > 0
    assert missed > 0
    elapsed = time.monotonic() - started
    print(f"PASS cut sweep equals the full sweep on {len(GRID)} sets "
          f"and 3 over-length codecs ({elapsed:.1f}s)")


# ---------------------------------------------------------------------
# 3. Tightness: the delay bound is met with equality, and the rate
#    bound rules out any faster code
# ---------------------------------------------------------------------

def test_tightness_grid():
    started = time.monotonic()
    for (b1, t1, a, b) in GRID:
        p = DeScoParams(b1, t1, a, b)
        codec = DeScoCodec(p)
        worst = 0
        for start in range(2 * (t1 + b1) + 2):
            horizon = start + p.b2 + p.user2_deadline + 2
            times = ml_decode_times(codec, single_burst(start, p.b2, horizon))
            for s in range(start, start + p.b2):
                ts = [times[(s, k)] for k in range(codec.subs_per_slot)]
                assert all(t >= 0 for t in ts)
                worst = max(worst, max(ts) - s)
        # even an unrestricted decoder needs the full delay somewhere
        assert worst == p.user2_deadline, (b1, t1, a, b)
        # and any code faster by one slot would exceed the rate bound
        assert rate_upper_bound(b1, p.b2, p.user2_deadline - 1) \
            < Fraction(t1, t1 + b1), (b1, t1, a, b)
    print(f"PASS tightness: oracle delay = deadline and "
          f"rate bound excludes deadline-1 on all {len(GRID)} sets "
          f"({time.monotonic() - started:.1f}s)")


# ---------------------------------------------------------------------
# 4. Recovery ordering within a burst for the (2,5) code
# ---------------------------------------------------------------------

def test_recovery_ordering_25():
    codec = sco_build(ScoParams(2, 5, field=GF2))
    i = 12  # burst occupies slots i-2, i-1
    erased = np.zeros(30, dtype=bool)
    erased[i - 2] = erased[i - 1] = True
    _, log = codec.decode(zero_symbols(codec, 30), erased)
    assert log.misses(codec.deadline(1)) == []
    by_var = {(ev.slot, ev.sub): ev for ev in log.trace}
    for slot in (i - 2, i - 1):
        for sub in (0, 1):  # urgent: pinned at exactly slot + 5
            ev = by_var[(slot, sub)]
            assert log.sub_times[(slot, sub)] == slot + 5
            assert ev.parity_slot == slot + 5
        for sub in (2, 3, 4):  # non-urgent: from parities at i..i+2
            ev = by_var[(slot, sub)]
            assert i <= ev.parity_slot <= i + 2
            assert log.sub_times[(slot, sub)] == ev.parity_slot
    print("PASS (2,5) ordering: urgent at j+5 exactly, "
          f"non-urgent from parity slots {i}..{i + 2}")


# ---------------------------------------------------------------------
# 5. {(2,5),(4,12)} walkthrough replay
# ---------------------------------------------------------------------

def test_walkthrough_2512_replay():
    codec = DeScoCodec(DeScoParams(2, 5, 2), field=GF2)
    S = 20  # stream slot standing for relative time -4; burst is -4..-1
    horizon = 40
    erased = np.zeros(horizon, dtype=bool)
    for s in range(S, S + 4):
        erased[s] = True
    _, log = codec.decode(zero_symbols(codec, horizon), erased)
    assert log.misses(codec.deadline(2)) == []
    base = S + 4  # relative time 0
    events = {(ev.slot, ev.sub): ev for ev in log.trace}

    # row a of the oldest slot comes from the embedded code's second
    # parity row, emitted 2 slots before time 0, surfacing at time 5
    ev = events[(S, 0)]
    assert log.sub_times[(S, 0)] == base + 5
    assert ev.component == 1 and ev.row == 1
    assert ev.parity_slot == base - 2  # embedded clock: combined slot - 7

    # row c of slots -4 and -3 known by time 7
    assert 0 <= log.sub_times[(S, 2)] <= base + 7
    assert 0 <= log.sub_times[(S + 1, 2)] <= base + 7

    # urgent rows d, e: all by deadline; those pinned by the embedded
    # code use combined parity slots 8..11
    for s in range(S, S + 4):
        for sub in (3, 4):
            t = log.sub_times[(s, sub)]
            assert 0 <= t <= s + 12
            ev = events[(s, sub)]
            if ev.component == 1 and ev.row >= 0:
                combined = ev.parity_slot + 7
                assert base + 8 <= combined <= base + 11, (s, sub, combined)

    # worst-case delay is exactly the weak receiver's deadline
    worst = max(log.sub_times[(s, k)] - s for s in range(S, S + 4)
                for k in range(5))
    assert worst == 12
    print("PASS {(2,5),(4,12)} replay: a[-4] at +5 via embedded parity, "
          "c rows by +7, urgent rows within deadline, max delay 12")


# ---------------------------------------------------------------------
# 6. Staged decoder matches the unrestricted oracle
# ---------------------------------------------------------------------

def test_oracle_equivalence_random():
    started = time.monotonic()
    instances = 0
    while instances < 200:
        t1 = rng.randint(1, 5)
        b1 = rng.randint(1, t1)
        kind = rng.choice(("sco", "desco", "ia"))
        if kind == "sco":
            params = ScoParams(b1, t1, step=rng.randint(1, 2))
            codec = sco_build(params)
            deadline = t1 * params.step
            tolerance = b1 * params.step
        elif kind == "desco":
            a, b = rng.choice([(2, 1), (3, 1), (3, 2), (5, 2)])
            if b1 % b:
                continue
            params = DeScoParams(b1, t1, a, b)
            codec = DeScoCodec(params)
            deadline = codec.user2_deadline
            tolerance = params.b2
        else:
            alpha = rng.choice((2, 3))
            codec = ia_sco_build(b1, t1, alpha)
            deadline = codec.user2_deadline
            tolerance = alpha * b1
        start = rng.randint(0, 12)
        length = rng.randint(1, tolerance)
        horizon = start + length + 3 * deadline + 4
        pattern = single_burst(start, length, horizon)
        rx = zero_symbols(codec, horizon)
        _, log = codec.decode(rx, apply(pattern, rx))
        oracle_times = ml_decode_times(codec, pattern)
        for var, t in np.ndenumerate(log.sub_times):
            assert oracle_times[var] == t, (kind, b1, t1, start, length, var)
        instances += 1
    print(f"PASS oracle equivalence: 200 random instances, staged times "
          f"identical to unrestricted elimination "
          f"({time.monotonic() - started:.1f}s)")


# ---------------------------------------------------------------------
# 7. Debt-model thresholds, exact and simulated
# ---------------------------------------------------------------------

def _simulate(argv):
    out = io.StringIO()
    code = cli.main(argv, out=out)
    assert code == cli.EXIT_OK
    return list(csv.DictReader(io.StringIO(out.getvalue())))


def _uniform_expectation(rate, deadline, b_max):
    losses = [rlc_burst_losses(rate, length, deadline)
              for length in range(b_max + 1)]
    mean = sum(losses) / (b_max + 1)
    var = sum(x * x for x in losses) / (b_max + 1) - mean * mean
    return mean, var


def test_debt_model_thresholds():
    assert rlc_perfect_threshold(Fraction(1, 2), 4) == 2
    assert rlc_partial_threshold(4, 4, 8) == 12

    segments, segment_len = 10_000, 100
    rows = _simulate(["simulate", "--b1", "4", "--t1", "4", "--alpha-num", "2",
                      "--schemes", "rlc", "--users", "1",
                      "--bmax-list", "2,3",
                      "--segment-len", str(segment_len),
                      "--segments", str(segments), "--seed", "11"])
    by_bmax = {int(r["b_max"]): r for r in rows}
    assert int(by_bmax[2]["symbols_lost"]) == 0
    assert int(by_bmax[3]["symbols_lost"]) > 0

    # simulated losses within 3 standard errors of the uniform-length
    # closed-form expectation
    for b_max in (2, 3):
        mean, var = _uniform_expectation(Fraction(1, 2), 4, b_max)
        lost = int(by_bmax[b_max]["symbols_lost"])
        se = math.sqrt(var * segments)
        assert abs(lost - mean * segments) <= 3 * se + 1e-9, (b_max, lost)
    print("PASS debt-model thresholds: perfect=2 (rate 1/2, delay 4), "
          "partial=12 for (4,4,8); simulated losses within 3 SE")


# ---------------------------------------------------------------------
# 8. Loss-probability curves, qualitative shape at rate 2/3
# ---------------------------------------------------------------------

def test_loss_curves_rate_two_thirds():
    started = time.monotonic()
    segments, segment_len = 10_000, 100
    rows = _simulate(["simulate", "--b1", "1", "--t1", "2", "--alpha-num", "2",
                      "--schemes", "desco,rlc", "--users", "1,2",
                      "--bmax-list", "0,1,2,3,4,5",
                      "--segment-len", str(segment_len),
                      "--segments", str(segments), "--seed", "7"])
    loss = {(r["scheme"], int(r["user"]), int(r["b_max"])):
            float(r["loss_probability"]) for r in rows}
    b2 = 2
    rlc_u2_zero_upto = math.ceil((1 - Fraction(2, 3)) * 5)  # = 2
    for b_max in range(6):
        # user 1: embedded construction never loses more than the debt model
        assert loss[("desco", 1, b_max)] <= loss[("rlc", 1, b_max)], b_max
        # user 2: zero loss up to the design burst length
        if b_max <= b2:
            assert loss[("desco", 2, b_max)] == 0.0, b_max
        if b_max > rlc_u2_zero_upto:
            assert loss[("rlc", 2, b_max)] > 0.0, b_max
    # monotonicity in b_max for every curve
    for scheme in ("desco", "rlc"):
        for user in (1, 2):
            curve = [loss[(scheme, user, b)] for b in range(6)]
            assert curve == sorted(curve), (scheme, user)
    # partial recovery band of the debt model: with {(4,4),(8,12)}
    # bursts between b2 and the partial threshold lose some but not all
    for length in range(9, 13):
        lost = rlc_burst_losses(Fraction(1, 2), length, 12)
        assert 0 < lost < length, length
    elapsed = time.monotonic() - started
    assert elapsed < 60, f"loss curves took {elapsed:.1f}s"
    print(f"PASS loss curves: user-1 dominance, user-2 zero loss up to "
          f"b2={b2}, debt model partial band nonempty ({elapsed:.1f}s)")


# ---------------------------------------------------------------------
# 9. Periodic-pattern decodability across the grid
# ---------------------------------------------------------------------

def test_periodic_pattern_decodable():
    started = time.monotonic()
    for (b1, t1, a, b) in GRID:
        p = DeScoParams(b1, t1, a, b)
        codec = DeScoCodec(p)
        pattern = periodic_pattern(b1, p.b2, p.user2_deadline, HIGH_DELAY,
                                   periods=3)
        period = len(pattern) // 3
        horizon = len(pattern) + p.user2_deadline + 2
        rx = zero_symbols(codec, horizon)
        _, log = codec.decode(rx, apply(pattern, rx))
        assert log.misses(codec.deadline(2)) == [], (b1, t1, a, b)
        for per in range(3):
            for k in range(p.b2):
                slot = per * period + k
                t = log.slot_times[slot]
                assert t >= 0
                assert t <= slot + p.user2_deadline
        # user 1's channel: b1 erased, then t1 received, periodically
        pattern = np.tile(np.arange(t1 + b1) < b1, 3)
        rx = zero_symbols(codec, len(pattern) + t1 + 2)
        _, log = codec.decode(rx, apply(pattern, rx))
        assert log.misses(codec.deadline(1)) == [], (b1, t1, a, b)
    print(f"PASS periodic patterns: all {len(GRID)} sets decode the "
          f"erasure-fraction-matched periodic channel of each user with "
          f"no misses ({time.monotonic() - started:.1f}s)")


# ---------------------------------------------------------------------
# 10. Simulation determinism
# ---------------------------------------------------------------------

def test_simulation_determinism():
    argv = ["simulate", "--b1", "1", "--t1", "2", "--alpha-num", "2",
            "--bmax-list", "0,2,4", "--segment-len", "60",
            "--segments", "500", "--seed", "42"]
    out1, out2 = io.StringIO(), io.StringIO()
    assert cli.main(argv, out=out1) == cli.EXIT_OK
    assert cli.main(argv, out=out2) == cli.EXIT_OK
    assert out1.getvalue() == out2.getvalue()
    assert out1.getvalue().encode() == out2.getvalue().encode()
    print("PASS determinism: identical seed reproduces byte-identical CSV")


# ---------------------------------------------------------------------
# 11. Multi-burst guarantee: bursts of length <= b_u at least G_u apart
#     meet user u's deadline, and G_u is tight
# ---------------------------------------------------------------------

def guard(p, user):
    """(b_u, G_u): user u's burst length and the fewest received slots
    between two of its bursts that keep its deadline, G1 = t1 and
    G2 = T2 - b1.  G_u is the clean run of the converse's periodic
    channel, so that channel sits at the rate bound."""
    return (p.b1, p.t1) if user == 1 else (p.b2, p.user2_deadline - p.b1)


def burst_log(codec, bursts):
    """Log of an all-zero stream with (start, length) bursts, ending two
    slots past the latest deadline of the last burst's last slot."""
    start, length = bursts[-1]
    horizon = start + length + max(codec.deadlines) + 2
    erased = np.zeros(horizon, dtype=bool)
    for start, length in bursts:
        erased[start:start + length] = True
    return codec.decode(zero_symbols(codec, horizon), erased)[1]


def test_multi_burst_guard_is_tight():
    started = time.monotonic()
    for (b1, t1, a, b) in GRID:
        p = DeScoParams(b1, t1, a, b)
        codec = DeScoCodec(p)
        for user in (1, 2):
            length, gap_min = guard(p, user)
            # past reach_slots the bursts decode alone
            for gap in range(gap_min - 1, codec.reach_slots + 2):
                log = burst_log(codec, [(0, length),
                                        (length + gap, length)])
                missed = log.misses(codec.deadline(user)) != []
                assert missed == (gap < gap_min), (b1, t1, a, b, user, gap)
    print(f"PASS multi-burst guard: on all {len(GRID)} sets two maximal "
          f"bursts meet each user's deadline exactly from G_u clean slots "
          f"apart ({time.monotonic() - started:.1f}s)")


@st.composite
def guarded_bursts(draw):
    """(codec, user, bursts): 2 to 6 bursts of length 1..b_u, each at
    least G_u received slots past the one before, on a ``GRID`` codec."""
    p = DeScoParams(*draw(st.sampled_from(GRID)))
    codec = DeScoCodec(p)
    user = draw(st.sampled_from((1, 2)))
    length, gap_min = guard(p, user)
    start, bursts = draw(st.integers(0, codec.reach_slots)), []
    for _ in range(draw(st.integers(2, 6))):
        bursts.append((start, draw(st.integers(1, length))))
        start += bursts[-1][1] + draw(
            st.integers(gap_min, codec.reach_slots + 1))
    return codec, user, bursts


def test_guarded_bursts_meet_the_deadline():
    started = time.monotonic()

    @given(guarded_bursts())
    def check(case):
        codec, user, bursts = case
        log = burst_log(codec, bursts)
        assert log.misses(codec.deadline(user)) == [], bursts

    check()
    print(f"PASS multi-burst guard: random patterns of 2-6 bursts of at "
          f"most b_u, G_u or more apart, meet user u's deadline "
          f"({time.monotonic() - started:.1f}s)")

import random

import pytest

from streamfec.bebc import (BurstParityMatrix, LdBebcCode,
                            UnrecoverableBurstError, make_burst_parity,
                            verify_burst_correcting, verify_delay_profile)
from streamfec.gf import GF, IncrementalSystem, default_field

GF2 = GF.binary(1)


def brute_force_burst_check(h):
    """Independent verdict: solve every cyclic burst with plain elimination."""
    t, b, f = h.t, h.b, h.field
    n = t + b
    # generator columns
    cols = []
    for c in range(n):
        col = [0] * t
        if c < t:
            col[c] = 1
        else:
            j = c - t
            col[j] = 1
            for k in range(t - b):
                col[b + k] = h.rows[k][j]
        cols.append(col)
    for s in range(n):
        erased = {(s + k) % n for k in range(b)}
        # info recoverable iff the kept columns have full column rank t
        sys = IncrementalSystem(f)
        for c in range(n):
            if c in erased:
                continue
            sys.add_equation({i: cols[c][i] for i in range(t) if cols[c][i]}, 0)
        if len(sys.solved) != t:
            return False
    return True


# ---------------------------------------------------------
# Construction
# ---------------------------------------------------------

def test_known_binary_matrices():
    assert make_burst_parity(2, 1, GF2).rows == ((1,),)
    assert make_burst_parity(3, 2, GF2).rows == ((1, 1),)
    assert make_burst_parity(5, 2, GF2).rows == ((1, 0), (0, 1), (1, 1))


def test_b_equals_t_is_repetition():
    h = make_burst_parity(3, 3, GF2)
    assert h.rows == ()
    code = LdBebcCode(h)
    assert code.encode([1, 0, 1]) == [1, 0, 1, 1, 0, 1]


def test_mds_route_over_larger_field():
    h = make_burst_parity(4, 2, GF.binary(3))
    assert verify_burst_correcting(h)
    assert len(h.rows) == 2 and len(h.rows[0]) == 2


def test_construction_deterministic():
    a = make_burst_parity(5, 2)
    b = make_burst_parity(5, 2)
    assert a.rows == b.rows and a.field == b.field


def test_field_too_small_errors():
    with pytest.raises(ValueError, match="field order"):
        make_burst_parity(8, 3, GF.binary(3))  # 8 < 11


# ---------------------------------------------------------
# Verification
# ---------------------------------------------------------

def test_verify_accepts_printed_example():
    assert verify_burst_correcting(BurstParityMatrix(((1, 1),), 3, 2, GF2))


def test_verify_rejects_zero_matrix():
    assert not verify_burst_correcting(BurstParityMatrix(((0, 0),), 3, 2, GF2))


def test_verify_matches_brute_force_on_random_binary():
    rng = random.Random(17)
    for _ in range(40):
        rows = tuple(tuple(rng.randrange(2) for _ in range(2)) for _ in range(3))
        h = BurstParityMatrix(rows, 5, 2, GF2)
        assert verify_burst_correcting(h) == brute_force_burst_check(h)


# ---------------------------------------------------------
# Encoding
# ---------------------------------------------------------

def test_encode_printed_example():
    code = LdBebcCode(make_burst_parity(3, 2, GF2))
    assert code.encode([1, 1, 1]) == [1, 1, 1, 0, 0]
    b0, b1, b2 = 1, 0, 1
    assert code.encode([b0, b1, b2]) == [b0, b1, b2, b0 ^ b2, b1 ^ b2]


def test_encode_zero_and_linearity():
    code = LdBebcCode(make_burst_parity(4, 2, GF.binary(3)))
    assert code.encode([0] * 4) == [0] * 6
    rng = random.Random(4)
    u = [rng.randrange(8) for _ in range(4)]
    v = [rng.randrange(8) for _ in range(4)]
    s = [a ^ b for a, b in zip(u, v)]
    assert code.encode(s) == [a ^ b
                              for a, b in zip(code.encode(u), code.encode(v))]


def test_encode_parity_matches_matrix_multiply():
    code = LdBebcCode(make_burst_parity(4, 2, GF.binary(3)))
    f, h = code.field, code.h
    rng = random.Random(12)
    info = [rng.randrange(8) for _ in range(4)]
    cw = code.encode(info)
    u, n = info[:2], info[2:]
    for j in range(2):
        want = u[j]
        for k in range(2):
            want ^= f.mul(h.rows[k][j], n[k])
        assert cw[4 + j] == want


def test_encode_length_check():
    code = LdBebcCode(make_burst_parity(3, 2, GF2))
    with pytest.raises(ValueError):
        code.encode([1, 0])


# ---------------------------------------------------------
# Decoding
# ---------------------------------------------------------

def test_decode_delay_profile_printed_example():
    code = LdBebcCode(make_burst_parity(3, 2, GF2))
    cw = code.encode([1, 0, 1])
    rx = [None, None] + cw[2:]
    info, delays = code.decode(rx)
    assert info == [1, 0, 1]
    assert delays[0] == 3 and delays[1] == 4


def test_decode_no_erasures_delays_are_positions():
    code = LdBebcCode(make_burst_parity(5, 2, GF2))
    cw = code.encode([1, 0, 1, 1, 0])
    info, delays = code.decode(cw)
    assert info == [1, 0, 1, 1, 0]
    assert delays == list(range(5))


def test_decode_roundtrip_all_bursts():
    rng = random.Random(31)
    for (t, b) in [(2, 1), (3, 2), (5, 2), (5, 3), (4, 4), (8, 3)]:
        field = GF2 if (t, b) in [(2, 1), (3, 2), (5, 2)] else default_field(t, b)
        code = LdBebcCode(make_burst_parity(t, b, field))
        for _ in range(20):
            info = [rng.randrange(field.order) for _ in range(t)]
            cw = code.encode(info)
            for length in range(1, b + 1):
                for s in range(t + b - length + 1):
                    rx = list(cw)
                    for k in range(s, s + length):
                        rx[k] = None
                    got, _ = code.decode(rx)
                    assert got == info


def test_delay_profile_exact_for_full_bursts():
    # a burst of exactly b covering urgent position j pins it at index j+t
    for (t, b) in [(3, 2), (5, 2), (5, 3)]:
        code = LdBebcCode(make_burst_parity(t, b, default_field(t, b)))
        assert verify_delay_profile(code)
        info = [1] * t
        cw = code.encode(info)
        for j in range(b):
            rx = list(cw)
            for k in range(j, j + b):
                rx[k] = None
            _, delays = code.decode(rx)
            assert delays[j] == j + t


def test_decode_rejects_bad_patterns():
    code = LdBebcCode(make_burst_parity(3, 2, GF2))
    cw = code.encode([1, 0, 1])
    with pytest.raises(UnrecoverableBurstError):
        rx = [None, None, None] + cw[3:]
        code.decode(rx)
    with pytest.raises(ValueError):
        rx = list(cw)
        rx[0] = rx[2] = None  # not contiguous
        code.decode(rx)
    with pytest.raises(ValueError):
        code.decode(cw[:4])
    with pytest.raises(ValueError):
        rx = list(cw)
        rx[1] = None
        code.decode(rx, burst_start=0)

import random
from typing import List, Optional, Sequence, Tuple

import pytest

from streamfec.bebc import (BurstParityMatrix, make_burst_parity,
                            verify_burst_correcting)
from streamfec.gf import GF, IncrementalSystem, default_field

from reference_decoder import ReferenceSystem

GF2 = GF(1)


def generator_columns(h):
    """Columns of the t x (t+b) generator [I | stacked parity], built from
    H's rows here rather than from the library's parity map."""
    t, b = h.t, h.b
    cols = []
    for c in range(t + b):
        col = [0] * t
        if c < t:
            col[c] = 1
        else:
            j = c - t
            col[j] = 1
            for k in range(t - b):
                col[b + k] = h.rows[k][j]
        cols.append(col)
    return cols


def brute_force_burst_check(h):
    """Independent verdict: solve every cyclic burst with plain elimination."""
    t, b, f = h.t, h.b, h.field
    n = t + b
    cols = generator_columns(h)
    for s in range(n):
        erased = {(s + k) % n for k in range(b)}
        # info recoverable iff the kept columns have full column rank t
        sys = ReferenceSystem(f)
        for c in range(n):
            if c in erased:
                continue
            sys.add_equation({i: cols[c][i] for i in range(t) if cols[c][i]}, 0)
        if len(sys.solved) != t:
            return False
    return True


class UnrecoverableBurstError(ValueError):
    """The erasure pattern exceeds what the code can correct."""


class LdBebcCode:
    """Reference encoder/decoder for the (t+b, t) low-delay burst code,
    built on this file's generator columns."""

    def __init__(self, h: BurstParityMatrix):
        self.h = h
        self.t = h.t
        self.b = h.b
        self.field = h.field
        self.length = h.t + h.b
        self.cols = generator_columns(h)

    def encode(self, info: Sequence[int]) -> List[int]:
        if len(info) != self.t:
            raise ValueError(f"expected {self.t} info symbols, got {len(info)}")
        f = self.field
        u = list(info[:self.b])
        nu = list(info[self.b:])
        parity = []
        for j in range(self.b):
            acc = u[j]
            for k in range(self.t - self.b):
                acc ^= f.mul(self.h.rows[k][j], nu[k])
            parity.append(acc)
        return u + nu + parity

    def decode(self, received: Sequence[Optional[int]],
               burst_start: Optional[int] = None) -> Tuple[List[int], List[int]]:
        """Recover the info word from a codeword with ``None`` erasures.

        Returns (info, delays) where delays[i] is the smallest codeword
        index at which info symbol i became determined (its own index when
        it arrived unerased).  Erasures must form one contiguous run of at
        most b positions; ``burst_start``, if given, must match it.

        Raises UnrecoverableBurstError if the pattern is longer than b,
        ValueError if it is not contiguous or inconsistent with burst_start.
        """
        if len(received) != self.length:
            raise ValueError(f"expected {self.length} symbols, got {len(received)}")
        erased = [i for i, v in enumerate(received) if v is None]
        if erased:
            if erased[-1] - erased[0] != len(erased) - 1:
                raise ValueError("erasures are not contiguous")
            if burst_start is not None and burst_start != erased[0]:
                raise ValueError(f"burst_start {burst_start} does not match erasures")
            if len(erased) > self.b:
                raise UnrecoverableBurstError(
                    f"{len(erased)} erasures exceed burst capability {self.b}")
        sys = IncrementalSystem(self.field)
        info: List[Optional[int]] = [None] * self.t
        delays: List[Optional[int]] = [None] * self.t
        for pos, v in enumerate(received):
            if v is None:
                continue
            col = self.cols[pos]
            newly = sys.add_equation({i: c for i, c in enumerate(col) if c}, v)
            for var, val in newly.items():
                info[var] = val
                delays[var] = pos if delays[var] is None else delays[var]
            if pos < self.t and delays[pos] is None:
                delays[pos] = pos
        if any(v is None for v in info):
            raise UnrecoverableBurstError("info word not fully recoverable")
        return [int(v) for v in info], [int(d) for d in delays]


def verify_delay_profile(code: LdBebcCode) -> bool:
    """Check each erased urgent symbol j is recovered by index j + t.

    Exercises every burst of length <= b over a basis of info words.
    """
    t, b = code.t, code.b
    words = [[0] * t]
    for i in range(t):
        w = [0] * t
        w[i] = 1
        words.append(w)
    for info in words:
        cw = code.encode(info)
        for length in range(1, b + 1):
            for s in range(code.length - length + 1):
                rx: List[Optional[int]] = list(cw)
                for k in range(s, s + length):
                    rx[k] = None
                got, delays = code.decode(rx)
                if got != list(info):
                    return False
                for j in range(b):
                    if delays[j] > j + t:
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
    h = make_burst_parity(4, 2, GF(3))
    assert verify_burst_correcting(h)
    assert len(h.rows) == 2 and len(h.rows[0]) == 2


def test_construction_deterministic():
    a = make_burst_parity(5, 2)
    b = make_burst_parity(5, 2)
    assert a.rows == b.rows and a.field == b.field


def test_field_too_small_errors():
    with pytest.raises(ValueError, match="field order"):
        make_burst_parity(8, 3, GF(3))  # 8 < 11


def test_make_burst_parity_refusals():
    with pytest.raises(ValueError, match=r"need 1 <= b <= t"):
        make_burst_parity(2, 3)
    # (10 - 5) * 5 = 25 bits: 2^25 candidates
    with pytest.raises(ValueError, match="exhaustive binary search too large"):
        make_burst_parity(10, 5, GF(1))


@pytest.mark.parametrize("rows, t, b, message", [
    ((), 2, 0, r"need 1 <= b <= t"),
    ((), 2, 3, r"need 1 <= b <= t"),
    (((1,),), 3, 1, "H must have t-b rows"),
    (((1,), (1, 0)), 3, 1, "H must have b columns"),
])
def test_parity_matrix_refuses_wrong_shape(rows, t, b, message):
    with pytest.raises(ValueError, match=message):
        BurstParityMatrix(rows, t, b, GF2)


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


def test_verify_matches_brute_force_on_random_matrices():
    """The check, which solves each burst's erased info entries alone,
    agrees with the full rank test of the surviving generator columns on
    random H over GF(2) .. GF(16), for every t <= 7 and b <= t.  Entries
    are zero with a drawn probability, so many matrices fail."""
    rng = random.Random(23)
    verdicts = {True: 0, False: 0}
    for m in range(1, 5):
        f = GF(m)
        for t in range(1, 8):
            for b in range(1, t + 1):
                for _ in range(4):
                    zero = rng.random()
                    rows = tuple(tuple(0 if rng.random() < zero
                                       else rng.randrange(1, f.order)
                                       for _ in range(b))
                                 for _ in range(t - b))
                    h = BurstParityMatrix(rows, t, b, f)
                    ok = verify_burst_correcting(h)
                    assert ok == brute_force_burst_check(h), (m, rows)
                    verdicts[ok] += 1
    assert min(verdicts.values()) > 100, verdicts


# ---------------------------------------------------------
# Encoding
# ---------------------------------------------------------

def test_encode_printed_example():
    code = LdBebcCode(make_burst_parity(3, 2, GF2))
    assert code.encode([1, 1, 1]) == [1, 1, 1, 0, 0]
    b0, b1, b2 = 1, 0, 1
    assert code.encode([b0, b1, b2]) == [b0, b1, b2, b0 ^ b2, b1 ^ b2]


def test_encode_zero_and_linearity():
    code = LdBebcCode(make_burst_parity(4, 2, GF(3)))
    assert code.encode([0] * 4) == [0] * 6
    rng = random.Random(4)
    u = [rng.randrange(8) for _ in range(4)]
    v = [rng.randrange(8) for _ in range(4)]
    s = [a ^ b for a, b in zip(u, v)]
    assert code.encode(s) == [a ^ b
                              for a, b in zip(code.encode(u), code.encode(v))]


def test_encode_parity_matches_matrix_multiply():
    code = LdBebcCode(make_burst_parity(4, 2, GF(3)))
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

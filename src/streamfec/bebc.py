"""Low-delay burst-erasure block codes.

A (T+B, T) codeword is laid out as (u, n, u + n*H): the first B info
symbols are the urgent part u, the remaining T-B are the non-urgent part
n, and the B parity symbols combine both through a (T-B) x B matrix H.
The code must correct every cyclic burst of B consecutive erasures, and
when it does, each erased urgent symbol at position j is recovered as
soon as position j + T of the codeword has been read.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import List, Optional, Sequence, Tuple

from .gf import GF, IncrementalSystem, default_field


class UnrecoverableBurstError(ValueError):
    """The erasure pattern exceeds what the code can correct."""


@dataclass(frozen=True)
class BurstParityMatrix:
    """Parity matrix H for a (t+b, t) burst-correcting systematic code."""

    rows: Tuple[Tuple[int, ...], ...]  # (t-b) x b
    t: int
    b: int
    field: GF

    def __post_init__(self):
        if not 1 <= self.b <= self.t:
            raise ValueError("need 1 <= b <= t")
        if len(self.rows) != self.t - self.b:
            raise ValueError("H must have t-b rows")
        for k, r in enumerate(self.rows):
            if len(r) != self.b:
                raise ValueError("H must have b columns")
            for j, v in enumerate(r):
                if not 0 <= v < self.field.order:
                    raise ValueError(f"H entry {v} at row {k}, column {j} "
                                     f"is outside {self.field}")


def _generator_rows(h: BurstParityMatrix) -> List[List[int]]:
    """Rows of the t x (t+b) generator [I | stacked parity] in codeword order."""
    t, b, f = h.t, h.b, h.field
    rows = [[0] * (t + b) for _ in range(t)]
    for i in range(t):
        rows[i][i] = 1
    # parity j = u_j + sum_k H[k][j] * n_k
    for j in range(b):
        rows[j][t + j] = 1
        for k in range(t - b):
            rows[b + k][t + j] = h.rows[k][j]
    return rows


def verify_burst_correcting(h: BurstParityMatrix) -> bool:
    """Check every cyclic burst of b erasures leaves the info recoverable.

    A burst starting at position s erases codeword positions
    s, s+1, ..., s+b-1 modulo t+b; the surviving t columns of the
    generator must still have rank t.
    """
    t, b, f = h.t, h.b, h.field
    n = t + b
    gen = _generator_rows(h)
    for s in range(n):
        erased = {(s + k) % n for k in range(b)}
        kept = [c for c in range(n) if c not in erased]
        sys = IncrementalSystem(f)
        for c in kept:
            terms = {i: gen[i][c] for i in range(t) if gen[i][c]}
            sys.add_equation(terms, 0)
        if len(sys.solved) != t:
            return False
    return True


def make_burst_parity(t: int, b: int, field: Optional[GF] = None) -> BurstParityMatrix:
    """Construct a verified burst-correcting parity matrix.

    Over GF(2) the result is the lexicographically smallest valid matrix
    (rows concatenated, scanned as a bit string), found by exhaustive
    search.  Over larger fields a Cauchy construction gives an MDS check
    matrix directly; this needs field order >= t + b.
    """
    if not 1 <= b <= t:
        raise ValueError("need 1 <= b <= t")
    if field is None:
        field = default_field(t, b)
    if b == t:
        return BurstParityMatrix(tuple(), t, b, field)
    if field.order == 2:
        nbits = (t - b) * b
        if nbits > 20:
            raise ValueError("exhaustive binary search too large; use a bigger field")
        for bits in product((0, 1), repeat=nbits):
            rows = tuple(tuple(bits[r * b:(r + 1) * b]) for r in range(t - b))
            cand = BurstParityMatrix(rows, t, b, field)
            if verify_burst_correcting(cand):
                return cand
        raise ValueError(f"no binary burst-correcting matrix for (t={t}, b={b})")
    if field.order < t + b:
        raise ValueError(f"field order {field.order} < t + b = {t + b}")
    # Cauchy matrix: entry [k][j] = 1 / (x_k - y_j) with disjoint x, y sets.
    rows = tuple(
        tuple(field.inv(k ^ (t - b + j)) for j in range(b))
        for k in range(t - b)
    )
    h = BurstParityMatrix(rows, t, b, field)
    if not verify_burst_correcting(h):
        raise ValueError("constructed matrix failed verification")
    return h


class LdBebcCode:
    """Encoder/decoder for the (t+b, t) low-delay burst code."""

    def __init__(self, h: BurstParityMatrix):
        self.h = h
        self.t = h.t
        self.b = h.b
        self.field = h.field
        self.length = h.t + h.b

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
        gen = _generator_rows(self.h)
        sys = IncrementalSystem(self.field)
        info: List[Optional[int]] = [None] * self.t
        delays: List[Optional[int]] = [None] * self.t
        for pos in range(self.length):
            v = received[pos]
            if v is None:
                continue
            terms = {i: gen[i][pos] for i in range(self.t) if gen[i][pos]}
            newly = sys.add_equation(terms, v)
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
    t, b, f = code.t, code.b, code.field
    n = code.length
    words = [[0] * t]
    for i in range(t):
        w = [0] * t
        w[i] = 1
        words.append(w)
    for info in words:
        cw = code.encode(info)
        for length in range(1, b + 1):
            for s in range(n - length + 1):
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

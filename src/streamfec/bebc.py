"""Low-delay burst-erasure block codes.

A (T+B, T) codeword is laid out as (u, n, u + n*H): the first B info
symbols are the urgent part u, the remaining T-B are the non-urgent part
n, and the B parity symbols combine both through a (T-B) x B matrix H.
The code must correct every cyclic burst of B consecutive erasures, and
when it does, each erased urgent symbol at position j is recovered as
soon as position j + T of the codeword has been read.

This module holds the parity matrix H with the code's one parity map
(``BurstParityMatrix.coeff``), the burst check and the construction.
The streaming codes lay that map along diagonals (``sco``); a block
encoder and decoder for the code itself is kept in the tests as a
reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Optional, Tuple

from .gf import GF, IncrementalSystem, default_field


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

    def coeff(self, e: int, j: int) -> int:
        """Coefficient of info entry e in parity j, the code's one parity
        map: parity j = u_j + sum_k H[k][j] * n_k."""
        if e >= self.b:
            return self.rows[e - self.b][j]
        return int(e == j)


def verify_burst_correcting(h: BurstParityMatrix) -> bool:
    """Check every cyclic burst of b erasures leaves the info recoverable.

    A burst starting at position s erases codeword positions
    s, s+1, ..., s+b-1 modulo t+b; the info is recoverable when the
    surviving t columns of the generator [I | P] have rank t.  The
    surviving identity columns pin the surviving info entries, so
    ordering the rows as surviving then erased entries makes those
    columns block triangular: the rank is t exactly when the e erased
    info entries are solved by the e surviving parity columns (the burst
    erases b - e parities) restricted to them.  That e x e system is what
    is solved here, e <= b, in place of t equations in t unknowns.
    """
    t, b = h.t, h.b
    n = t + b
    for s in range(n):
        erased = [(s + k) % n for k in range(b)]
        info = [e for e in erased if e < t]
        system = IncrementalSystem(h.field)
        for j in range(b):
            if t + j not in erased:
                system.add_equation({e: h.coeff(e, j) for e in info}, 0)
        if len(system.solved) != len(info):
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

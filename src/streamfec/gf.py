"""Finite-field arithmetic over GF(p) and GF(2^m).

Field elements are plain ints in [0, q).  A ``GF`` instance owns the
arithmetic.  Binary extension fields use log/antilog tables for
multiplication; a polynomial long-division multiply is kept as an
independent slow path.
Whole arrays of elements are multiplied by a constant through per-constant
product rows (``mul_row``), built on first use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

import numpy as np


# Canonical reduction polynomials per degree (bit i = coefficient of x^i).
# These are the standard primitive polynomials, so x (= 2) generates the
# multiplicative group and the encodings are reproducible bit-for-bit.
CANONICAL_POLY = {
    1: 0b11,
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10001001,
    8: 0b100011101,
    9: 0b1000010001,
    10: 0b10000001001,
    11: 0b100000000101,
    12: 0b1000001010011,
    13: 0b10000000011011,
    14: 0b100010001000011,
    15: 0b1000000000000011,
    16: 0b10001000000001011,
}

_TABLE_MAX_DEGREE = 16
_ROW_MAX_ORDER = 1 << 16  # product rows cost one int64 per field element


class InconsistentSystemError(RuntimeError):
    """A linear system contradicts itself (signals a codec bug)."""


def _poly_degree(p: int) -> int:
    return p.bit_length() - 1


def _poly_mulmod(a: int, b: int, mod: int) -> int:
    """Carry-less multiply of a and b, reduced modulo ``mod``."""
    deg = _poly_degree(mod)
    res = 0
    while b:
        if b & 1:
            res ^= a
        b >>= 1
        a <<= 1
        if a >> deg & 1:
            a ^= mod
    return res


def _poly_mod(a: int, mod: int) -> int:
    dm = _poly_degree(mod)
    while _poly_degree(a) >= dm and a:
        a ^= mod << (_poly_degree(a) - dm)
    return a


def is_irreducible(poly: int, degree: int) -> bool:
    """Exhaustive factor check; intended for degree <= 16."""
    if _poly_degree(poly) != degree:
        return False
    if degree == 1:
        return True
    if not poly & 1:  # divisible by x
        return False
    for d in range(1, degree // 2 + 1):
        for low in range(1 << d):
            cand = (1 << d) | low
            if _poly_mod(poly, cand) == 0:
                return False
    return True


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


class GF:
    """Arithmetic over GF(p) (``kind='prime'``) or GF(2^m) (``kind='binary'``)."""

    def __init__(self, kind: str, order: int, poly: Optional[int] = None,
                 degree: Optional[int] = None):
        self.kind = kind
        self.order = order
        self.poly = poly
        self.degree = degree
        self._log: Optional[List[int]] = None
        self._alog: Optional[List[int]] = None
        self._rows: Dict[int, np.ndarray] = {}
        if kind == "binary" and degree is not None and degree <= _TABLE_MAX_DEGREE:
            self._build_tables()

    # -- constructors -------------------------------------------------

    @classmethod
    def prime(cls, p: int) -> "GF":
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        return cls("prime", p)

    @classmethod
    def binary(cls, m: int, poly: Optional[int] = None) -> "GF":
        if m < 1:
            raise ValueError("degree must be >= 1")
        if poly is None:
            if m not in CANONICAL_POLY:
                raise ValueError(f"no canonical polynomial for degree {m}")
            poly = CANONICAL_POLY[m]
        if m <= _TABLE_MAX_DEGREE and not is_irreducible(poly, m):
            raise ValueError(f"0b{poly:b} is not irreducible of degree {m}")
        return cls("binary", 1 << m, poly=poly, degree=m)

    # -- table construction -------------------------------------------

    def _build_tables(self) -> None:
        q = self.order
        alog = [0] * (q - 1)
        log = [0] * q
        x = 1
        for i in range(q - 1):
            alog[i] = x
            log[x] = i
            x = _poly_mulmod(x, 2, self.poly)
        if x != 1:
            # x not primitive for this polynomial: find a generator.
            g = 3
            while True:
                x, ok = 1, True
                for i in range(q - 1):
                    alog[i] = x
                    log[x] = i
                    x = _poly_mulmod(x, g, self.poly)
                    if x == 1 and i < q - 2:
                        ok = False
                        break
                if ok and x == 1:
                    break
                g += 1
        self._alog = alog
        self._log = log

    # -- element arithmetic (ints) ------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.kind == "binary":
            return a ^ b
        return (a + b) % self.order

    def sub(self, a: int, b: int) -> int:
        if self.kind == "binary":
            return a ^ b
        return (a - b) % self.order

    def neg(self, a: int) -> int:
        if self.kind == "binary":
            return a
        return (-a) % self.order

    def mul(self, a: int, b: int) -> int:
        if self.kind == "prime":
            return a * b % self.order
        if a == 0 or b == 0:
            return 0
        if self._log is not None:
            return self._alog[(self._log[a] + self._log[b]) % (self.order - 1)]
        return _poly_mulmod(a, b, self.poly)

    def mul_polynomial(self, a: int, b: int) -> int:
        """Table-free multiply via polynomial long division (slow oracle)."""
        if self.kind == "prime":
            return a * b % self.order
        return _poly_mulmod(a, b, self.poly)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        if self.kind == "prime":
            return pow(a, self.order - 2, self.order)
        if self._log is not None:
            return self._alog[(self.order - 1 - self._log[a]) % (self.order - 1)]
        return self.pow(a, self.order - 2)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        res, base = 1, a
        while e:
            if e & 1:
                res = self.mul(res, base)
            base = self.mul(base, base)
            e >>= 1
        return res

    # -- array arithmetic (int64 numpy arrays of elements) ---------------

    def mul_row(self, c: int) -> np.ndarray:
        """Product row of ``c``: ``row[x] == mul(c, x)`` for every element x.

        Rows are built on first request and kept, so ``mul_row(c)[xs]``
        multiplies a whole array by ``c`` with one gather.
        """
        row = self._rows.get(c)
        if row is None:
            if self.order > _ROW_MAX_ORDER:
                raise ValueError(f"no product rows for {self}: order above "
                                 f"{_ROW_MAX_ORDER}")
            row = np.array([self.mul(c, x) for x in range(self.order)],
                           dtype=np.int64)
            self._rows[c] = row
        return row

    def add_arrays(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise field sum of two arrays of elements."""
        if self.kind == "binary":
            return a ^ b
        return (a + b) % self.order

    # -- identity ------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, GF) and self.kind == other.kind
                and self.order == other.order and self.poly == other.poly)

    def __hash__(self) -> int:
        return hash((self.kind, self.order, self.poly))

    def __repr__(self) -> str:
        if self.kind == "prime":
            return f"GF({self.order})"
        return f"GF(2^{self.degree})"


def default_field(t: int, b: int) -> GF:
    """Smallest GF(2^m) with 2^m >= t + b, guaranteeing an MDS parity matrix."""
    m = 1
    while (1 << m) < t + b:
        m += 1
    return GF.binary(m)


# -- linear algebra ----------------------------------------------------


@dataclass
class SolveResult:
    """Outcome of solve_linear: a unique solution or a pinned/free report."""

    solution: Optional[List[int]]
    pinned: Dict[int, int]
    free: List[int]

    @property
    def unique(self) -> bool:
        return self.solution is not None


def solve_linear(a_rows: Sequence[Sequence[int]], y: Sequence[int], field: GF) -> SolveResult:
    """Gaussian elimination of A x = y over ``field``.

    Returns the unique solution when the relevant columns have full rank;
    otherwise reports which unknowns are pinned and which stay free.
    Raises InconsistentSystemError on a contradictory system.
    """
    if len(a_rows) != len(y):
        raise ValueError("matrix/vector size mismatch")
    n = len(a_rows[0]) if a_rows else 0
    rows = [list(r) + [v] for r, v in zip(a_rows, y)]
    for r in rows:
        if len(r) != n + 1:
            raise ValueError("ragged matrix")
    pivots: Dict[int, List[int]] = {}
    for row in rows:
        for col, prow in pivots.items():
            c = row[col]
            if c:
                for k in range(n + 1):
                    row[k] = field.sub(row[k], field.mul(c, prow[k]))
        col = next((k for k in range(n) if row[k]), None)
        if col is None:
            if row[n]:
                raise InconsistentSystemError("inconsistent linear system")
            continue
        inv = field.inv(row[col])
        row[:] = [field.mul(inv, v) for v in row]
        for prow in pivots.values():
            c = prow[col]
            if c:
                for k in range(n + 1):
                    prow[k] = field.sub(prow[k], field.mul(c, row[k]))
        pivots[col] = row
    non_pivot = [k for k in range(n) if k not in pivots]
    pinned: Dict[int, int] = {}
    for col, prow in pivots.items():
        if all(prow[k] == 0 for k in non_pivot):
            pinned[col] = prow[n]
    if len(pinned) == n:
        return SolveResult([pinned[k] for k in range(n)], pinned, [])
    free = [k for k in range(n) if k not in pinned]
    return SolveResult(None, pinned, free)


class IncrementalSystem:
    """Online Gaussian elimination over arbitrary variable ids.

    Equations arrive one at a time; ``add_equation`` returns the variables
    newly determined by the accumulated system, with their values.
    """

    def __init__(self, field: GF):
        self.field = field
        self.solved: Dict[Hashable, int] = {}
        # pivot var -> (row dict var->coeff, const); rows kept fully reduced
        self._rows: Dict[Hashable, Tuple[Dict[Hashable, int], int]] = {}

    def add_equation(self, terms: Dict[Hashable, int], const: int) -> Dict[Hashable, int]:
        f = self.field
        row = dict(terms)
        c = const
        # substitute already-solved variables
        for v in list(row):
            if v in self.solved:
                c = f.sub(c, f.mul(row.pop(v), self.solved[v]))
            elif row[v] == 0:
                del row[v]
        # reduce against existing pivot rows
        for pv in list(row):
            if pv in self._rows:
                coef = row.pop(pv)
                prow, pc = self._rows[pv]
                for v2, c2 in prow.items():
                    nv = f.sub(row.get(v2, 0), f.mul(coef, c2))
                    if nv:
                        row[v2] = nv
                    else:
                        row.pop(v2, None)
                c = f.sub(c, f.mul(coef, pc))
        if not row:
            if c != 0:
                raise InconsistentSystemError("contradictory equation")
            return {}
        pivot = next(iter(row))
        inv = f.inv(row.pop(pivot))
        row = {v: f.mul(inv, cv) for v, cv in row.items()}
        c = f.mul(inv, c)
        # eliminate the new pivot from older rows
        for opv, (orow, oc) in list(self._rows.items()):
            coef = orow.get(pivot)
            if coef:
                del orow[pivot]
                for v2, c2 in row.items():
                    nv = f.sub(orow.get(v2, 0), f.mul(coef, c2))
                    if nv:
                        orow[v2] = nv
                    else:
                        orow.pop(v2, None)
                self._rows[opv] = (orow, f.sub(oc, f.mul(coef, c)))
        self._rows[pivot] = (row, c)
        # harvest rows that became single-variable
        newly: Dict[Hashable, int] = {}
        changed = True
        while changed:
            changed = False
            for pv, (prow, pc) in list(self._rows.items()):
                if not prow:
                    del self._rows[pv]
                    self.solved[pv] = pc
                    newly[pv] = pc
                    changed = True
                    for opv, (orow, oc) in list(self._rows.items()):
                        coef = orow.pop(pv, 0)
                        if coef:
                            self._rows[opv] = (orow, f.sub(oc, f.mul(coef, pc)))
        return newly

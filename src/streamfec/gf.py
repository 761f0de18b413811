"""Finite-field arithmetic over GF(2^m), 1 <= m <= 16.

Field elements are plain ints in [0, 2^m).  A ``GF`` instance owns the
arithmetic: addition is XOR, and multiplication and inversion read
log/antilog tables built when the field is made.  ``mul(c, xs)`` also
multiplies a whole integer array of elements by a constant, through a
per-constant product row (``mul_row``) built on first use.  Product rows
and so array products have the field's ``dtype``, the narrowest
unsigned integer holding an element (uint8 for m <= 8, else uint16),
which is also the wire's element width.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional, Tuple, Union

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


class InconsistentSystemError(RuntimeError):
    """A linear system contradicts itself: a corrupted stream or a codec
    bug.  ``column`` is the first contradicting column of vector constants
    (0 for elements); ``slot`` is the stream slot whose parities showed
    it, when the decoder raises it."""

    def __init__(self, message: str, column: int = 0,
                 slot: Optional[int] = None):
        super().__init__(message)
        self.column, self.slot = column, slot


class GF:
    """Arithmetic over GF(2^m) modulo ``CANONICAL_POLY[m]``, 1 <= m <= 16."""

    def __init__(self, degree: int):
        if degree not in CANONICAL_POLY:
            raise ValueError(f"field degree must be in 1..16, got {degree}")
        self.degree = degree
        self.order = 1 << degree
        self.poly = CANONICAL_POLY[degree]
        self.dtype = np.dtype(np.uint8 if degree <= 8 else np.uint16)
        self._rows: Dict[int, np.ndarray] = {}
        # x generates the multiplicative group: alog[i] = x^i, log inverts it.
        self._alog = [1] * (self.order - 1)
        self._log = [0] * self.order
        for i in range(1, self.order - 1):
            a = self._alog[i - 1] << 1  # times x, reduced by the polynomial
            self._alog[i] = a ^ self.poly if a & self.order else a
            self._log[self._alog[i]] = i

    # -- arithmetic (elements and integer arrays of them) -------------

    def mul(self, a: int, b: Union[int, np.ndarray]) -> Union[int, np.ndarray]:
        """a * b for an element a and an element or integer array b; an
        array is returned as is when a is 1, else gathered from
        ``mul_row(a)``, so at the field's dtype."""
        if isinstance(b, int):
            if a == 0 or b == 0:
                return 0
            return self._alog[(self._log[a] + self._log[b]) % (self.order - 1)]
        return b if a == 1 else self.mul_row(a)[b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return self._alog[(self.order - 1 - self._log[a]) % (self.order - 1)]

    def mul_row(self, c: int) -> np.ndarray:
        """Product row of ``c``: ``row[x] == mul(c, x)`` for every element x.

        Rows have the field's dtype and are built on first request and
        kept, so ``mul_row(c)[xs]`` (or ``.take(xs)``) multiplies a whole
        integer array by ``c`` with one gather.
        """
        row = self._rows.get(c)
        if row is None:
            row = np.array([self.mul(c, x) for x in range(self.order)],
                           dtype=self.dtype)
            self._rows[c] = row
        return row

    # -- identity ------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GF) and self.order == other.order

    def __hash__(self) -> int:
        return hash(self.order)

    def __repr__(self) -> str:
        return f"GF(2^{self.degree})"


def default_field(t: int, b: int) -> GF:
    """Smallest GF(2^m) with 2^m >= t + b, guaranteeing an MDS parity matrix."""
    m = 1
    while (1 << m) < t + b:
        m += 1
    return GF(m)


# -- linear algebra ----------------------------------------------------


class IncrementalSystem:
    """Online Gaussian elimination over arbitrary variable ids.

    Equations arrive one at a time; ``add_equation`` returns the variables
    newly determined by the accumulated system, with their values.  A
    known value enters as the one-variable equation ``{var: 1}``.

    Constants, and so values, are elements or integer vectors with one
    column per system solved at once; ``field.mul`` multiplies either by
    an element and no constant changes in place.  A contradiction in any
    column raises InconsistentSystemError.

    Invariant: rows are fully reduced, so no row holds a solved variable,
    another row's pivot or no term but its pivot.  A row left with no term
    solves its pivot, which no other row holds.
    """

    def __init__(self, field: GF):
        self.field = field
        self.solved: Dict[Hashable, int] = {}
        # pivot var -> (row dict var->coeff, const); rows kept fully reduced
        self._rows: Dict[Hashable, Tuple[Dict[Hashable, int], int]] = {}

    def add_equation(self, terms: Dict[Hashable, int], const: int) -> Dict[Hashable, int]:
        f, mul = self.field, self.field.mul
        row = dict(terms)
        c = const
        # fold in already-solved variables
        for v in list(row):
            if v in self.solved:
                c = c ^ mul(row.pop(v), self.solved[v])
            elif row[v] == 0:
                del row[v]
        # reduce against existing pivot rows
        for pv in list(row):
            if pv in self._rows:
                coef = row.pop(pv)
                prow, pc = self._rows[pv]
                for v2, c2 in prow.items():
                    nv = row.get(v2, 0) ^ mul(coef, c2)
                    if nv:
                        row[v2] = nv
                    else:
                        row.pop(v2, None)
                c = c ^ mul(coef, pc)
        if not row:  # 0 = c: c must be 0 in every column
            bad = c.nonzero()[0] if isinstance(c, np.ndarray) else [0] if c else []
            if len(bad):
                raise InconsistentSystemError("contradictory equation", int(bad[0]))
            return {}
        pivot = next(iter(row))
        inv = f.inv(row.pop(pivot))
        row = {v: mul(inv, cv) for v, cv in row.items()}
        c = mul(inv, c)
        # eliminate the new pivot from older rows
        for opv, (orow, oc) in list(self._rows.items()):
            coef = orow.get(pivot)
            if coef:
                del orow[pivot]
                for v2, c2 in row.items():
                    nv = orow.get(v2, 0) ^ mul(coef, c2)
                    if nv:
                        orow[v2] = nv
                    else:
                        orow.pop(v2, None)
                self._rows[opv] = (orow, oc ^ mul(coef, c))
        self._rows[pivot] = (row, c)
        # harvest rows left with only their pivot; no other row holds it
        newly: Dict[Hashable, int] = {}
        for pv, (prow, pc) in list(self._rows.items()):
            if not prow:
                del self._rows[pv]
                self.solved[pv] = pc
                newly[pv] = pc
        return newly

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
    bug.  ``slot`` is the stream slot whose parities showed it, when the
    decoder raises it; ``syndrome`` the nonzero constant c of the row
    ``0 = c``, when ``IncrementalSystem.add_equation`` raises it."""

    def __init__(self, message: str, slot: Optional[int] = None,
                 syndrome=None):
        super().__init__(message)
        self.slot = slot
        self.syndrome = syndrome


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
        ``mul_row(a)`` by ``take``, so at the field's dtype."""
        if isinstance(b, int):
            if a == 0 or b == 0:
                return 0
            return self._alog[(self._log[a] + self._log[b]) % (self.order - 1)]
        return b if a == 1 else self.mul_row(a).take(b)

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
    column raises InconsistentSystemError, its ``syndrome`` the constant.

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
        """Add ``sum(coeff * var for var, coeff in terms) = const`` and
        return the variables it newly solves, with their values.

        One pass over the terms drops zero coefficients, folds solved
        variables into the constant and sets other rows' pivots aside;
        the row keeps the rest in the terms' order.  Reducing it by each
        pivot set aside, in the terms' order, appends the terms that
        brings in.  The row's first term is its pivot; the row is scaled
        so that the pivot's coefficient is 1, unless it is already, and
        the pivot is eliminated from the older rows.  A row left with no
        term solves its pivot: the older ones in row order, then the new
        one.  Row coefficients are nonzero, so their products are read
        from the log tables directly.  A row reduced to ``0 = c`` with c
        nonzero raises InconsistentSystemError with c as its ``syndrome``
        and leaves the system as it was.
        """
        f, solved, rows = self.field, self.solved, self._rows
        mul, log, alog, period = f.mul, f._log, f._alog, f.order - 1
        row: Dict[Hashable, int] = {}
        pivots = []
        c = const
        for v, cv in terms.items():
            if cv:
                if v in solved:
                    c = c ^ mul(cv, solved[v])
                elif v in rows:
                    pivots.append((v, cv))
                else:
                    row[v] = cv
        for pv, coef in pivots:
            prow, pc = rows[pv]
            lc = log[coef]
            for v2, c2 in prow.items():
                nv = row.get(v2, 0) ^ alog[(lc + log[c2]) % period]
                if nv:
                    row[v2] = nv
                else:
                    del row[v2]
            c = c ^ mul(coef, pc)
        if not row:  # 0 = c: c must be 0 in every column
            if c.any() if isinstance(c, np.ndarray) else c:
                raise InconsistentSystemError("contradictory equation",
                                              syndrome=c)
            return {}
        pivot = next(iter(row))
        lead = row.pop(pivot)
        if lead != 1:
            li = period - log[lead]  # log of the inverse
            if row:
                row = {v: alog[(li + log[cv]) % period]
                       for v, cv in row.items()}
            c = mul(alog[li], c)
        # eliminate the new pivot from older rows
        emptied = []
        for opv, (orow, oc) in rows.items():
            coef = orow.pop(pivot, 0)
            if coef:
                lc = log[coef]
                for v2, c2 in row.items():
                    nv = orow.get(v2, 0) ^ alog[(lc + log[c2]) % period]
                    if nv:
                        orow[v2] = nv
                    else:
                        del orow[v2]
                rows[opv] = (orow, oc ^ mul(coef, c))
                if not orow:
                    emptied.append(opv)
        newly: Dict[Hashable, int] = {}
        for pv in emptied:
            solved[pv] = newly[pv] = rows.pop(pv)[1]
        if row:
            rows[pivot] = (row, c)
        else:
            solved[pivot] = newly[pivot] = c
        return newly

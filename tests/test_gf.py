import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from streamfec.gf import (CANONICAL_POLY, GF, IncrementalSystem,
                          InconsistentSystemError, default_field)

from reference_decoder import ReferenceSystem


def exhaustive(gf):
    return list(range(gf.order))


def poly_mul(a, b, poly):
    """Table-free product in GF(2)[x]/poly: a shift-and-XOR carry-less
    multiply, then reduction of the high bits by long division.  It shares
    no code with the field, so it checks the tables the field builds."""
    prod = 0
    for i in range(b.bit_length()):
        if b >> i & 1:
            prod ^= a << i
    deg = poly.bit_length() - 1
    for i in range(prod.bit_length() - 1, deg - 1, -1):
        if prod >> i & 1:
            prod ^= poly << (i - deg)
    return prod


# ---------------------------------------------------------
# Construction
# ---------------------------------------------------------

def test_field_degree_limits():
    for m in (0, 17):
        with pytest.raises(ValueError):
            GF(m)


def test_canonical_polynomials_are_primitive():
    # x generates all 2^m - 1 nonzero elements, so the antilog table is a
    # permutation of 1..2^m - 1 and the log table inverts it.
    assert sorted(CANONICAL_POLY) == list(range(1, 17))
    for m in CANONICAL_POLY:
        g = GF(m)
        powers, x = [], 1
        for _ in range(g.order - 1):
            powers.append(x)
            x = poly_mul(x, 2, CANONICAL_POLY[m])
        assert x == 1
        assert g._alog == powers
        assert sorted(powers) == list(range(1, g.order))


def test_default_field_is_smallest_fitting():
    assert default_field(2, 1).order == 4
    assert default_field(5, 2).order == 8
    assert default_field(5, 5).order == 16


# ---------------------------------------------------------
# Arithmetic
# ---------------------------------------------------------

def test_gf2_add_is_xor():
    # the field's sum is XOR: 1 + 1 = 0, and mul distributes over it
    g = GF(1)
    assert 1 ^ 1 == 0 and g.mul(1, 1 ^ 1) == g.mul(1, 1) ^ g.mul(1, 1)
    assert 1 ^ 0 == 1 and g.mul(1, 1 ^ 0) == g.mul(1, 1) ^ g.mul(1, 0)


def test_gf8_add_is_xor():
    # (x + 1) + (x^2 + 1) = x^2 + x, the sum the polynomial multiply uses
    g = GF(3)
    assert 0b011 ^ 0b101 == 0b110
    assert g.mul(0b010, 0b011) ^ g.mul(0b010, 0b101) \
        == poly_mul(0b010, 0b110, CANONICAL_POLY[3])


def test_gf8_mul_example():
    # x * x^2 = x^3 = x + 1 mod x^3+x+1
    g = GF(3)
    assert g.mul(0b010, 0b100) == 0b011


def test_identity_and_annihilator():
    g = GF(4)
    for a in exhaustive(g):
        assert g.mul(a, 1) == a
        assert g.mul(a, 0) == 0
        assert a ^ 0 == a


def test_table_mul_matches_polynomial_oracle():
    for m in (2, 3, 4, 8):
        g = GF(m)
        rng = np.random.default_rng(m)
        for _ in range(200):
            a, b = (int(x) for x in rng.integers(0, g.order, size=2))
            assert g.mul(a, b) == poly_mul(a, b, CANONICAL_POLY[m])


def test_inverse_exhaustive_small():
    for g in (GF(3), GF(4)):
        for a in range(1, g.order):
            assert g.mul(a, g.inv(a)) == 1


def test_inv_zero_raises():
    with pytest.raises(ZeroDivisionError):
        GF(3).inv(0)


def test_axioms_exhaustive_up_to_16():
    for g in (GF(1), GF(2), GF(3), GF(4)):
        els = exhaustive(g)
        for a in els:
            for b in els:
                assert a ^ b == b ^ a
                assert g.mul(a, b) == g.mul(b, a)
                for c in els:
                    assert g.mul(a, b ^ c) == g.mul(a, b) ^ g.mul(a, c)
                    assert g.mul(g.mul(a, b), c) == g.mul(a, g.mul(b, c))


def test_axioms_exhaustive_gf256_vectorized():
    """Exhaustive associativity/distributivity over GF(2^8) via table algebra."""
    g = GF(8)
    q = g.order
    mul = np.zeros((q, q), dtype=np.int32)
    for a in range(q):
        for b in range(a, q):
            mul[a, b] = mul[b, a] = g.mul(a, b)
    a = np.arange(q)[:, None, None]
    b = np.arange(q)[None, :, None]
    c = np.arange(q)[None, None, :]
    assert np.array_equal(mul[mul[a, b], c], mul[a, mul[b, c]])
    assert np.array_equal(mul[a, b ^ c], mul[a, b] ^ mul[a, c])
    # unique inverses
    for x in range(1, q):
        assert np.count_nonzero(mul[x] == 1) == 1


def test_mul_on_arrays_matches_elementwise():
    """``mul(c, xs)`` on an int64 array is ``mul(c, x)`` for each x, for
    every constant c including 0 and 1, and 1 returns the array itself."""
    for g in (GF(1), GF(2), GF(3), GF(4)):
        xs = np.arange(g.order, dtype=np.int64)
        for c in exhaustive(g):
            got = g.mul(c, xs)
            assert got.tolist() == [g.mul(c, x) for x in exhaustive(g)]
        assert g.mul(1, xs) is xs


def test_tables_deterministic():
    g1, g2 = GF(5), GF(5)
    assert g1 == g2
    for a in range(g1.order):
        for b in (3, 17, 30):
            assert g1.mul(a, b) == g2.mul(a, b)


# ---------------------------------------------------------
# Linear solving
# ---------------------------------------------------------

def test_solve_partially_pinned():
    g = GF(1)
    sys = IncrementalSystem(g)
    # x0 pinned, x1/x2 entangled
    sys.add_equation({0: 1}, 1)
    sys.add_equation({1: 1, 2: 1}, 0)
    assert sys.solved == {0: 1}


def test_solve_roundtrip_random_full_rank():
    g = GF(4)
    rng = np.random.default_rng(99)
    found = 0
    while found < 20:
        a = [[int(v) for v in rng.integers(0, 16, size=4)] for _ in range(4)]
        y = [int(v) for v in rng.integers(0, 16, size=4)]
        sys = IncrementalSystem(g)
        try:
            for row, want in zip(a, y):
                sys.add_equation({k: c for k, c in enumerate(row) if c}, want)
        except InconsistentSystemError:
            continue  # rank-deficient draw with incompatible y
        if len(sys.solved) < 4:
            continue
        found += 1
        solution = [sys.solved[k] for k in range(4)]
        for row, want in zip(a, y):
            acc = 0
            for coeff, x in zip(row, solution):
                acc ^= g.mul(coeff, x)
            assert acc == want


def test_incremental_system_cascades():
    g = GF(1)
    sys = IncrementalSystem(g)
    assert sys.add_equation({"a": 1, "b": 1}, 1) == {}
    got = sys.add_equation({"b": 1}, 0)
    assert got == {"b": 0, "a": 1}
    assert sys.solved == {"a": 1, "b": 0}


def test_incremental_system_contradiction():
    g = GF(1)
    sys = IncrementalSystem(g)
    sys.add_equation({"a": 1}, 1)
    with pytest.raises(InconsistentSystemError):
        sys.add_equation({"a": 1}, 0)


def test_rows_stay_fully_reduced():
    """After any sequence of ``add_equation`` calls, one-variable ones
    (how the decoder enters a known value) among them, no row is empty or
    holds a solved variable or another row's pivot, which is what lets
    ``add_equation`` harvest solved pivots in one pass."""
    g = GF(3)
    rng = random.Random(11)
    solved = 0
    for _ in range(300):
        sys = IncrementalSystem(g)
        try:
            for _ in range(rng.randint(1, 8)):
                if rng.random() < 0.3:
                    var = rng.randrange(9)
                    sys.add_equation({var: 1},
                                     sys.solved.get(var, rng.randrange(8)))
                else:
                    terms = {v: rng.randrange(1, 8)
                             for v in rng.sample(range(9), rng.randint(1, 4))}
                    sys.add_equation(terms, rng.randrange(8))
                for pivot, (row, _) in sys._rows.items():
                    assert row and pivot not in sys.solved
                    assert not set(row) & (set(sys._rows) | set(sys.solved))
        except InconsistentSystemError:
            continue
        solved += len(sys.solved)
    assert solved > 300


def test_substitute_contradiction():
    """Entering a known value as a one-variable equation, the way the
    decoder does, solves nothing new when it agrees with what is already
    solved and raises when it contradicts it."""
    g = GF(2)
    sys = IncrementalSystem(g)
    sys.add_equation({"a": 1}, 0)
    assert sys.add_equation({"a": 1}, 0) == {}
    with pytest.raises(InconsistentSystemError):
        sys.add_equation({"a": 1}, 3)


def test_vector_constants_solve_each_column_alone():
    """With one constant column per system, each column solves as an
    element system of its own, and a contradiction in any column raises."""
    g = GF(3)
    rng = random.Random(17)
    contradictions = solved = 0
    for _ in range(200):
        vec = IncrementalSystem(g)
        cols = [IncrementalSystem(g) for _ in range(3)]
        for _ in range(rng.randint(1, 6)):
            terms = {v: rng.randrange(1, 8)
                     for v in rng.sample(range(6), rng.randint(1, 3))}
            const = [rng.randrange(8) for _ in cols]
            want, bad = [], []
            for k, col in enumerate(cols):
                try:
                    want.append(col.add_equation(terms, const[k]))
                except InconsistentSystemError:
                    bad.append(k)
            if bad:
                with pytest.raises(InconsistentSystemError):
                    vec.add_equation(terms, np.array(const))
                contradictions += 1
                break
            got = vec.add_equation(terms, np.array(const))
            assert all(list(got) == list(w) for w in want)
            for var, values in got.items():
                assert values.tolist() == [w[var] for w in want]
                solved += 1
    assert contradictions > 20 and solved > 100, (contradictions, solved)


def system_state(system):
    """A system's solved values and rows, in order, as plain lists."""
    def plain(c):
        return c.tolist() if isinstance(c, np.ndarray) else c
    return ([(v, plain(c)) for v, c in system.solved.items()],
            [(pv, list(row.items()), plain(c))
             for pv, (row, c) in system._rows.items()])


def outcome(system, terms, const):
    """What ``add_equation`` returns, in order, or that it raises a
    contradiction."""
    try:
        newly = system.add_equation(terms, const)
    except InconsistentSystemError:
        return "contradiction"
    return [(v, c.tolist() if isinstance(c, np.ndarray) else c)
            for v, c in newly.items()]


@pytest.mark.parametrize("syndrome", [3, np.array([0, 3, 1], dtype=np.uint8)],
                         ids=["element", "vector"])
def test_contradiction_leaves_the_system_and_names_its_syndrome(syndrome):
    """A row reduced to ``0 = c``, c nonzero in some column, raises with c
    as ``syndrome`` and leaves the solved values and rows as they were:
    the decoder notes the contradicting columns and goes on."""
    g = GF(2)
    zero = syndrome * 0
    sys = IncrementalSystem(g)
    sys.add_equation({"a": 1}, zero ^ 1)
    sys.add_equation({"b": 1, "c": 2}, zero ^ 2)
    before = system_state(sys)
    with pytest.raises(InconsistentSystemError) as exc:
        # a + b + 2c = 1 + 2 in every consistent column
        sys.add_equation({"a": 1, "b": 1, "c": 2}, syndrome ^ 3)
    assert np.array_equal(exc.value.syndrome, syndrome)
    assert system_state(sys) == before


@given(data=st.data(), degree=st.integers(1, 4),
       columns=st.sampled_from([None, None, 1, 3]))
def test_add_equation_matches_reference_elimination(data, degree, columns):
    """On any stream of equations, ``IncrementalSystem`` returns what the
    plain reference elimination returns (variables, order and values),
    raises at the same equation, and keeps the same solved values and
    rows, in order.  The stream mixes equations
    on random variables, one-variable ones (a known value, agreeing
    with a solved one or not) and equations on several rows' pivots,
    whose reduction brings in those rows' terms.  Constants are elements
    (``columns`` None) or vectors at the field's dtype."""
    g = GF(degree)
    element = st.integers(0, g.order - 1)
    nonzero = st.integers(1, g.order - 1)
    system, reference = IncrementalSystem(g), ReferenceSystem(g)
    n_vars = data.draw(st.integers(1, 10))
    variable = st.integers(0, n_vars - 1)
    for _ in range(data.draw(st.integers(1, 16))):
        kind = data.draw(st.sampled_from(["terms", "terms", "known", "pivots",
                                          "pivots"]))
        if columns is None:
            const = data.draw(element)
        else:
            const = np.array(data.draw(st.lists(
                element, min_size=columns, max_size=columns)), dtype=g.dtype)
        if kind == "known":
            var = data.draw(variable)
            terms = {var: 1}
            if var in reference.solved and data.draw(st.booleans()):
                const = reference.solved[var]  # a substitution that agrees
        elif kind == "pivots" and reference._rows:
            # dict order is the draw order: the terms' order decides the
            # order of the reduction and so of the row
            terms = data.draw(st.dictionaries(
                st.sampled_from(list(reference._rows)), nonzero, min_size=1))
            terms.update(data.draw(st.dictionaries(variable, element,
                                                   max_size=1)))
        else:
            terms = data.draw(st.dictionaries(variable, element, min_size=1,
                                              max_size=5))
        assert outcome(system, terms, const) \
            == outcome(reference, terms, const), terms
        assert system_state(system) == system_state(reference)


def test_reduction_appends_each_pivots_terms_in_the_terms_order():
    """An equation on two rows' pivots becomes the sum of their rows,
    whose terms come in the order of the pivots in the equation, so its
    first term, the new pivot, is the first pivot's row's term."""
    g = GF(2)
    for order in ([0, 1], [1, 0]):
        system, reference = IncrementalSystem(g), ReferenceSystem(g)
        for both in (system, reference):
            both.add_equation({0: 1, 3: 2}, 1)
            both.add_equation({1: 1, 4: 3}, 2)
            both.add_equation({v: 1 for v in order}, 0)
        assert system_state(system) == system_state(reference)
        assert list(system._rows)[-1] == (3 if order[0] == 0 else 4)

import random

import numpy as np
import pytest

from streamfec.gf import GF
from streamfec.wire import check_stream, pack_stream, unpack_stream


def test_element_width():
    # an element takes its field's dtype on the wire, big-endian
    assert GF(1).dtype.itemsize == 1
    assert GF(8).dtype.itemsize == 1
    assert GF(9).dtype.itemsize == 2
    assert GF(16).dtype.itemsize == 2


def test_pack_golden_bytes():
    g = GF(8)
    assert pack_stream(np.array([(1, 2), (255, 0)]), g) == b"\x01\x02\xff\x00"
    g16 = GF(9)
    assert pack_stream(np.array([(1, 256)]), g16) == b"\x00\x01\x01\x00"


def test_roundtrip_random():
    rng = random.Random(5)
    for g in (GF(1), GF(8), GF(9)):
        slots = np.array([tuple(rng.randrange(g.order) for _ in range(3))
                          for _ in range(20)])
        data = pack_stream(slots, g)
        assert np.array_equal(unpack_stream(data, g, 3), slots)


def test_pack_rejects_out_of_range():
    with pytest.raises(ValueError):
        pack_stream(np.array([(4,)]), GF(2))


def test_unpack_truncated_names_offset():
    g = GF(8)
    data = pack_stream(np.array([(1, 2), (3, 4)]), g)
    with pytest.raises(ValueError, match="byte 2"):
        unpack_stream(data[:3], g, 2)


def test_unpacked_bad_element_names_row_and_column():
    """The wire frames bytes and reads no element: ``check_stream``, the
    one element rule, refuses one outside the field by row and column."""
    g = GF(2)  # order 4, one byte per element
    symbols = unpack_stream(b"\x00\x09", g, 2)
    assert symbols.tolist() == [[0, 9]]
    with pytest.raises(ValueError) as exc:
        check_stream(symbols, g)
    assert str(exc.value) == "element 9 at row 0, column 1 is not in GF(2^2)"


def test_unpack_refuses_a_width_below_one():
    with pytest.raises(ValueError, match="symbol_width must be positive"):
        unpack_stream(b"", GF(8), 0)


def test_unpack_empty():
    assert unpack_stream(b"", GF(8), 3).shape == (0, 3)

import random

import numpy as np
import pytest

from streamfec.gf import GF
from streamfec.wire import element_width, pack_stream, unpack_stream


def test_element_width():
    assert element_width(GF.binary(1)) == 1
    assert element_width(GF.binary(8)) == 1
    assert element_width(GF.binary(9)) == 2
    assert element_width(GF.binary(16)) == 2


def test_pack_golden_bytes():
    g = GF.binary(8)
    assert pack_stream(np.array([(1, 2), (255, 0)]), g) == b"\x01\x02\xff\x00"
    g16 = GF.binary(9)
    assert pack_stream(np.array([(1, 256)]), g16) == b"\x00\x01\x01\x00"


def test_roundtrip_random():
    rng = random.Random(5)
    for g in (GF.binary(1), GF.binary(8), GF.binary(9)):
        slots = np.array([tuple(rng.randrange(g.order) for _ in range(3))
                          for _ in range(20)])
        data = pack_stream(slots, g)
        assert np.array_equal(unpack_stream(data, g, 3), slots)


def test_pack_rejects_out_of_range():
    with pytest.raises(ValueError):
        pack_stream(np.array([(4,)]), GF.binary(2))


def test_unpack_truncated_names_offset():
    g = GF.binary(8)
    data = pack_stream(np.array([(1, 2), (3, 4)]), g)
    with pytest.raises(ValueError, match="byte 2"):
        unpack_stream(data[:3], g, 2)


def test_unpack_bad_element_names_offset():
    g = GF.binary(2)  # order 4, one byte per element
    with pytest.raises(ValueError, match="byte 1"):
        unpack_stream(b"\x00\x09", g, 2)


def test_unpack_empty():
    assert unpack_stream(b"", GF.binary(8), 3).shape == (0, 3)

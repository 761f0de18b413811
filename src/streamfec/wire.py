"""Flat binary serialization of symbol streams.

Each field element occupies one byte (GF(2^m), m <= 8) or two bytes
(m <= 16), most-significant byte first; a stream is the plain
concatenation of its slots' elements with no framing.  Packing and
unpacking run through a numpy big-endian ``>u1``/``>u2`` array.
"""

from __future__ import annotations

from itertools import chain
from typing import List, Sequence, Tuple

import numpy as np

from .gf import GF


def element_width(field: GF) -> int:
    """Bytes per element: minimal big-endian width for values < field order."""
    return max(1, ((field.order - 1).bit_length() + 7) // 8)


def pack_stream(slots: Sequence[Sequence[int]], field: GF) -> bytes:
    try:
        flat = np.fromiter(chain.from_iterable(slots), dtype=np.int64)
    except OverflowError as exc:
        raise ValueError(f"element out of range for {field}: {exc}") from exc
    bad = (flat < 0) | (flat >= field.order)
    if bad.any():
        raise ValueError(f"element {int(flat[bad][0])} out of range for {field}")
    return flat.astype(f">u{element_width(field)}").tobytes()


def unpack_stream(data: bytes, field: GF, symbol_width: int) -> List[Tuple[int, ...]]:
    """Split a packed stream into slots of ``symbol_width`` elements.

    Raises ValueError naming the byte offset of the first bad record on
    truncated input or out-of-range elements.
    """
    w = element_width(field)
    record = w * symbol_width
    if record <= 0:
        raise ValueError("symbol_width must be positive")
    if len(data) % record:
        raise ValueError(
            f"truncated stream: bad record at byte {len(data) - len(data) % record}")
    flat = np.frombuffer(data, dtype=f">u{w}")
    bad = np.flatnonzero(flat >= field.order)
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"bad element at byte {i * w}: {int(flat[i])}")
    return list(map(tuple, flat.reshape(-1, symbol_width).tolist()))

"""Flat binary serialization of symbol streams.

Each field element occupies a fixed number of bytes (the fewest that fit
the field order), most-significant byte first; a stream is the plain
concatenation of its slots' elements with no framing.  Packing and
unpacking run over a numpy ``(elements, width)`` byte view.
"""

from __future__ import annotations

from itertools import chain
from typing import List, Sequence, Tuple

import numpy as np

from .gf import GF

_MAX_WIDTH = 8  # elements travel through 64-bit arrays


def element_width(field: GF) -> int:
    """Bytes per element: minimal big-endian width for values < field order."""
    return max(1, ((field.order - 1).bit_length() + 7) // 8)


def _checked_width(field: GF) -> int:
    w = element_width(field)
    if field.order > 1 << 63:
        raise ValueError(f"{field} elements do not fit the wire's 63-bit limit")
    return w


def pack_stream(slots: Sequence[Sequence[int]], field: GF) -> bytes:
    w = _checked_width(field)
    try:
        flat = np.fromiter(chain.from_iterable(slots), dtype=np.int64)
    except OverflowError as exc:
        raise ValueError(f"element out of range for {field}: {exc}") from exc
    bad = (flat < 0) | (flat >= field.order)
    if bad.any():
        raise ValueError(f"element {int(flat[bad][0])} out of range for {field}")
    wide = flat.astype(">u8").view(np.uint8).reshape(-1, _MAX_WIDTH)
    return wide[:, _MAX_WIDTH - w:].tobytes()


def unpack_stream(data: bytes, field: GF, symbol_width: int) -> List[Tuple[int, ...]]:
    """Split a packed stream into slots of ``symbol_width`` elements.

    Raises ValueError naming the byte offset of the first bad record on
    truncated input or out-of-range elements.
    """
    w = _checked_width(field)
    record = w * symbol_width
    if record <= 0:
        raise ValueError("symbol_width must be positive")
    if len(data) % record:
        raise ValueError(
            f"truncated stream: bad record at byte {len(data) - len(data) % record}")
    raw = np.frombuffer(data, dtype=np.uint8).reshape(-1, w)
    wide = np.zeros((len(raw), _MAX_WIDTH), dtype=np.uint8)
    wide[:, _MAX_WIDTH - w:] = raw
    flat = wide.view(">u8").ravel()
    bad = np.flatnonzero(flat >= field.order)
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"bad element at byte {i * w}: {int(flat[i])}")
    return list(map(tuple, flat.reshape(-1, symbol_width).tolist()))

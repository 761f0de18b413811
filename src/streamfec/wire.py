"""Flat binary serialization of symbol streams.

A stream is an (n_slots, width) numpy integer array.  Each field element
occupies one byte (GF(2^m), m <= 8) or two bytes (m <= 16), big-endian;
the wire form is the plain concatenation of the rows with no framing,
read and written as one ``>u1``/``>u2`` array.  That is the field's
``dtype`` (``GF.dtype``) in big-endian order, which ``encode_stream``
returns, so a GF(2^m <= 8) stream is written without a cast.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .gf import GF


def element_width(field: GF) -> int:
    """Bytes per element: minimal big-endian width for values < field order."""
    return field.dtype.itemsize


def check_stream(symbols: np.ndarray, field: GF,
                 width: Optional[int] = None) -> None:
    """ValueError unless ``symbols`` is a 2-D integer array of elements of
    ``field``, with ``width`` columns if given.  Runs before any cast,
    which would wrap."""
    if (symbols.ndim != 2 or width not in (None, symbols.shape[1])
            or symbols.dtype.kind not in "iu"):
        raise ValueError(f"expected an integer (n, {width or 'width'}) array, "
                         f"got {symbols.dtype} of shape {symbols.shape}")
    bad = (symbols < 0) | (symbols >= field.order)
    if bad.any():
        raise ValueError(f"element {symbols[bad][0]} out of range for {field}")


def pack_stream(symbols: np.ndarray, field: GF) -> bytes:
    """Wire bytes of an (n, width) stream; ValueError as ``check_stream``."""
    check_stream(symbols, field)
    return symbols.astype(f">u{element_width(field)}", copy=False).tobytes()


def unpack_stream(data: bytes, field: GF, symbol_width: int) -> np.ndarray:
    """The (n, symbol_width) stream array packed in ``data``.

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
    return flat.reshape(-1, symbol_width)

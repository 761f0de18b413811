"""Flat binary serialization of symbol streams.

A stream is an (n_slots, width) numpy integer array; encode, decode and
pack check one by ``check_stream`` alone.  An element takes one byte
(m <= 8) or two (m <= 16) of GF(2^m), big-endian; the wire form is the
rows' plain concatenation, read and written as one ``>u1``/``>u2`` array,
the field's ``dtype`` in big-endian order, which ``encode_stream``
returns, so a GF(2^m <= 8) stream is written without a cast.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .gf import GF


def element_width(field: GF) -> int:
    """Bytes per element: minimal big-endian width for values < field order."""
    return field.dtype.itemsize


def check_stream(symbols: np.ndarray, field: GF, width: Optional[int] = None,
                 erased: np.ndarray = ...) -> None:
    """ValueError naming each one's dtype and shape unless ``symbols`` is a
    2-D integer array (``width`` columns if given) and ``erased``, if given,
    one bool per row; else naming the first element outside ``field`` in a
    row not erased, as only those are read.  Call before a cast: it wraps."""
    named = [("symbols", symbols)] + [("a mask", erased)] * (erased is not ...)
    if (getattr(symbols, "dtype", np.dtype(object)).kind not in "iu"
            or np.ndim(symbols) != 2 or width not in (None, symbols.shape[1])
            or len(named) > 1 and (getattr(erased, "dtype", None) != bool
                                   or np.shape(erased) != symbols.shape[:1])):
        got = [f"{name} of dtype {getattr(a, 'dtype', type(a).__name__)} "
               f"and shape {np.shape(a)}" for name, a in named]
        raise ValueError(f"expected an integer (n, {width or 'width'}) array"
                         f"{' and an (n,) bool mask' * (len(got) - 1)}, "
                         f"got {' and '.join(got)}")
    if (symbols.max(initial=0) >= field.order
            or symbols.dtype.kind == "i" and symbols.min(initial=0) < 0):
        bad = (symbols < 0) | (symbols >= field.order)
        if len(named) > 1:
            bad[erased] = False
        for row, col in np.argwhere(bad)[:1].tolist():
            raise ValueError(f"element {symbols[row, col]} at row {row}, "
                             f"column {col} is not in {field}")


def pack_stream(symbols: np.ndarray, field: GF) -> bytes:
    """Wire bytes of an (n, width) stream, checked by ``check_stream``."""
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

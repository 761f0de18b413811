"""Flat binary serialization of symbol streams.

A stream is an (n_slots, width) numpy integer array.  The wire only
frames bytes into its rows; ``check_stream``, which encode, decode and
pack call, is the one rule for the array and its elements.  An element
takes one byte (m <= 8) or two (m <= 16) of GF(2^m), big-endian; the
wire form is the rows' plain concatenation, read and written as one
``>u1``/``>u2`` array, the field's ``dtype`` in big-endian order, which
``encode_stream`` returns, so a GF(2^m <= 8) stream is written without
a cast.
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
    """ValueError naming each one's dtype and shape (a non-array's type)
    unless ``symbols`` is a 2-D integer array (``width`` columns if given)
    and ``erased``, if given, one bool per row; else naming the first
    element outside ``field`` in a row not erased, as only those are read.
    Call before a cast: it wraps."""
    named = [("symbols", symbols)] + [("a mask", erased)] * (erased is not ...)
    if (getattr(symbols, "dtype", np.dtype(object)).kind not in "iu"
            or np.ndim(symbols) != 2 or width not in (None, symbols.shape[1])
            or len(named) > 1 and (getattr(erased, "dtype", None) != bool
                                   or np.shape(erased) != symbols.shape[:1])):
        got = [f"{name} of dtype {a.dtype} and shape {a.shape}"
               if hasattr(a, "dtype") else f"{name} of type {type(a).__name__}"
               for name, a in named]
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
    """The (n, symbol_width) stream array packed in ``data``, unchecked:
    ``check_stream`` refuses an element outside the field where it is
    read.  ValueError names the byte offset of a truncated last record.
    """
    w = element_width(field)
    record = w * symbol_width
    if record <= 0:
        raise ValueError("symbol_width must be positive")
    if len(data) % record:
        raise ValueError(
            f"truncated stream: bad record at byte {len(data) - len(data) % record}")
    return np.frombuffer(data, dtype=f">u{w}").reshape(-1, symbol_width)

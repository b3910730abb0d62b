"""Wire primitives: the one varint layer behind every codec.

Traces (``repro.tracing.encode``), execution trees
(``repro.tree.encode``), programs (``repro.progmodel.serialize``) and
shard batches (``repro.exec.batch``) all speak the same primitives:

* **varint** — unsigned LEB128, seven bits a byte, low group first;
* **zigzag** — a signed int folded onto a varint, ``v >= 0 -> 2v`` and
  ``v < 0 -> -2v-1``, so it round-trips every int, however large;
* **string** / **blob** — a varint byte length, then the UTF-8 text or
  raw bytes;
* **bits** — a varint bit count, then the bits packed low bit first.

Writers append to a ``bytearray``. :class:`Reader` walks ``bytes`` or a
``memoryview`` and raises :class:`~repro.errors.TraceError` — never
anything else — on truncation or bad UTF-8. :func:`total_decoder` folds
whatever a codec's own decode logic can trip over on mangled input
(a bad table index, IR validation, deep recursion) into that same
error, so every decoder is total over bytes: any input yields a value
or ``TraceError``. The session's pipe unpackers
(``repro.exec.session``) take pickled tuples, not bytes, and are total
over those the same way.
"""

from __future__ import annotations

import functools
from typing import Callable, Tuple

from repro.errors import ProgramModelError, TraceError

__all__ = ["write_varint", "write_zigzag", "write_string", "write_blob",
           "write_bits", "Reader", "total_decoder"]


# -- writers -------------------------------------------------------------------

def write_varint(out: bytearray, value: int) -> None:
    if 0 <= value < 0x80:          # single-byte fast path (the common case)
        out.append(value)
        return
    if value < 0:
        raise TraceError(f"varint cannot encode negative value {value}")
    while value >= 0x80:
        out.append(value & 0x7F | 0x80)
        value >>= 7
    out.append(value)


def write_zigzag(out: bytearray, value: int) -> None:
    write_varint(out, value << 1 if value >= 0 else ((-value) << 1) - 1)


def write_blob(out: bytearray, data: bytes) -> None:
    write_varint(out, len(data))
    out += data


def write_string(out: bytearray, text: str) -> None:
    data = text.encode("utf-8")
    write_varint(out, len(data))
    out += data


def write_bits(out: bytearray, bits: Tuple[bool, ...]) -> None:
    write_varint(out, len(bits))
    byte = 0
    for index, bit in enumerate(bits):
        if bit:
            byte |= 1 << (index % 8)
        if index % 8 == 7:
            out.append(byte)
            byte = 0
    if len(bits) % 8:
        out.append(byte)


# -- reader ----------------------------------------------------------------------

class Reader:
    """Cursor over ``bytes`` or a ``memoryview``.

    Over a memoryview nothing is copied until a value is produced:
    :meth:`blob` materializes each payload with exactly one copy out of
    the received buffer and :meth:`string` decodes straight from it.
    """

    __slots__ = ("_data", "_len", "_pos")

    def __init__(self, data):
        self._data = data
        self._len = len(data)
        self._pos = 0

    def varint(self) -> int:
        data = self._data
        pos = self._pos
        if pos < self._len:
            byte = data[pos]
            if not byte & 0x80:        # single-byte fast path
                self._pos = pos + 1
                return byte
        shift = 0
        value = 0
        while True:
            if pos >= self._len:
                raise TraceError("truncated varint")
            byte = data[pos]
            pos += 1
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                self._pos = pos
                return value
            shift += 7

    def zigzag(self) -> int:
        raw = self.varint()
        return -((raw + 1) >> 1) if raw & 1 else raw >> 1

    def _take(self, length: int, what: str):
        start = self._pos
        end = start + length
        if end > self._len:
            raise TraceError(f"truncated {what}")
        self._pos = end
        return self._data[start:end]

    def blob(self) -> bytes:
        return bytes(self._take(self.varint(), "blob"))

    def string(self) -> str:
        chunk = self._take(self.varint(), "string")
        try:
            return str(chunk, "utf-8")
        except UnicodeDecodeError as error:
            raise TraceError(f"bad UTF-8 string: {error.reason}") from None

    def bits(self) -> Tuple[bool, ...]:
        count = self.varint()
        chunk = self._take((count + 7) // 8, "bit vector")
        return tuple(
            bool(chunk[i // 8] >> (i % 8) & 1) for i in range(count))

    def expect_end(self, what: str) -> None:
        if self._pos != self._len:
            raise TraceError(f"trailing bytes after {what}")


# -- totality --------------------------------------------------------------------

#: What a decoder's own logic can raise on mangled input once the
#: reader has vouched for framing: an out-of-range table index, a
#: missing key, IR validation (``ProgramModelError``), a too-deep
#: expression; and, for the session's packed tuples, a row of the
#: wrong shape or a field of the wrong type.
_UNTYPED = (ProgramModelError, ValueError, IndexError, KeyError,
            OverflowError, RecursionError, TypeError, AttributeError)


def total_decoder(what: str) -> Callable[[Callable], Callable]:
    """Decorate a decoder so it raises only :class:`TraceError`."""
    def decorate(decode: Callable) -> Callable:
        @functools.wraps(decode)
        def total(data):
            try:
                return decode(data)
            except _UNTYPED as error:
                raise TraceError(f"malformed {what} bytes: {error}") \
                    from error
        return total
    return decorate

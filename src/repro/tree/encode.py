"""Wire encoding of execution trees for hive-node exchange.

Paper Sec. 4: hive nodes "exchange information on what they have found
thus far". A tree's transferable knowledge is its terminal paths with
their outcome counts; this module encodes exactly that (with a
string table so repeated function/block names cost one varint each),
and the receiver rebuilds — or merges into — a tree with identical
structure and counters.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.errors import TraceError
from repro.progmodel.interpreter import Outcome
from repro.tree.exectree import ExecutionTree

__all__ = ["encode_tree", "decode_tree", "merge_encoded"]

_FORMAT_VERSION = 1
_OUTCOMES = [Outcome.OK, Outcome.CRASH, Outcome.ASSERT, Outcome.DEADLOCK,
             Outcome.HANG]


def _write_varint(out: bytearray, value: int) -> None:
    if value < 0:
        raise TraceError(f"varint cannot encode {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


class _Reader:
    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0

    def varint(self) -> int:
        shift = 0
        value = 0
        while True:
            if self._pos >= len(self._data):
                raise TraceError("truncated tree encoding")
            byte = self._data[self._pos]
            self._pos += 1
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return value
            shift += 7

    def string(self) -> str:
        length = self.varint()
        if self._pos + length > len(self._data):
            raise TraceError("truncated tree encoding (string)")
        text = self._data[self._pos:self._pos + length].decode("utf-8")
        self._pos += length
        return text

    def done(self) -> bool:
        return self._pos == len(self._data)


def encode_tree(tree: ExecutionTree) -> bytes:
    """Serialize a tree's terminal paths + outcome counters."""
    out = bytearray()
    _write_varint(out, _FORMAT_VERSION)
    name = tree.program_name.encode("utf-8")
    _write_varint(out, len(name))
    out.extend(name)
    _write_varint(out, tree.program_version)

    # String table over function/block names.
    strings: Dict[str, int] = {}
    paths = list(tree.iter_terminal_paths())
    for path, _outcomes in paths:
        for (thread, function, block), _taken in path:
            for text in (function, block):
                if text not in strings:
                    strings[text] = len(strings)
    table = sorted(strings, key=strings.get)
    _write_varint(out, len(table))
    for text in table:
        data = text.encode("utf-8")
        _write_varint(out, len(data))
        out.extend(data)

    _write_varint(out, len(paths))
    for path, outcomes in paths:
        _write_varint(out, len(path))
        for (thread, function, block), taken in path:
            _write_varint(out, thread)
            _write_varint(out, strings[function])
            _write_varint(out, strings[block])
            _write_varint(out, 1 if taken else 0)
        entries = [(o, c) for o, c in outcomes.items() if c > 0]
        _write_varint(out, len(entries))
        for outcome, count in entries:
            _write_varint(out, _OUTCOMES.index(outcome))
            _write_varint(out, count)
    return bytes(out)


def decode_tree(data: bytes) -> ExecutionTree:
    """Rebuild a tree with identical paths and counters.

    Total over bytes: any input yields a tree or raises
    :class:`~repro.errors.TraceError`.
    """
    try:
        return _decode_tree(data)
    except (ValueError, IndexError, KeyError, OverflowError) as error:
        raise TraceError(f"malformed tree bytes: {error}")


def _decode_tree(data: bytes) -> ExecutionTree:
    reader = _Reader(data)
    version = reader.varint()
    if version != _FORMAT_VERSION:
        raise TraceError(f"unsupported tree format version {version}")
    name = reader.string()
    program_version = reader.varint()
    table = [reader.string() for _ in range(reader.varint())]
    tree = ExecutionTree(name, program_version)
    for _ in range(reader.varint()):
        decisions = []
        for _d in range(reader.varint()):
            thread = reader.varint()
            function = table[reader.varint()]
            block = table[reader.varint()]
            taken = reader.varint() == 1
            decisions.append(((thread, function, block), taken))
        for _o in range(reader.varint()):
            outcome = _OUTCOMES[reader.varint()]
            count = reader.varint()
            if count:
                # One counted walk: a mangled count costs no more work
                # than a sane one.
                tree.insert_path(decisions, outcome, count=count)
    if not reader.done():
        raise TraceError("trailing bytes after tree")
    return tree


def merge_encoded(tree: ExecutionTree, data: bytes) -> int:
    """Merge another node's encoded tree into ``tree``; returns the
    number of paths copied."""
    other = decode_tree(data)
    return tree.merge_tree(other)

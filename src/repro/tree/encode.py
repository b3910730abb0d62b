"""Wire encoding of execution trees for hive-node exchange.

Paper Sec. 4: hive nodes "exchange information on what they have found
thus far". A tree's transferable knowledge is its terminal paths with
their outcome counts; this module encodes exactly that (with a
string table so repeated function/block names cost one varint each),
and the receiver rebuilds — or merges into — a tree with identical
structure and counters.
"""

from __future__ import annotations

from typing import Dict

from repro.errors import TraceError
from repro.tracing.encode import OUTCOME_CODES
from repro.tree.exectree import ExecutionTree
from repro.wire import Reader, total_decoder, write_string, write_varint

__all__ = ["encode_tree", "decode_tree", "merge_encoded"]

_FORMAT_VERSION = 1


def encode_tree(tree: ExecutionTree) -> bytes:
    """Serialize a tree's terminal paths + outcome counters."""
    out = bytearray()
    write_varint(out, _FORMAT_VERSION)
    write_string(out, tree.program_name)
    write_varint(out, tree.program_version)

    # String table over function/block names.
    strings: Dict[str, int] = {}
    paths = list(tree.iter_terminal_paths())
    for path, _outcomes in paths:
        for (thread, function, block), _taken in path:
            for text in (function, block):
                if text not in strings:
                    strings[text] = len(strings)
    table = sorted(strings, key=strings.get)
    write_varint(out, len(table))
    for text in table:
        write_string(out, text)

    write_varint(out, len(paths))
    for path, outcomes in paths:
        write_varint(out, len(path))
        for (thread, function, block), taken in path:
            write_varint(out, thread)
            write_varint(out, strings[function])
            write_varint(out, strings[block])
            write_varint(out, 1 if taken else 0)
        entries = [(o, c) for o, c in outcomes.items() if c > 0]
        write_varint(out, len(entries))
        for outcome, count in entries:
            write_varint(out, OUTCOME_CODES.index(outcome))
            write_varint(out, count)
    return bytes(out)


@total_decoder("tree")
def decode_tree(data: bytes) -> ExecutionTree:
    """Rebuild a tree with identical paths and counters.

    Total over bytes: any input yields a tree or raises
    :class:`~repro.errors.TraceError`.
    """
    reader = Reader(data)
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
            outcome = OUTCOME_CODES[reader.varint()]
            count = reader.varint()
            if count:
                # One counted walk: a mangled count costs no more work
                # than a sane one.
                tree.insert_path(decisions, outcome, count=count)
    reader.expect_end("tree")
    return tree


def merge_encoded(tree: ExecutionTree, data: bytes) -> int:
    """Merge another node's encoded tree into ``tree``; returns the
    number of paths copied."""
    other = decode_tree(data)
    return tree.merge_tree(other)

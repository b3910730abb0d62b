"""The one bounded get-or-compute rule every memo and cache shares.

A memo here is a plain table from a content key to a value that is a
pure function of that key, so dropping an entry can only cost the
recomputation, never change a value. :func:`memo_lookup` bounds the
table and evicts the oldest key first.
"""

from __future__ import annotations

from typing import Callable, Dict, TypeVar

__all__ = ["memo_lookup"]

V = TypeVar("V")


def memo_lookup(table: Dict[object, V], key: object,
                compute: Callable[[], V], capacity: int) -> V:
    """``table[key]``, computed and stored on a miss. The table keeps at
    most ``capacity`` keys and evicts the oldest first; an exception
    from ``compute`` propagates and stores nothing.

    Finding the oldest key of a plain ``dict`` skips the slots its
    earlier evictions emptied, which costs up to tens of microseconds
    per eviction at tens of thousands of keys. A table that is large
    and churns should be a ``collections.OrderedDict``, whose oldest
    key is found in constant time.
    """
    value = table.get(key)
    if value is None:
        value = compute()
        if len(table) >= capacity:
            del table[next(iter(table))]
        table[key] = value
    return value

"""Memoized trace replay: each distinct recorded execution replays once.

Replaying a trace (``Interpreter.replay``) is a pure function of the
program, the execution limits and three recorded fields: the branch
bits, the syscall returns and the schedule. A fleet runs the same few
paths over and over, so the shard collector and the hive each keep one
:class:`ReplayMemo` keyed on exactly those three fields and replay only
what they have not yet seen under their current program.

A hit cannot change a value:

* the key covers everything the replay reads from the trace;
* the program is fixed per memo (:meth:`ReplayMemo.reset` clears the
  memo when it changes) and so are the limits;
* the stored :class:`~repro.exec.batch.ReplayProduct` is frozen and no
  consumer mutates its dicts, so every entry that shares it sees the
  by-products a fresh replay would have built;
* a replay that raised :class:`~repro.errors.TraceError` is stored as a
  failure marker, so a repeat fails the same way without re-running.

The memo holds at most :data:`REPLAY_MEMO_CAPACITY` keys and evicts the
oldest first; an evicted key just replays again.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, TypeVar

from repro.errors import TraceError
from repro.exec.batch import ReplayProduct
from repro.progmodel.interpreter import (
    ExecutionLimits, Interpreter, ReplaySource,
)
from repro.progmodel.ir import Program
from repro.tracing.trace import Trace

__all__ = ["REPLAY_MEMO_CAPACITY", "ReplayMemo", "memo_lookup"]

#: Distinct replay keys one memo keeps. A round explores a handful of
#: paths per program version: the perfbench runs peak at 3 (crash-fleet,
#: serve-stream) and 77 (corpus-hunt) keys and never evict. The bound
#: caps memory on longer runs over programs with many paths.
REPLAY_MEMO_CAPACITY = 512

_FAILED = object()          # memoized TraceError

V = TypeVar("V")


def memo_lookup(table: Dict[object, V], key: object,
                compute: Callable[[], V], capacity: int) -> V:
    """``table[key]``, computed and stored on a miss. The table keeps at
    most ``capacity`` keys and evicts the oldest first; an exception
    from ``compute`` propagates and stores nothing."""
    value = table.get(key)
    if value is None:
        value = compute()
        if len(table) >= capacity:
            del table[next(iter(table))]
        table[key] = value
    return value


class ReplayMemo:
    """Replay by-products of one program, keyed on recorded content."""

    def __init__(self, program: Program,
                 limits: Optional[ExecutionLimits] = None):
        self.program = program
        self.limits = limits or ExecutionLimits()
        self._products: Dict[tuple, object] = {}

    def __len__(self) -> int:
        return len(self._products)

    def reset(self, program: Program) -> None:
        """Replay future traces against ``program``; forget the rest."""
        self.program = program
        self._products.clear()

    def replay(self, trace: Trace) -> Optional[ReplayProduct]:
        """The by-products of replaying ``trace`` (a replayable trace of
        the memo's program version), or ``None`` if the replay raised
        :class:`~repro.errors.TraceError`."""
        key = (trace.branch_bits, trace.syscall_returns, trace.schedule_rle)
        product = memo_lookup(self._products, key,
                              lambda: self._replay(trace),
                              REPLAY_MEMO_CAPACITY)
        return None if product is _FAILED else product

    def _replay(self, trace: Trace):
        try:
            result = Interpreter(self.program, limits=self.limits).replay(
                ReplaySource(
                    branch_bits=list(trace.branch_bits),
                    syscall_returns=list(trace.syscall_returns),
                    schedule_picks=list(trace.schedule_picks()),
                ))
        except TraceError:
            return _FAILED
        return ReplayProduct(
            program_version=self.program.version,
            outcome=result.outcome,
            path_decisions=tuple(result.path_decisions),
            lock_events=tuple(result.lock_events),
            global_events=tuple(result.global_events),
            final_globals=dict(result.final_globals),
            return_values=dict(result.return_values),
        )

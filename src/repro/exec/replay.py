"""Memoized executions: what a shard already knows, it does not redo.

Two memos live here, both owned per shard (and, for replay, by the
hive too), both bounded by :func:`~repro.memo.memo_lookup`'s
oldest-first eviction, so an evicted key just computes again.

**Replay** (:class:`ReplayMemo`). Replaying a trace
(``Interpreter.replay``) is a pure function of the program, the
execution limits and three recorded fields: the branch bits, the
syscall returns and the schedule. A fleet runs the same few paths over
and over, so the shard collector and the hive each keep one memo keyed
on exactly those three fields and replay only what they have not yet
seen under their current program. A hit cannot change a value:

* the key covers everything the replay reads from the trace;
* the program is fixed per memo (:meth:`ReplayMemo.reset` clears the
  memo when it changes) and so are the limits;
* the stored :class:`~repro.exec.batch.ReplayProduct` is frozen and no
  consumer mutates its dicts, so every entry that shares it sees the
  by-products a fresh replay would have built;
* a replay that raised :class:`~repro.errors.TraceError` is stored as a
  failure marker, so a repeat fails the same way without re-running.

The memo holds at most :data:`REPLAY_MEMO_CAPACITY` keys.

**Pod runs** (:class:`RunMemo`). A natural pod run (no directive) is a
pure function of the program, the limits, the fault rate, the capture
policy and the inputs whenever it drew nothing from its three random
streams (environment, scheduler, user feedback) and its capture policy
draws nothing of its own: :attr:`repro.rng.LazyRandom.drawn` witnesses
the streams, :attr:`~repro.tracing.capture.CapturePolicy.memoizable`
the policy. A later run with the same inputs takes the same first
step, so by induction over steps it follows the same path and again
draws nothing: its result, trace content and feedback are the recorded
ones. :meth:`repro.pod.Pod.execute` serves such a run from the memo
without interpreting, capturing or encoding it, and still draws its
three child seeds and counts every metric a run counts, so a hit
cannot be told from a miss. The key is the program's identity and the
inputs; the entry holds the program, capture policy and limits it was
recorded under, and a hit requires the very same objects and an equal
fault rate. A key is admitted on its second sighting only, so
one-off inputs (most of a high-diversity corpus run) cost a seen-set
slot instead of a stored result; :data:`RUN_SEEN_CAPACITY` bounds the
seen-set and :data:`RUN_MEMO_CAPACITY` the memo.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import TraceError
from repro.exec.batch import ReplayProduct
from repro.memo import memo_lookup
from repro.progmodel.interpreter import (
    ExecutionLimits, ExecutionResult, Interpreter, ReplaySource,
)
from repro.progmodel.ir import Program
from repro.tracing.capture import CapturePolicy
from repro.tracing.outcome import UserFeedback
from repro.tracing.trace import Trace

__all__ = ["REPLAY_MEMO_CAPACITY", "RUN_MEMO_CAPACITY", "RUN_SEEN_CAPACITY",
           "KnownRun", "ReplayMemo", "RunMemo"]

#: Distinct replay keys one memo keeps. A round explores a handful of
#: paths per program version: the perfbench runs peak at 3 (crash-fleet,
#: serve-stream) and 77 (corpus-hunt) keys and never evict. The bound
#: caps memory on longer runs over programs with many paths.
REPLAY_MEMO_CAPACITY = 512

#: Pure pod runs one shard's :class:`RunMemo` keeps, and the keys it
#: remembers having seen once. The perfbench runs peak at 40 runs and
#: 19 seen keys (crash-fleet), 68 and 27 (serve-stream) and 139 and
#: 1,087 (corpus-hunt), and never evict.
RUN_MEMO_CAPACITY = 512
RUN_SEEN_CAPACITY = 2048

_FAILED = object()          # memoized TraceError


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


@dataclass(frozen=True)
class KnownRun:
    """One pure natural run and the pod configuration it ran under.

    ``result`` and ``trace`` are shared by every run the entry serves;
    no consumer of :class:`~repro.pod.PodRun` mutates them.
    """

    program: Program
    capture: CapturePolicy
    limits: ExecutionLimits
    fault_rate: float
    result: ExecutionResult
    trace: Trace
    feedback: UserFeedback

    def serves(self, pod) -> bool:
        """Whether ``pod`` runs under exactly this configuration."""
        return (self.program is pod.program and self.capture is pod.capture
                and self.limits is pod.limits
                and self.fault_rate == pod.fault_rate)


class RunMemo:
    """Pure natural pod runs of one shard, keyed on
    ``(id(program), tuple(inputs.items()))``.

    :meth:`admit` stores a run the second time its key is offered; the
    first offer only enters the key into a bounded seen-set.
    """

    def __init__(self) -> None:
        self._runs: Dict[tuple, KnownRun] = {}
        # Large, and on a diverse workload mostly one-off keys: an
        # OrderedDict keeps its oldest-first eviction O(1).
        self._seen: Dict[tuple, bool] = OrderedDict()

    def __len__(self) -> int:
        return len(self._runs)

    def get(self, key: tuple) -> Optional[KnownRun]:
        return self._runs.get(key)

    def admit(self, key: tuple, pod, result: ExecutionResult, trace: Trace,
              feedback: UserFeedback) -> None:
        """Offer a pure run of ``pod``; it is stored on its key's second
        offer, under the pod's configuration."""
        if self._seen.pop(key, False):
            memo_lookup(self._runs, key, lambda: KnownRun(
                pod.program, pod.capture, pod.limits, pod.fault_rate,
                result, trace, feedback), RUN_MEMO_CAPACITY)
        else:
            memo_lookup(self._seen, key, _true, RUN_SEEN_CAPACITY)


def _true() -> bool:
    return True

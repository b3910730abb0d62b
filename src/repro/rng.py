"""Deterministic randomness utilities.

Every stochastic component in the library (schedulers, workload
generators, WalkSAT, the network simulator) draws from a seeded
:class:`random.Random` instance that is threaded through explicitly.
This module centralises seed derivation so that independent components
get independent-looking streams from one master seed, and so that the
same master seed always reproduces the same end-to-end run.
"""

from __future__ import annotations

import hashlib
import random
from typing import Iterator

__all__ = ["derive_seed", "make_rng", "spawn", "choice_weighted",
           "LazyRandom"]


def derive_seed(master_seed: int, *labels: object) -> int:
    """Derive a child seed from ``master_seed`` and a label path.

    The derivation hashes the master seed together with the labels, so
    ``derive_seed(1, "pod", 3)`` and ``derive_seed(1, "pod", 4)`` are
    uncorrelated, and adding a new component with a fresh label never
    perturbs the streams of existing components.
    """
    digest = hashlib.sha256(
        ("|".join([str(master_seed)] + [repr(label) for label in labels])).encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "big")


def make_rng(master_seed: int, *labels: object) -> random.Random:
    """Return a ``random.Random`` seeded via :func:`derive_seed`."""
    return random.Random(derive_seed(master_seed, *labels))


def spawn(rng: random.Random, count: int) -> Iterator[random.Random]:
    """Yield ``count`` independent child RNGs derived from ``rng``."""
    for _ in range(count):
        yield random.Random(rng.getrandbits(64))


class LazyRandom:
    """A ``random.Random(seed)`` that is only built on its first draw.

    Seeding a Mersenne Twister costs about 7 µs on an x86-64 core, a
    sizeable share of a short pod execution, and most executions never
    draw from most of their streams. The seed itself is taken eagerly,
    so the parent stream advances exactly as with an eager child. The
    first public attribute looked up builds the generator; every bound
    method looked up is then cached on the instance, so repeated draws
    skip this wrapper entirely.
    """

    _rng = None

    def __init__(self, seed: int):
        self._seed = seed

    @property
    def drawn(self) -> bool:
        """Whether anything was asked of the generator yet. ``False``
        proves the stream's output reached nothing: every draw, and
        every other public attribute, builds the generator first."""
        return self._rng is not None

    def __getattr__(self, name: str):
        if name.startswith("_"):
            raise AttributeError(name)
        if self._rng is None:
            self._rng = random.Random(self._seed)
        value = getattr(self._rng, name)
        setattr(self, name, value)
        return value


def choice_weighted(rng: random.Random, items, weights) -> object:
    """Pick one element of ``items`` with the given positive weights.

    A tiny re-implementation of ``random.choices(..., k=1)[0]`` that
    avoids building intermediate lists in hot loops.
    """
    total = float(sum(weights))
    if total <= 0.0:
        raise ValueError("weights must sum to a positive value")
    point = rng.random() * total
    acc = 0.0
    for item, weight in zip(items, weights):
        acc += weight
        if point < acc:
            return item
    return items[-1]

"""Shared generators for randomized tests (seeded, no global state)."""

import weakref

import numpy as np


def random_distribution(rng: np.random.Generator, pool=None, max_support: int = 6) -> dict:
    """A random sparse distribution over a small token pool."""
    if pool is None:
        pool = [f"tok{i}" for i in range(12)]
    support = rng.choice(len(pool), size=int(rng.integers(1, max_support + 1)), replace=False)
    weights = rng.random(len(support)) + 0.05
    weights /= weights.sum()
    return {pool[i]: float(w) for i, w in zip(support, weights)}


class _Tracked(dict):
    """A dict that can be weakly referenced."""


class LiveDistributions:
    """Hands out weakly referenced copies of distributions.

    `alive_at_handout` records, for each copy handed out, how many earlier
    copies were still alive at that moment.
    """

    def __init__(self):
        self.refs = []
        self.alive_at_handout = []

    def track(self, dist) -> dict:
        self.alive_at_handout.append(sum(ref() is not None for ref in self.refs))
        tracked = _Tracked(dist)
        self.refs.append(weakref.ref(tracked))
        return tracked

"""A fixed piece of pure-Python work that measures the host's current speed.

The host's speed for one process swings by up to 2x within seconds under
other tenants' load, and both the benchmark's iterations and this loop slow
down together.  ``run.py`` times the loop between iterations and scales each
iteration's times by ``REFERENCE_S / <the loop's time around it>``: the
time the iteration would have taken on the host at its reference speed.

The loop imports nothing from pla, so a change to pla never moves it.  Its
work mixes what the evaluator does: recursive calls, tuple-keyed dict
lookups and frozenset membership tests.
"""

from __future__ import annotations

import itertools
import time

# the loop's median time on the 2-core host of baseline.json in a quiet spell
REFERENCE_S = 0.035

_TABLE = {(a, b): (a * 31 + b) % 97 for a in range(64) for b in range(64)}
_SETS = [frozenset(range(k, k + 9)) for k in range(64)]


def _node(depth: int, a: int, b: int) -> int:
    if depth == 0:
        return _TABLE[(a & 63, b & 63)]
    return _node(depth - 1, b, a + 1) + ((a & 63) in _SETS[b & 63])


def work(rounds: int = 2500) -> int:
    total = 0
    seen: dict = {}
    for i in range(rounds):
        for a, b in itertools.product(range(4), range(4)):
            key = (i & 255, a, b)
            total += _node(4, i + a, i * 3 + b)
            seen[key] = seen.get(key, 0) + 1
    return total + len(seen)


def measure() -> float:
    """Seconds the loop takes now."""
    start = time.perf_counter()
    work()
    return time.perf_counter() - start

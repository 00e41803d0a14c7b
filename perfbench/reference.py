"""Fixed reference program: how fast is the host right now?

    python3 perfbench/reference.py

run.py spawns it beside every timed ``bnopt learn`` child and divides the
learn times by its times, so that the reported figures follow the code
rather than the host's speed of the moment (on a shared host, work that
would take 1.0 s can take 1.5 s while a neighbour is busy, for minutes at a
time). It imports only numpy, never bnopt, so no change to the package
moves it. The work mimics the search's inner loop: a best-first sweep over
bitmask nodes with a heap and a dict, each expansion OR-ing a few rows of a
small bit table with numpy.
"""

import heapq

import numpy as np

EXPANSIONS = 2000
N = 16

rng = np.random.default_rng(7)
rows = rng.integers(0, 2**62, size=(N, 64), dtype=np.int64)
costs = rng.random(64)
heap = [(0.0, 0)]
best = {0: 0.0}
expanded = 0
while heap and expanded < EXPANSIONS:
    g, u = heapq.heappop(heap)
    expanded += 1
    for x in range(N):
        if u >> x & 1:
            continue
        out = np.fromiter((b for b in range(N) if not u >> b & 1 and b != x),
                          dtype=np.int64)
        i = int(np.argmax(np.bitwise_or.reduce(rows[out], axis=0) == 0)
                ) if len(out) else 0
        v, c = u | 1 << x, g + float(costs[i]) + x * 1e-3
        if c < best.get(v, float("inf")):
            best[v] = c
            heapq.heappush(heap, (c, v))

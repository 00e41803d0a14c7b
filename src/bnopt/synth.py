"""Seeded synthetic binary datasets for tests and trend checks: i.i.d.
columns mixed with planted-parent columns (noisy XOR of earlier variables)."""

from __future__ import annotations

import numpy as np

from .dataset import Dataset

# chance that a column from the third on is a planted noisy XOR, and the
# chance that each of its cells is flipped
PLANTED_PROB = 0.5
FLIP_PROB = 0.2


def random_dataset(n: int, N: int, seed: int) -> Dataset:
    rng = np.random.default_rng(seed)
    cols = np.empty((N, n), dtype=np.int64)
    for j in range(n):
        if j >= 2 and rng.random() < PLANTED_PROB:
            k = int(rng.integers(1, min(3, j) + 1))
            parents = rng.choice(j, size=k, replace=False)
            col = np.bitwise_xor.reduce(cols[:, parents], axis=1)
            flips = rng.random(N) < FLIP_PROB
            col = col ^ flips
        else:
            p = 0.25 + 0.5 * rng.random()
            col = (rng.random(N) < p).astype(np.int64)
        while col.min() == col.max():  # arity 2 required
            i = int(rng.integers(N))
            col[i] ^= 1
        cols[:, j] = col
    names = [f"X{i + 1}" for i in range(n)]
    return Dataset(names, [2] * n, cols)

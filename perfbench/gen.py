"""Seeded workload inputs, independent of ``bnopt.synth``.

The model is the planted noisy-XOR network of ``bnopt.synth.random_dataset``:
each column after the first two is, with probability ``PLANTED_PROB``, the
XOR of one to three earlier columns with a share ``FLIP_PROB`` of its cells
flipped, and otherwise an independent biased coin.

Unlike ``random_dataset``, the network is drawn from a fixed per-workload
``model_seed`` and only the records are drawn from the run's seed. Every
seed therefore asks the solver to recover the same planted network from a
fresh sample, so the work per run stays close from seed to seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# the defaults of random_dataset
PLANTED_PROB = 0.5
FLIP_PROB = 0.2


@dataclass(frozen=True)
class Column:
    parents: tuple[int, ...]  # empty for an independent coin
    p: float                  # P(1) of a coin, or the flip share of an XOR


def make_model(n: int, model_seed: int) -> list[Column]:
    rng = np.random.default_rng(model_seed)
    cols = []
    for j in range(n):
        if j >= 2 and rng.random() < PLANTED_PROB:
            k = int(rng.integers(1, min(3, j) + 1))
            parents = sorted(int(y) for y in rng.choice(j, k, replace=False))
            cols.append(Column(tuple(parents), FLIP_PROB))
        else:
            cols.append(Column((), 0.25 + 0.5 * float(rng.random())))
    return cols


def sample(model: list[Column], N: int, seed) -> np.ndarray:
    """(N, n) array of 0/1 records; no column is constant. The seed is an
    int or a list of ints."""
    rng = np.random.default_rng(seed)
    rows = np.empty((N, len(model)), dtype=np.int64)
    for j, c in enumerate(model):
        draw = rng.random(N) < c.p
        if c.parents:
            xor = np.bitwise_xor.reduce(rows[:, list(c.parents)], axis=1)
            col = xor ^ draw
        else:
            col = draw.astype(np.int64)
        while col.min() == col.max():  # binarization needs both states
            col[int(rng.integers(N))] ^= 1
        rows[:, j] = col
    return rows


def write_csv(path, rows: np.ndarray, n_incomplete: int, seed) -> None:
    """Write the records with a header, then mix in n_incomplete extra
    records that each carry one '?' cell; the loader drops exactly those.
    The seed is the one the records were drawn from."""
    rng = np.random.default_rng([*np.ravel(seed), 1])
    N, n = rows.shape
    extra = rows[rng.integers(N, size=n_incomplete)].astype(str)
    extra[np.arange(n_incomplete), rng.integers(n, size=n_incomplete)] = "?"
    lines = [",".join(r) for r in rows.astype(str)]
    at = rng.integers(N + 1, size=n_incomplete)
    for i in np.argsort(at, kind="stable")[::-1]:  # back to front
        lines.insert(at[i], ",".join(extra[i]))
    lines.insert(0, ",".join(f"X{i + 1}" for i in range(n)))
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")

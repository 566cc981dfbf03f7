"""Per-cell views of a sparse ``SubdomainTensor``, for tests that compare it
with dense arrays.  Only for small tensors: every view has one element per
cell."""

import numpy as np

from carsopt.tensor import OPTIMISTIC_INIT


def cells(t):
    """(values, touched): every cell's float32 value and whether it was observed."""
    values = np.full(t.n_cells, OPTIMISTIC_INIT, dtype=np.float32)
    values[t.flats] = t.values
    touched = np.zeros(t.n_cells, dtype=bool)
    touched[t.flats[t.observed]] = True
    return values, touched


def set_cells(t, values):
    """Observe ``values`` in every cell of ``t``, in flat order, in one update."""
    t.update_many(t.multi_indices(np.arange(t.n_cells)), values)


def entry_of_cells(t, entries):
    """The index of the entry holding each cell, found from the cell's own
    block and block-major number rather than by the tensor's draw."""
    p = entries.n_pool
    mis = t.multi_indices(np.arange(t.n_cells))
    block = np.ravel_multi_index(tuple((mis // p).T), (t.n_sub // p,) * t.n_dim)
    key = block * p**t.n_dim + np.ravel_multi_index(tuple((mis % p).T), (p,) * t.n_dim)
    k, n_blocks = len(entries.keys), len(entries.blocks)
    entry = np.full(t.n_cells, k + n_blocks)
    in_block = np.isin(block, entries.blocks)
    entry[in_block] = k + np.searchsorted(entries.blocks, block[in_block])
    special = np.isin(key, entries.keys)
    entry[special] = np.searchsorted(entries.keys, key[special])
    return entry


def effective(t, n_pool):
    """Every cell's effective value, from ``t.effective_cells``."""
    entries = t.effective_cells(n_pool)
    return entries.values[entry_of_cells(t, entries)]


def probabilities(t, alpha, n_pool=None):
    """Every cell's sampling probability, from ``t.softmax_probabilities``:
    its entry's share of the total mass, split evenly among its cells."""
    entries = t.softmax_probabilities(alpha, n_pool)
    entry = entry_of_cells(t, entries)
    return entries.values[entry] / entries.values.sum() / entries.counts[entry]

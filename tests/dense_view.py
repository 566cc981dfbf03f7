"""Per-cell views of a sparse ``SubdomainTensor``, for tests that compare it
with dense arrays.  Only for small tensors: every view has one element per
cell, in row-major order."""

import numpy as np

from carsopt.tensor import OPTIMISTIC_INIT


def grid(t):
    """The multi-index of every cell, row-major: an (n_cells, n_dim) array."""
    return np.stack(np.unravel_index(np.arange(t.n_cells), (t.n_sub,) * t.n_dim), axis=-1)


def block_major(t, n_pool, mis):
    """(block, key): the block-major block and cell numbers of ``mis`` for
    blocks ``n_pool`` wide, computed here rather than by the tensor."""
    block = np.ravel_multi_index(tuple((mis // n_pool).T), (t.n_sub // n_pool,) * t.n_dim)
    local = np.ravel_multi_index(tuple((mis % n_pool).T), (n_pool,) * t.n_dim)
    return block, block * n_pool**t.n_dim + local


def cells(t):
    """(values, touched): every cell's float32 value and whether it was observed."""
    # Block-major numbers run over 0 .. n_cells - 1, so they index a dense array.
    _, key = block_major(t, t.n_pool or 1, grid(t))
    values = np.full(t.n_cells, OPTIMISTIC_INIT, dtype=np.float32)
    values[t.keys] = t.values
    touched = np.zeros(t.n_cells, dtype=bool)
    touched[t.keys] = True
    return values[key], touched[key]


def set_cells(t, values):
    """Observe ``values`` in every cell of ``t``, in row-major order, in one update."""
    t.update_many(grid(t), values)


def entry_of_cells(t, entries):
    """The index of the entry holding each cell, found from the cell's own
    block and block-major number rather than by the tensor's draw."""
    block, key = block_major(t, entries.n_pool, grid(t))
    k, n_blocks = len(entries.keys), len(entries.blocks)
    entry = np.full(t.n_cells, k + n_blocks)
    in_block = np.isin(block, entries.blocks)
    entry[in_block] = k + np.searchsorted(entries.blocks, block[in_block])
    special = np.isin(key, entries.keys)
    entry[special] = np.searchsorted(entries.keys, key[special])
    return entry


def effective(t):
    """Every cell's effective value, from ``t.effective_cells``."""
    entries = t.effective_cells()
    return entries.values[entry_of_cells(t, entries)]


def probabilities(t, alpha):
    """Every cell's sampling probability, from ``t.softmax_probabilities``:
    its entry's share of the total mass, split evenly among its cells."""
    entries = t.softmax_probabilities(alpha)
    entry = entry_of_cells(t, entries)
    return entries.values[entry] / entries.values.sum() / entries.counts[entry]


def flat(t, mis):
    """Row-major flat indices of an (n, n_dim) array of multi-indices."""
    return np.ravel_multi_index(tuple(np.asarray(mis).T), (t.n_sub,) * t.n_dim)

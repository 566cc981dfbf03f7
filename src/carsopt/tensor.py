"""Sub-domain fitness tensor, stored sparsely.

The unit hypercube is split into ``n_sub`` equal intervals per dimension,
giving ``n_sub ** n_dim`` cells.  Unobserved cells hold an optimistic 0.75 so
unexplored regions stay attractive; a cell's first observation replaces it
and later observations keep the per-cell maximum.  Sampling probabilities
come from a numerically stable weighted softmax, optionally on top of a
block-max pooling overlay that adds to each cell the maximum of its block of
``n_pool`` cells per dimension.

Only the observed cells are stored, in the order a draw walks them: sorted
int64 block-major numbers (see :class:`Entries`) with float32 values.  The
cells then fall into few groups of equal effective value, called entries.
The softmax gives each entry its total mass, and a draw picks an entry by
mass, then a uniform cell inside it (two-level weighted sampling, Wong &
Easton 1980), so a sampling step costs time and memory in the number of
observed cells, whatever ``n_sub ** n_dim`` is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

__all__ = ["SubdomainTensor", "TensorError", "Entries", "OPTIMISTIC_INIT"]

OPTIMISTIC_INIT = 0.75


class TensorError(ValueError):
    """Invalid tensor construction or update."""


@dataclass(frozen=True)
class Entries:
    """The cells grouped by equal effective value, in draw order: the special
    (observed) cells one by one, then the plain cells of each block in
    ``blocks``, then every cell of the other blocks.

    Cells are numbered block-major here: block after block (row-major over
    the blocks), row-major inside each.  Without pooling a block is one cell,
    and the block-major number is the row-major flat index.
    """

    n_pool: int  # block width per dimension
    keys: np.ndarray  # block-major numbers of the special cells, sorted
    blocks: np.ndarray  # the blocks holding a special cell, sorted
    counts: np.ndarray  # cells per entry (int64); may be 0
    values: np.ndarray  # effective value (float32) or unnormalized mass (float64) per entry

    def __len__(self) -> int:
        return len(self.values)


class SubdomainTensor:
    """Per-cell fitness over the discretized unit hypercube, stored sparsely.

    ``n_pool`` is the pooling block width per dimension; 0 disables pooling.
    """

    def __init__(self, n_dim: int, n_sub: int, n_pool: int = 0):
        if n_dim < 1 or n_sub < 2:
            raise TensorError("need n_dim >= 1 and n_sub >= 2")
        if n_pool < 0 or (n_pool and n_sub % n_pool):
            raise TensorError(f"n_pool {n_pool} must be >= 0 and divide n_sub {n_sub}")
        n_cells = n_sub**n_dim
        if n_cells > np.iinfo(np.int64).max:
            raise TensorError(f"{n_sub}^{n_dim} = {n_cells} cells overflow an int64 flat index; reduce n_sub")
        self.n_dim = n_dim
        self.n_sub = n_sub
        self.n_pool = n_pool
        self.n_cells = n_cells
        # The observed cells: sorted block-major numbers and their values.
        self.keys = np.empty(0, dtype=np.int64)
        self.values = np.empty(0, dtype=np.float32)

    def _keys(self, mis) -> np.ndarray:
        """Block-major numbers of an (n, n_dim) array of multi-indices."""
        mis = np.asarray(mis)
        if mis.shape[-1] != self.n_dim:
            raise TensorError(f"multi-index length {mis.shape[-1]} != n_dim {self.n_dim}")
        if np.any(mis < 0) or np.any(mis >= self.n_sub):
            raise TensorError("multi-index coordinate out of range")
        p = self.n_pool or 1
        blocks = np.ravel_multi_index(tuple((mis // p).T), (self.n_sub // p,) * self.n_dim)
        local = np.ravel_multi_index(tuple((mis % p).T), (p,) * self.n_dim)
        return blocks.astype(np.int64) * p**self.n_dim + local

    # -- updates ------------------------------------------------------------

    def update_fitness(self, mi, f: float) -> None:
        """Assign an observed fitness to one cell (max with prior observations)."""
        self.update_many([mi], [f])

    def update_many(self, mis, fs) -> None:
        """Batch fitness assignment; duplicate cells within a batch keep the max."""
        fs = np.asarray(fs, dtype=np.float32)
        if np.any(np.isnan(fs)):
            raise TensorError("fitness contains NaN")
        keys = np.concatenate([self.keys, self._keys(mis)])
        values = np.concatenate([self.values, fs])
        # Sorted by cell, then value, the last of each cell's run is its largest.
        order = np.lexsort((values, keys))
        last = np.ones(len(order), dtype=bool)
        last[:-1] = keys[order[1:]] != keys[order[:-1]]
        keep = order[last]
        self.keys, self.values = keys[keep], values[keep]

    # -- sampling -----------------------------------------------------------

    def effective_cells(self) -> Entries:
        """Entries whose value is their cells' value plus, with pooling, the
        maximum of each cell's block, summed in float32."""
        p = self.n_pool or 1
        per_block = p**self.n_dim
        keys, values = self.keys, self.values
        block = keys // per_block
        start = np.flatnonzero(np.diff(block, prepend=-1))
        blocks, size = block[start], np.diff(start, append=len(keys))
        plain = per_block - size
        init = np.float32(OPTIMISTIC_INIT)
        if self.n_pool:
            top = np.maximum.reduceat(values, start) if len(values) else values
            top = np.where(plain > 0, np.maximum(top, init), top)
            eff = [values + np.repeat(top, size), init + top, [init + init]]
        else:
            eff = [values, np.full(len(blocks), init), [init]]
        rest = self.n_cells - len(blocks) * per_block
        counts = np.concatenate([np.ones(len(keys), np.int64), plain, [rest]])
        return Entries(p, keys, blocks, counts, np.concatenate(eff).astype(np.float32))

    def softmax_probabilities(self, alpha: float) -> Entries:
        """Entries whose value is their sampling mass: cell count times the
        softmax weight exp(alpha * (effective - max)).

        alpha = 0 is one entry of mass 1.0 holding every cell, exactly
        uniform and drawn row-major; the exponent maximum is taken over
        non-empty entries.  Raises TensorError unless alpha times every
        effective value is finite.
        """
        if alpha < 0:
            raise TensorError("softmax weighting alpha must be >= 0")
        if alpha == 0:
            return Entries(1, self.keys[:0], self.keys[:0], np.array([self.n_cells]), np.array([1.0]))
        entries = self.effective_cells()
        z = entries.values.astype(np.float64)
        with np.errstate(over="ignore", invalid="ignore"):
            z *= alpha
        # One check covers non-finite cells, a non-finite alpha and overflow.
        if not np.all(np.isfinite(z)):
            raise TensorError(f"alpha {alpha} times the cell values is not finite")
        # Each live entry's exponent by libm, whose result does not depend on
        # the SIMD kernels numpy picks for this CPU; an empty entry has mass 0.
        live = entries.counts > 0
        z -= z[live].max()
        weights = np.zeros(len(z))
        weights[live] = list(map(math.exp, z[live].tolist()))
        return replace(entries, values=entries.counts * weights)

    def sample_subdomains(self, probs: Entries, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``n`` cells i.i.d. with replacement: an entry by its mass, then
        a uniform cell of it; returns (n, n_dim) multi-indices."""
        cdf = np.cumsum(probs.values, dtype=np.float64)
        cdf /= cdf[-1]
        entry = np.searchsorted(cdf, rng.random(n), side="right")
        np.clip(entry, 0, len(cdf) - 1, out=entry)
        rank = rng.integers(0, probs.counts[entry])
        keys, blocks = probs.keys, probs.blocks
        k, per_block = len(keys), probs.n_pool**self.n_dim
        out = np.empty(n, dtype=np.int64)
        # A special cell's entry holds that cell alone.
        special = entry < k
        out[special] = keys[entry[special]]
        # The rank-th plain cell of a block is the r-th plain cell overall,
        # r counting the plain cells of the blocks before it; the sorted keys
        # less their positions say how many special cells come first.
        skip = keys - np.arange(k)
        inner = ~special & (entry < k + len(blocks))
        first = blocks[entry[inner] - k] * per_block
        r = first - np.searchsorted(keys, first) + rank[inner]
        out[inner] = r + np.searchsorted(skip, r, side="right")
        # The rest: the q-th block holding no special cell, and a cell in it.
        rest = entry == k + len(blocks)
        q, local = np.divmod(rank[rest], per_block)
        q += np.searchsorted(blocks - np.arange(len(blocks)), q, side="right")
        out[rest] = q * per_block + local
        # Block-major numbers back to multi-indices.
        block, local = np.divmod(out, per_block)
        corner = np.unravel_index(block, (self.n_sub // probs.n_pool,) * self.n_dim)
        offset = np.unravel_index(local, (probs.n_pool,) * self.n_dim)
        return np.stack(corner, axis=-1) * probs.n_pool + np.stack(offset, axis=-1)

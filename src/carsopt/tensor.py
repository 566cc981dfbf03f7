"""Sub-domain fitness tensor.

The unit hypercube is split into ``n_sub`` equal intervals per dimension,
giving ``n_sub ** n_dim`` cells.  Cells start at an optimistic 0.75 so
unexplored regions stay attractive; the first real observation overwrites the
prior and later observations keep the per-cell maximum.  Sampling
probabilities come from a numerically stable weighted softmax, optionally on
top of a block-max pooling overlay that spreads fitness to neighbouring cells.

Cells are stored as float32 (a 9-dim tensor with 9 sub-domains each is ~1.5 GB)
while all probability accumulation runs in float64.  A sampling step holds
about 23 bytes per cell at its peak (float32 cells, bool touched flags, one
float64 probability array and a reused float64 draw scratch), so ~8.9 GB at
9 parameters.
"""

from __future__ import annotations

import numpy as np

__all__ = ["SubdomainTensor", "TensorError", "MAX_CELLS", "OPTIMISTIC_INIT"]

# 2 GB of float32 cells, 11.5 GB at the peak of a sampling step.
MAX_CELLS = 500_000_000
OPTIMISTIC_INIT = 0.75
# Contiguous row length of the pooling broadcast in effective_cells.
_ROW_ELEMENTS = 65_536


class TensorError(ValueError):
    """Invalid tensor construction or update."""


class SubdomainTensor:
    """Dense per-cell fitness over the discretized unit hypercube."""

    def __init__(self, n_dim: int, n_sub: int):
        if n_dim < 1 or n_sub < 2:
            raise TensorError("need n_dim >= 1 and n_sub >= 2")
        n_cells = n_sub**n_dim
        if n_cells > MAX_CELLS:
            raise TensorError(f"{n_sub}^{n_dim} = {n_cells} cells exceeds the cell cap ({MAX_CELLS}); reduce n_sub")
        self.n_dim = n_dim
        self.n_sub = n_sub
        self.n_cells = n_cells
        self.cells = np.full(n_cells, OPTIMISTIC_INIT, dtype=np.float32)
        self.touched = np.zeros(n_cells, dtype=bool)
        self._updates_started = False
        self._cdf = None  # float64 draw scratch, reused across draws

    # -- indexing -----------------------------------------------------------

    def flat_index(self, mi) -> int:
        """Row-major flat index of a multi-index."""
        mi = np.asarray(mi)
        if mi.shape[-1] != self.n_dim:
            raise TensorError(f"multi-index length {mi.shape[-1]} != n_dim {self.n_dim}")
        if np.any(mi < 0) or np.any(mi >= self.n_sub):
            raise TensorError("multi-index coordinate out of range")
        return int(np.ravel_multi_index(tuple(mi), (self.n_sub,) * self.n_dim))

    def multi_index(self, flat: int) -> tuple[int, ...]:
        """Inverse of :meth:`flat_index`."""
        if not 0 <= flat < self.n_cells:
            raise TensorError(f"flat index {flat} out of range")
        return tuple(int(c) for c in np.unravel_index(flat, (self.n_sub,) * self.n_dim))

    def flat_indices(self, mis: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`flat_index` for an (n, n_dim) array."""
        mis = np.asarray(mis)
        if np.any(mis < 0) or np.any(mis >= self.n_sub):
            raise TensorError("multi-index coordinate out of range")
        return np.ravel_multi_index(tuple(mis.T), (self.n_sub,) * self.n_dim)

    def multi_indices(self, flats: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`multi_index`; returns an (n, n_dim) array."""
        return np.stack(np.unravel_index(np.asarray(flats), (self.n_sub,) * self.n_dim), axis=-1)

    # -- updates ------------------------------------------------------------

    def seed_prior(self, prior: np.ndarray) -> None:
        """Replace the uniform optimistic prior with externally supplied values.

        Must happen before any fitness update; seeded cells still count as
        untouched, so the first observation overwrites them.
        """
        if self._updates_started:
            raise TensorError("seed_prior must be called before any fitness update")
        prior = np.asarray(prior, dtype=np.float32).reshape(-1)
        if prior.shape[0] != self.n_cells:
            raise TensorError(f"prior length {prior.shape[0]} != {self.n_cells} cells")
        if not np.all(np.isfinite(prior)):
            raise TensorError("prior contains non-finite values")
        self.cells = prior.copy()

    def update_fitness(self, mi, f: float) -> None:
        """Assign an observed fitness to one cell (max with prior observations)."""
        if np.isnan(f):
            raise TensorError("fitness is NaN")
        flat = self.flat_index(mi)
        self._updates_started = True
        if self.touched[flat]:
            self.cells[flat] = max(self.cells[flat], np.float32(f))
        else:
            self.cells[flat] = np.float32(f)
            self.touched[flat] = True

    def update_many(self, mis: np.ndarray, fs: np.ndarray) -> None:
        """Batch fitness assignment; duplicate cells within a batch keep the max."""
        fs = np.asarray(fs, dtype=np.float32)
        if np.any(np.isnan(fs)):
            raise TensorError("fitness contains NaN")
        flats = self.flat_indices(np.asarray(mis))
        self._updates_started = True
        # Erase untouched priors first so the first observation replaces 0.75.
        fresh = ~self.touched[flats]
        self.cells[flats[fresh]] = -np.inf
        np.maximum.at(self.cells, flats, fs)
        self.touched[flats] = True

    # -- pooling ------------------------------------------------------------

    def max_pool(self, n_pool: int) -> np.ndarray:
        """Block-max overlay: combine ``n_pool`` adjacent cells per dimension.

        Returns the pooled tensor of (n_sub/n_pool)^n_dim values.
        """
        if n_pool < 1 or self.n_sub % n_pool != 0:
            raise TensorError(f"n_pool {n_pool} must divide n_sub {self.n_sub}")
        blocks = self.n_sub // n_pool
        shape = sum(((blocks, n_pool),) * self.n_dim, ())
        pooled = self.cells.reshape(shape)
        for axis in range(self.n_dim):
            pooled = pooled.max(axis=axis + 1)
        return pooled.reshape(-1)

    def effective_cells(self, n_pool: int | None, out: np.ndarray | None = None) -> np.ndarray:
        """Cells plus the broadcast pooling overlay (or plain cells if off).

        The sum is taken in float32.  With ``out`` it is written there (a
        float64 ``out`` receives exactly ``.astype(np.float64)`` of it) and
        ``self.cells`` is never written to; without ``out`` and with pooling
        off, ``self.cells`` itself is returned.
        """
        if not n_pool:
            if out is None:
                return self.cells
            np.copyto(out, self.cells)
            return out
        blocks = self.n_sub // n_pool
        pooled = self.max_pool(n_pool).reshape((blocks,) * self.n_dim)
        # Repeat the overlay over the trailing axes only until a contiguous row
        # holds about _ROW_ELEMENTS cells; the leading axes broadcast block-wise.
        n_rep = 1
        while n_rep < self.n_dim and self.n_sub ** (n_rep + 1) <= _ROW_ELEMENTS:
            n_rep += 1
        for axis in range(self.n_dim - n_rep, self.n_dim):
            pooled = pooled.repeat(n_pool, axis=axis)
        n_lead = self.n_dim - n_rep
        row = self.n_sub**n_rep
        cells = self.cells.reshape((blocks, n_pool) * n_lead + (row,))
        overlay = pooled.reshape((blocks, 1) * n_lead + (row,))
        if out is None:
            out = np.empty(self.n_cells, dtype=np.float32)
        np.add(cells, overlay, out=out.reshape(cells.shape), dtype=np.float32)
        return out

    # -- sampling -----------------------------------------------------------

    def softmax_probabilities(self, alpha: float, n_pool: int | None = None) -> np.ndarray:
        """Sampling probability per cell: softmax of (effective fitness * alpha).

        alpha = 0 is exactly uniform; the exponent maximum is subtracted for
        stability and the normalizing sum accumulates in float64.  The result
        is a fresh float64 array, computed in place without other full-size
        temporaries.
        """
        if alpha < 0:
            raise TensorError("softmax weighting alpha must be >= 0")
        if alpha == 0:
            return np.full(self.n_cells, 1.0 / self.n_cells)
        z = self.effective_cells(n_pool, out=np.empty(self.n_cells))
        # Float32-range values cannot overflow a float64 sum, so the sum is
        # finite exactly when every cell is.
        if not np.isfinite(z.sum()):
            raise TensorError("tensor contains non-finite cells")
        z *= alpha
        z -= z.max()
        np.exp(z, out=z)
        z /= z.sum(dtype=np.float64)
        return z

    def sample_subdomains(self, probs: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``n`` cells i.i.d. with replacement; returns (n, n_dim) multi-indices."""
        if self._cdf is None or self._cdf.shape != probs.shape:
            self._cdf = np.empty(probs.shape)
        cdf = np.cumsum(probs, dtype=np.float64, out=self._cdf)
        cdf /= cdf[-1]
        flats = np.searchsorted(cdf, rng.random(n), side="right")
        np.clip(flats, 0, self.n_cells - 1, out=flats)
        return self.multi_indices(flats)

"""k-nearest-neighbor fitness regression over evaluated samples.

Estimates are unweighted means of the k nearest stored points under Euclidean
distance in unit space; with fewer than k points stored, all of them are used.
This powers the oversampling extension: candidate points are scored here and
only the most promising candidate per row gets an actual evaluation.

Estimates are exact and reproducible bit for bit:

- **Distances.** Squared distances are accumulated one dimension at a time
  into (queries, points) arrays, in numpy's own summation order for
  ``((q[:, None] - p[None]) ** 2).sum(axis=2)``: sequential below 8
  dimensions; from 8 on, eight strided accumulators combined as
  ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the remainder in sequence (and
  halves summed recursively above 128 dimensions).
- **Ties.** Neighbors are ranked by (squared distance, insertion index), so
  an earlier point wins a tie, and the chosen k are averaged in that order.
  ``np.argpartition`` finds the k nearest; a row whose k-th distance recurs
  beyond the k-th slot (or is NaN) is ranked by a stable full sort instead.
- **Cost.** A call with n queries against m stored points in d dimensions
  does O(n·m·d) arithmetic plus an O(n·m) selection.  Queries go in chunks
  whose (chunk, m) float64 arrays hold at most 65,536 elements (512 KiB), so
  the per-dimension passes stay in a core's L2 cache; a few such arrays are
  live at once.

Points and fitnesses live in preallocated arrays whose capacity doubles, so
appending a batch costs amortized O(batch) and estimates read them in place.
"""

from __future__ import annotations

import numpy as np

__all__ = ["NeighborStore"]

_CHUNK_ELEMENTS = 65_536  # (queries, points) elements per array: 512 KiB, cache-resident
_PAIRWISE_BLOCK = 128  # numpy's pairwise-summation block size


def _squared_term(queries: np.ndarray, coords: np.ndarray, j: int, out=None) -> np.ndarray:
    """(q_j - p_j)**2 for every (query, point) pair."""
    out = np.subtract(queries[:, j, None], coords[j], out=out)
    return np.multiply(out, out, out=out)


def _squared_distances(queries: np.ndarray, coords: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Sum of squared terms over dimensions lo..hi-1 in numpy's pairwise order."""
    n = hi - lo
    if n < 8:
        acc = _squared_term(queries, coords, lo)
        tmp = np.empty_like(acc)
        for j in range(lo + 1, hi):
            acc += _squared_term(queries, coords, j, tmp)
        return acc
    if n > _PAIRWISE_BLOCK:
        half = n // 2
        half -= half % 8
        acc = _squared_distances(queries, coords, lo, lo + half)
        acc += _squared_distances(queries, coords, lo + half, hi)
        return acc
    blocked = hi - n % 8

    def lane(r):  # accumulator r: dimensions lo+r, lo+r+8, ... below `blocked`
        acc = _squared_term(queries, coords, lo + r)
        for j in range(lo + r + 8, blocked, 8):
            acc += _squared_term(queries, coords, j)
        return acc

    def pair(a, b):
        a += b
        return a

    acc = pair(
        pair(pair(lane(0), lane(1)), pair(lane(2), lane(3))),
        pair(pair(lane(4), lane(5)), pair(lane(6), lane(7))),
    )
    for j in range(blocked, hi):
        acc += _squared_term(queries, coords, j)
    return acc


def _nearest(d2: np.ndarray, k: int) -> np.ndarray:
    """Per row, the column indices of the k smallest by (distance, column)."""
    n, m = d2.shape
    if k < m:
        part = np.argpartition(d2, k, axis=1)
        chosen = np.sort(part[:, :k], axis=1)
        d_chosen = np.take_along_axis(d2, chosen, axis=1)
        order = np.take_along_axis(chosen, np.argsort(d_chosen, axis=1, kind="stable"), axis=1)
        d_next = np.take_along_axis(d2, part[:, k : k + 1], axis=1)[:, 0]
        resort = ~(d_next > d_chosen.max(axis=1))  # tie straddles slot k, or NaN
    else:  # every point is a neighbor: rank them all
        order = np.empty((n, k), dtype=np.intp)
        resort = np.ones(n, dtype=bool)
    if resort.any():
        order[resort] = np.argsort(d2[resort], axis=1, kind="stable")[:, :k]
    return order


class NeighborStore:
    """Append-only store of (unit point, scalar fitness) pairs."""

    def __init__(self, n_dim: int):
        self.n_dim = n_dim
        self._coords = np.empty((n_dim, 0))  # one row per dimension, one column per point
        self._fitness = np.empty(0)
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def append(self, point, fitness: float) -> None:
        self.extend(np.asarray(point, dtype=float)[None], [fitness])

    def extend(self, points, fitnesses) -> None:
        """Append a batch; nothing is stored unless every pair is valid."""
        points = np.asarray(points, dtype=float)
        fitnesses = np.asarray(fitnesses, dtype=float)
        b = len(fitnesses)
        if fitnesses.shape != (b,) or points.shape != (b, self.n_dim):
            raise ValueError(f"points shape {points.shape} != ({b}, {self.n_dim})")
        if not ((points >= 0) & (points <= 1)).all():
            raise ValueError("point outside the unit hypercube")
        if not np.isfinite(fitnesses).all():
            raise ValueError("fitness must be finite")
        end = self._size + b
        if end > len(self._fitness):
            cap = max(end, 2 * len(self._fitness))
            coords = np.empty((self.n_dim, cap))
            coords[:, : self._size] = self._coords[:, : self._size]
            fitness = np.empty(cap)
            fitness[: self._size] = self._fitness[: self._size]
            self._coords, self._fitness = coords, fitness
        self._coords[:, self._size : end] = points.T
        self._fitness[self._size : end] = fitnesses
        self._size = end

    def estimate(self, query, k: int) -> float:
        """Mean fitness of the min(k, len(store)) nearest points to one query."""
        return float(self.estimate_many(np.asarray(query, dtype=float).reshape(1, -1), k)[0])

    def estimate_many(self, queries: np.ndarray, k: int) -> np.ndarray:
        """Mean fitness of the min(k, len(store)) nearest points, per query row.

        Distance ties break by insertion order (earlier wins).
        """
        if not self._size:
            raise ValueError("cannot estimate from an empty store")
        if k < 1:
            raise ValueError("k must be >= 1")
        queries = np.asarray(queries, dtype=float)
        if queries.ndim != 2 or queries.shape[1] != self.n_dim:
            raise ValueError(f"queries shape {queries.shape} != (n, {self.n_dim})")
        m = self._size
        coords, fit = self._coords[:, :m], self._fitness[:m]
        k = min(k, m)
        out = np.empty(len(queries))
        chunk = max(1, _CHUNK_ELEMENTS // m)
        for start in range(0, len(queries), chunk):
            q = queries[start : start + chunk]
            d2 = _squared_distances(q, coords, 0, self.n_dim)
            out[start : start + chunk] = fit[_nearest(d2, k)].mean(axis=1)
        return out

    def select_oversampled(self, candidates: np.ndarray, k: int) -> np.ndarray:
        """Column index of the best-estimated candidate in each row.

        ``candidates`` has shape (n_rows, n_over, n_dim).  Ties (and an empty
        store) resolve to the lowest column index.
        """
        candidates = np.asarray(candidates, dtype=float)
        n_rows, n_over, n_dim = candidates.shape
        if n_over == 1 or not self._size:
            return np.zeros(n_rows, dtype=np.intp)
        est = self.estimate_many(candidates.reshape(-1, n_dim), k).reshape(n_rows, n_over)
        return np.argmax(est, axis=1)  # argmax returns the first maximum

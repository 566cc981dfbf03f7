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
- **Prefilter.** While k < m, the rows ``[q, ‖q‖², 1]`` and each query's
  margin δ = 3·(d+4)·eps·((‖q‖ + max‖p‖)² + 1) are built once per block of
  queries (see Cost).  Per chunk, one float64 GEMM with ``[-2p; 1; ‖p‖²]``
  gives the Gram-form distances, clamped at 0.  The low ``bits = (m-1).bit_length()``
  (at least 1) mantissa bits of each are replaced by its column index, and
  one values-only ``np.partition`` brings the k+1 smallest of these keys to
  the front of the row.  Non-negative doubles order like their bit patterns,
  so each key names its own column, and since no two keys are equal the
  selected set does not depend on which partition kernel numpy dispatches.
  A row is *proven* when its (k+1)-th key a exceeds its k-th by more than
  2δ + a·2**(bits-51) + 2**(bits-1073).  δ is at least twice the
  worst-case rounding gap between a Gram distance (in any GEMM summation
  order, fused or not) and the exact one; the other two terms bound how far
  packing moved the two keys, relatively and among subnormals.  Its k
  columns are then the exact k nearest with no tie across the boundary, so
  only their exact distances are computed and ranked.  The BLAS build and
  its thread count therefore cannot change a result.
- **Fallback.** Every other row (k >= m, a NaN or overflowing query, a
  near-tie within the slack) gets exact distances to every point and is
  ranked by a stable full sort, the reference's own rule.
- **Cost.** A call with n queries against m stored points in d dimensions
  does O(n·m·d) arithmetic in the GEMM plus an O(n·m) packing and selection,
  and O(n·k·d) exact arithmetic for the proven rows; a fallback row costs
  O(m·d) exact arithmetic and an O(m log m) sort.  Queries go in blocks whose
  re-rank gathers at most 2**20 (query, neighbor, dimension) coordinates
  (8 MiB; 13,443 queries at d = 6 and k = 13), and the proof, the re-rank and
  the mean run once per block.  Within a block, the GEMM and the selection go
  in chunks whose (chunk, m) float64 arrays hold at most 65,536 elements
  (512 KiB), so they stay in a core's L2 cache; a few such arrays are live
  at once.

Points and fitnesses live in preallocated arrays whose capacity doubles, so
appending a batch costs amortized O(batch) and estimates read them in place.
"""

from __future__ import annotations

import numpy as np

__all__ = ["NeighborStore"]

_CHUNK_ELEMENTS = 65_536  # (queries, points) elements per array: 512 KiB, cache-resident
_BLOCK_ELEMENTS = 1 << 20  # (queries, k, d) elements a block's re-rank gathers: 8 MiB
_PAIRWISE_BLOCK = 128  # numpy's pairwise-summation block size
# c in the prefilter margin δ = c·(d+4)·eps·((‖q‖ + max‖p‖)² + 1).  To first
# order a Gram distance and the exact per-dimension sum differ by at most
# (3d+4)·(eps/2)·(‖q‖ + ‖p‖)²: (d+2)·eps/2 relative for the exact sum, and
# (2d+2)·eps/2 for the norms and a length-(d+2) dot product in any summation
# order.  c = 3 keeps that gap below δ/2; the "+ 1" covers underflow.
_MARGIN_FACTOR = 3.0


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


def _gram(coords: np.ndarray) -> np.ndarray:
    """[-2p; 1; ‖p‖²] with one column per stored point: the prefilter's right factor."""
    sq = np.einsum("ij,ij->j", coords, coords)
    return np.vstack([-2 * coords, np.ones_like(sq), sq])


def _lift(queries: np.ndarray) -> np.ndarray:
    """[q, ‖q‖², 1] with one row per query: the prefilter's left factor."""
    sq = np.einsum("ij,ij->i", queries, queries)
    return np.column_stack([queries, sq, np.ones_like(sq)])


def _gram_distances(lifted: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """‖q‖² + ‖p‖² - 2q·p for every (query, point) pair, by one GEMM of
    ``_lift(queries)`` rows and ``_gram(coords)``."""
    return lifted @ gram


def _margin(queries: np.ndarray, max_norm: float) -> np.ndarray:
    """Per query, δ: at least twice any rounding gap between a Gram distance
    and the exact one; ``max_norm`` is max‖p‖ over the stored points."""
    reach = (np.linalg.norm(queries, axis=1) + max_norm) ** 2 + 1
    return _MARGIN_FACTOR * (queries.shape[1] + 4) * np.finfo(float).eps * reach


def _prefilter(queries: np.ndarray, gram: np.ndarray, max_norm: float, k: int):
    """Per row, the k columns nearest by Gram distance (any order), and whether
    they are proven to be the k exact nearest with no tie across slot k.
    Gram distances are computed and selected from one chunk of rows at a time."""
    n, m = len(queries), gram.shape[1]
    bits = max(1, (m - 1).bit_length())  # width of the column index field
    low = np.uint64((1 << bits) - 1)
    index = np.arange(m, dtype=np.uint64)
    near = np.empty((n, k + 1))  # per row, the k+1 smallest keys; the last is the (k+1)-th
    chunk = max(1, _CHUNK_ELEMENTS // m)
    with np.errstate(over="ignore", invalid="ignore"):  # such rows fall back and warn there
        lifted = _lift(queries)
        for start in range(0, n, chunk):
            keys = _gram_distances(lifted[start : start + chunk], gram)
            np.maximum(keys, 0, out=keys)  # no true distance is negative; NaN stays NaN
            packed = keys.view(np.uint64)
            packed &= ~low
            packed |= index
            keys.partition(k, axis=1)
            near[start : start + chunk] = keys[:, : k + 1]
        kth, after = near[:, :k].max(axis=1), near[:, k]
        # Packing moved each of the two keys by under 2**bits of its ulp.
        slack = 2 * _margin(queries, max_norm) + after * 2.0 ** (bits - 51) + 2.0 ** (bits - 1073)
        # NaN compares false, and the margin bounds only finite Gram distances.
        proven = (after - kth > slack) & (after < np.inf)
    return (near[:, :k].view(np.uint64) & low).astype(np.intp), proven


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
        block = max(1, _BLOCK_ELEMENTS // (k * self.n_dim))
        chunk = max(1, _CHUNK_ELEMENTS // m)
        gram = _gram(coords) if k < m else None
        max_norm = np.sqrt(gram[-1].max()) if k < m else None  # max‖p‖: once per call, not per block
        for start in range(0, len(queries), block):
            q = queries[start : start + block]
            order = np.empty((len(q), k), dtype=np.intp)
            proven = np.zeros(len(q), dtype=bool)
            if gram is not None:
                cols, proven = _prefilter(q, gram, max_norm, k)
                if proven.any():
                    cols = np.sort(cols[proven], axis=1)  # insertion order breaks distance ties
                    d2 = _squared_distances(q[proven], coords[:, cols], 0, self.n_dim)
                    order[proven] = np.take_along_axis(cols, np.argsort(d2, axis=1, kind="stable"), axis=1)
            rest = np.flatnonzero(~proven)
            for lo in range(0, len(rest), chunk):
                rows = rest[lo : lo + chunk]
                d2 = _squared_distances(q[rows], coords, 0, self.n_dim)
                order[rows] = np.argsort(d2, axis=1, kind="stable")[:, :k]
            out[start : start + block] = fit[order].mean(axis=1)
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

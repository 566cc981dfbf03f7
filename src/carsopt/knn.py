"""k-nearest-neighbor fitness regression over evaluated samples.

Estimates are unweighted means of the k nearest stored points under Euclidean
distance in unit space; with fewer than k points stored, all of them are used.
This powers the oversampling extension: candidate points are scored here and
only the most promising candidate per row gets an actual evaluation.

Estimates are exact and reproducible bit for bit:

- **Ties.** Neighbors are ranked by (squared distance, insertion index), so
  an earlier point wins a tie, and the chosen k are averaged in that order.
- **Prefilter.** While k < m, the rows ``[q, ‖q‖², 1]`` and each query's
  margin δ = 3·(d+4)·eps·((‖q‖ + max‖p‖)² + 1) are built once per block of
  queries (see Cost).  Per chunk, one float64 GEMM with ``[-2p; 1; ‖p‖²]``
  gives the Gram-form distances.  Read as int64 keys, they get their column
  index in their low w bits by one strided store (w = 16 while m <= 2**16,
  else 32: a key's first uint16 or uint32 in little-endian memory, its last
  in big-endian), and one ``np.partition`` of these distinct integers (alike
  under any partition kernel) brings the k+1 smallest to the front of the
  row, to be sorted.  A row is *proven* when every adjacent gap among them,
  as doubles, exceeds 2δ + |a|·2**(w-51) + 2**(w-1073), a the (k+1)-th.
  δ is at least twice the worst-case rounding gap between a finite Gram
  distance (in any GEMM summation order, fused or not) and the exact one.
  Non-negative doubles order like their bits, so packing moved a key x by
  under 2**w ulps, |x|·2**(w-52) + 2**(w-1074), and a key past a came from
  a distance no smaller than a's with its index cleared; the other two terms
  cover that for two keys up to |a|.  Each gap then orders its two exact
  distances strictly, the last also the k-th before every column past a, so
  a proven row's first k keys are its exact k nearest in (distance, index)
  order, averaged as they stand; the BLAS build and its thread count cannot
  change a result.  Nothing is clamped: a negative Gram distance (from a
  distance within δ of 0, so under δ/2 in size; the spare δ covers its
  packing) sorts before every non-negative key, and two negative keys sort
  in reverse, so a row that depends on their order has a negative gap.  A
  NaN key (a NaN distance, or an infinite one whose mantissa took an index)
  makes a gap NaN, an infinite a the slack, and a NaN or infinite query δ.
- **Fallback.** Every other row (k >= m, a NaN or overflowing query, a
  near-tie within the slack among its k+1 nearest) is scored by the reference
  itself: ``((q[:, None] - p[None]) ** 2).sum(axis=2)`` over the store's own
  (m, d) rows, then a stable full sort.
- **Cost.** n queries against m stored points in d dimensions cost O(n·m·d)
  in the GEMM plus an O(n·m) index store and selection; a fallback row adds
  O(m·d) exact arithmetic and an O(m log m) sort.  Queries go in blocks of
  at most 2**18 selected keys (2 MiB; 18,724 queries at k = 13), proven and
  averaged once per block, and each block in chunks of (chunk, m) arrays of
  at most 65,536 elements (512 KiB, L2-resident), but of at least 4 rows,
  since past 16,384 stored points a call per row costs more than the cache.
  Fallback rows go in chunks of (rows, m, d) arrays of at most 65,536
  elements, but of at least 1 row; only degenerate inputs (a lattice, k >= m)
  make such rows, and seeded runs of the built-in problems none.

Points and fitnesses live in preallocated arrays whose capacity doubles, so
appending a batch costs amortized O(batch) and estimates read them in place.
"""

from __future__ import annotations

import numpy as np

__all__ = ["NeighborStore"]

_CHUNK_ELEMENTS = 65_536  # (queries, points) elements per array: 512 KiB, cache-resident
_CHUNK_ROWS = 4  # but never fewer rows than this per chunk
_BLOCK_ELEMENTS = 1 << 18  # (queries, k+1) keys a block selects: 2 MiB
# c in the prefilter margin δ = c·(d+4)·eps·((‖q‖ + max‖p‖)² + 1).  To first
# order a Gram distance and the exact sum differ by at most
# (3d+4)·(eps/2)·(‖q‖ + ‖p‖)²: (d+2)·eps/2 relative for the exact sum, and
# (2d+2)·eps/2 for the norms and a length-(d+2) dot product in any summation
# order.  c = 3 keeps that gap below δ/2; the "+ 1" covers underflow.
_MARGIN_FACTOR = 3.0


def _squared_distances(queries: np.ndarray, points: np.ndarray) -> np.ndarray:
    """``((q[:, None] - p[None]) ** 2).sum(axis=2)`` for (n, d) queries and (m, d) points."""
    diff = queries[:, None] - points[None]
    diff *= diff  # the x·x that ``** 2`` computes, without a second (n, m, d) array
    return diff.sum(axis=2)


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
    """Per row, the k columns nearest by Gram distance in key order, and whether
    that is proven their exact (distance, index) order with no tie among them
    or across slot k.  Keys are computed and selected one chunk of rows at a time."""
    n, m = len(queries), gram.shape[1]
    width = 16 if m <= 1 << 16 else 32  # bits of the column index field
    field = np.dtype(f"u{width // 8}")
    low = 0 if np.little_endian else 64 // width - 1  # the field's slot within a key
    index = np.arange(m, dtype=field)
    near = np.empty((n, k + 1), dtype=np.int64)  # per row, the k+1 smallest keys
    chunk = max(_CHUNK_ROWS, _CHUNK_ELEMENTS // m)
    with np.errstate(over="ignore", invalid="ignore"):  # such rows fall back and warn there
        lifted = _lift(queries)
        for start in range(0, n, chunk):
            keys = _gram_distances(lifted[start : start + chunk], gram).view(np.int64)
            keys.view(field)[:, low :: 64 // width] = index
            keys.partition(k, axis=1)
            near[start : start + chunk] = keys[:, : k + 1]
        near.sort(axis=1)
        dist = near.view(float)
        slack = 2 * _margin(queries, max_norm) + abs(dist[:, k]) * 2.0 ** (width - 51) + 2.0 ** (width - 1073)
        proven = (np.diff(dist, axis=1) > slack[:, None]).all(axis=1)  # NaN compares false
    return near[:, :k] & ((1 << width) - 1), proven


class NeighborStore:
    """Append-only store of (unit point, scalar fitness) pairs."""

    def __init__(self, n_dim: int):
        self.n_dim = n_dim
        self._points = np.empty((0, n_dim))  # one row per point
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
            stored = np.empty((cap, self.n_dim))
            stored[: self._size] = self._points[: self._size]
            fitness = np.empty(cap)
            fitness[: self._size] = self._fitness[: self._size]
            self._points, self._fitness = stored, fitness
        self._points[self._size : end] = points
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
        points, fit = self._points[:m], self._fitness[:m]  # rows: the sum runs over d as the reference's does
        k = min(k, m)
        out = np.empty(len(queries))
        block = max(1, _BLOCK_ELEMENTS // (k + 1))
        chunk = max(1, _CHUNK_ELEMENTS // (m * self.n_dim))  # fallback rows per (rows, m, d) temporary
        gram = _gram(points.T) if k < m else None
        max_norm = np.sqrt(gram[-1].max()) if k < m else None  # max‖p‖: once per call, not per block
        for start in range(0, len(queries), block):
            q = queries[start : start + block]
            order, proven = (
                _prefilter(q, gram, max_norm, k) if k < m else (np.empty((len(q), k), np.intp), np.zeros(len(q), bool))
            )
            rest = np.flatnonzero(~proven)
            for lo in range(0, len(rest), chunk):
                rows = rest[lo : lo + chunk]
                d2 = _squared_distances(q[rows], points)
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

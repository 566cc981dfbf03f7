"""Island-based NSGA-II baseline (Deb et al. 2002) on CARS's sample pipeline.

Each island evolves independently (no migration) with binary tournament
selection on (rank, crowding distance), simulated binary crossover with an
extra blend stage, and two-level Gaussian mutation.  All genomes live in the
unit hypercube; clamping keeps variation inside it.  After the last
generation the islands' non-dominated sets are merged and re-sorted.

The islands evolve in lockstep, their populations stacked along a leading
axis: genomes (I, P, d), objectives (I, P, m), and each row's front rank and
crowding distance (I, P).  Each island is ranked and selected on its own; a
tournament returns row indices, and the survivors of parents plus offspring
are one index array.  The run returns the merged front 0 as two arrays.

Ranking is Deb et al.'s fast non-dominated sort and crowding distance in
vectorized form: the dominance matrix is built one objective column at a
time, each front is peeled off in one step, and one call crowds every
front with a single sort by (front, value) per objective.  Fronts, their
ascending index order and the crowding floats equal those of the per-index
loops.

Generation g of every island is one batch, evaluated, scored and recorded
by the same engine functions as a CARS iteration (``evaluate_units``,
``sample_records``), so both methods write the same log format: a run
header, then per generation a ``generation`` line and its sample lines,
island by island.  A record is its log line: the engine's sample dict with
an ``island`` key last.  Its ``iteration`` is its generation.  As in CARS,
the run keeps no records: each generation's go to the run's ``sink``.

Objectives follow the maximization convention; boundary penalties (weighted
by rho = 10,000) are subtracted from every objective of an individual.  A
record's fitness is the mean of that objective vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fitness as fit
from .engine import _sampled_dims, evaluate_units, iteration_rng, open_log, run_header, sample_records
from .problem import ProblemError, ProblemSpec

__all__ = [
    "IslandConfig",
    "nondominated_sort",
    "crowding_distance",
    "gaussian_mutate",
    "sbx_crossover",
    "run_islands",
]


@dataclass
class IslandConfig:
    """Every setting of a GA run; the variation defaults are deliberately
    explorative."""

    n_islands: int = 5
    population_size: int = 20
    generations: int = 50
    p_mutate: float = 0.1
    p_mutate_val: float = 0.3
    sigma_mutate: float = 0.4
    p_crossover: float = 0.95
    alpha_crossover: float = 0.2
    eta_crossover: float = 1.0

    def __post_init__(self):
        for name in ("sigma_mutate", "alpha_crossover", "eta_crossover"):
            if not math.isfinite(getattr(self, name)):
                raise ProblemError(f"{name} must be finite, got {getattr(self, name)}")
        for name, least in (("n_islands", 1), ("population_size", 1), ("generations", 0), ("eta_crossover", 0)):
            if getattr(self, name) < least:
                raise ProblemError(f"{name} must be >= {least}")
        for p in (self.p_mutate, self.p_mutate_val, self.p_crossover):
            if not 0.0 <= p <= 1.0:
                raise ProblemError("probabilities must be in [0, 1]")
        if self.sigma_mutate <= 0:
            raise ProblemError("sigma_mutate must be > 0")

    @property
    def total_evaluations(self) -> int:
        return self.n_islands * self.population_size * (self.generations + 1)


# ---------------------------------------------------------------------------
# NSGA-II primitives
# ---------------------------------------------------------------------------

def nondominated_sort(objectives: np.ndarray) -> list[list[int]]:
    """Fast non-dominated sorting; returns fronts as ascending index lists
    (front 0 first)."""
    objectives = np.asarray(objectives, dtype=float)
    n = len(objectives)
    # Pairwise dominance matrix, one objective column at a time:
    # dom[i, j] = i dominates j (>= everywhere and > somewhere).
    ge = np.ones((n, n), dtype=bool)
    gt = np.zeros((n, n), dtype=bool)
    for col in objectives.T:
        ge &= col[:, None] >= col
        gt |= col[:, None] > col
    dom = ge & gt
    counts = dom.sum(axis=0)
    assigned = np.zeros(n, dtype=bool)
    fronts = []
    while not assigned.all():
        front = np.flatnonzero(~assigned & (counts == 0))
        fronts.append(front.tolist())
        assigned[front] = True
        counts -= dom[front].sum(axis=0)
    return fronts


def crowding_distance(objectives: np.ndarray, front: np.ndarray) -> np.ndarray:
    """NSGA-II crowding distance (larger = less crowded).

    ``front`` gives each row's front index, and rows are crowded only among
    rows of their own front.  A front of one or two rows is all infinite.
    Per objective, a front's extreme rows (lowest index first among ties)
    are infinite and each interior row adds (next - previous) / (highest -
    lowest); an objective constant over a front, or whose range over it is
    not finite, adds nothing to it.
    """
    objectives = np.asarray(objectives, dtype=float)
    n = len(objectives)
    # Sorted by (front, value), every objective puts each front at the same
    # positions: starts, ends and interiors are found once.
    sorted_front = np.sort(front)
    first, last = np.ones(n, dtype=bool), np.ones(n, dtype=bool)
    first[1:] = sorted_front[1:] != sorted_front[:-1]
    last[:-1] = first[1:]
    group = np.cumsum(first) - 1
    starts, ends = np.flatnonzero(first), np.flatnonzero(last)
    edge = first | last
    dist = np.where(np.bincount(front)[front] <= 2, np.inf, 0.0)
    for values in objectives.T:
        order = np.lexsort((values, front))
        v = values[order]
        with np.errstate(over="ignore", invalid="ignore"):
            span = v[ends] - v[starts]
        dist[order[edge]] = np.inf
        pos = np.flatnonzero(~edge & ((span > 0) & np.isfinite(span))[group])
        dist[order[pos]] += (v[pos + 1] - v[pos - 1]) / span[group[pos]]
    return dist


def _ranked(objectives: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's front index (0 = non-dominated) and its crowding distance
    within that front."""
    rank = np.empty(len(objectives), dtype=np.intp)
    for r, front in enumerate(nondominated_sort(objectives)):
        rank[front] = r
    return rank, crowding_distance(objectives, rank)


def _tournament(rank: np.ndarray, crowding: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """Binary tournaments over the index pairs ``pairs`` (k, 2); returns the k
    winners.  The lower rank wins, then the larger crowding; the first index
    wins a tie (and loses to the second when either crowding is NaN)."""
    i, j = pairs.T
    ri, rj, ci, cj = rank[i], rank[j], crowding[i], crowding[j]
    return np.where(np.where(ri != rj, ri < rj, ci >= cj), i, j)


def _survivors(rank: np.ndarray, crowding: np.ndarray, size: int) -> np.ndarray:
    """Indices of the ``size`` survivors of a population of more rows: whole
    fronts in index order, then the front that overflows in stable
    descending crowding order (NaN last)."""
    cut = np.sort(rank)[size]
    return np.lexsort((np.where(rank == cut, -crowding, 0.0), rank))[:size]


# ---------------------------------------------------------------------------
# Variation operators
# ---------------------------------------------------------------------------

def gaussian_mutate(genomes: np.ndarray, rng: np.random.Generator, cfg: IslandConfig) -> np.ndarray:
    """Two-level Gaussian mutation of the rows of ``genomes`` (n, d), which lie
    in the unit box, clamped to [0, 1].  Draws, in order: a flag per row
    (mutated when below ``p_mutate``), a gene mask (n, d) (below
    ``p_mutate_val``), and one normal per masked gene of a flagged row."""
    flags = rng.random(len(genomes)) < cfg.p_mutate
    mask = (rng.random(genomes.shape) < cfg.p_mutate_val) & flags[:, None]
    out = genomes.copy()
    out[mask] += rng.normal(0.0, cfg.sigma_mutate, size=mask.sum())
    return np.clip(out, 0.0, 1.0)


def sbx_crossover(
    a: np.ndarray, b: np.ndarray, rng: np.random.Generator, cfg: IslandConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Simulated binary crossover of the row pairs (a[k], b[k]) of two (n, d)
    parent arrays, then a symmetric blend stage; returns the (n, d) children.

    Draws, in order: a flag per pair (crossed when below ``p_crossover``,
    else the children are the parents), ``u`` (n, d) and ``gamma`` (n, d).
    The spread factor follows the eta-parameterized polynomial distribution,
    and gamma is scaled to [-alpha, 1 + alpha]; both stages conserve the
    per-gene midpoint before clamping.  The spread factor's root is libm's,
    per value: numpy's vectorized ``power`` rounds differently on AVX-512.
    """
    crossed = (rng.random(len(a)) < cfg.p_crossover)[:, None]
    u = rng.random(a.shape)
    gamma = (1.0 + 2.0 * cfg.alpha_crossover) * rng.random(a.shape) - cfg.alpha_crossover
    exp = 1.0 / (cfg.eta_crossover + 1.0)
    root = math.sqrt if exp == 0.5 else lambda x: math.pow(x, exp)
    base = np.where(u <= 0.5, 2.0 * u, 1.0 / (2.0 * (1.0 - u)))
    beta = np.array(list(map(root, base.ravel().tolist()))).reshape(a.shape)
    c1 = 0.5 * ((1.0 + beta) * a + (1.0 - beta) * b)
    c2 = 0.5 * ((1.0 - beta) * a + (1.0 + beta) * b)
    d1 = (1.0 - gamma) * c1 + gamma * c2
    d2 = gamma * c1 + (1.0 - gamma) * c2
    return np.where(crossed, np.clip(d1, 0.0, 1.0), a), np.where(crossed, np.clip(d2, 0.0, 1.0), b)


# ---------------------------------------------------------------------------
# Evolution loop
# ---------------------------------------------------------------------------

def run_islands(
    spec: ProblemSpec,
    cfg: IslandConfig,
    evaluator,
    seed: int = 0,
    log_path=None,
    sink=lambda records: None,
) -> tuple[np.ndarray, np.ndarray]:
    """Evolve the islands in lockstep and merge their non-dominated sets.

    Returns the merged front 0 as (genomes, objectives): unit-space genomes
    (n, d) and their objective vectors (n, m), in island-then-row order.

    Generation g of every island is one batch: one ``evaluate_units`` call,
    one score, one set of records passed to ``sink`` and one log write that
    starts with a ``{"type": "generation", "generation": g}`` line.  Member
    j of island i's generation g has sample id (g * n_islands + i) *
    population_size + j, so ids run 0, 1, 2, ... in log order.

    Island i draws from its own stream ``iteration_rng(seed, 1_000_000 + i)``,
    so its trajectory does not depend on how many islands there are: first
    its initial genomes, one ``random((population_size, n_dim))`` call; then
    in each generation, in this order, every tournament index pair (one
    ``integers`` call), the crossover flags, ``u``, ``gamma``, the mutation
    flags, the gene masks and the normals.
    """
    dims = _sampled_dims(spec)
    size, n_dim = cfg.population_size, len(dims)
    rngs = [iteration_rng(seed, 1_000_000 + island) for island in range(cfg.n_islands)]

    with open_log(log_path, "w") as emit:

        def evaluate(generation: int, genomes: np.ndarray) -> np.ndarray:
            """Evaluate, score, record and log one generation; returns (I, P, m) objectives."""
            units = genomes.reshape(-1, n_dim)
            requests, results, bd = evaluate_units(spec, dims, evaluator, units, generation * len(units))
            vecs = fit.ga_objective_vector(bd)
            batch = sample_records(generation, units, [()] * len(units), requests, results, bd, vecs.mean(axis=1))
            for k, rec in enumerate(batch):
                rec["island"] = k // size
            emit([{"type": "generation", "generation": generation}, *batch])
            sink(batch)
            return vecs.reshape(cfg.n_islands, size, -1)

        header = run_header("ga", seed, cfg.total_evaluations, dims, None)
        sizes = {"islands": cfg.n_islands, "population_size": cfg.population_size, "generations": cfg.generations}
        emit([{**header, **sizes}])
        genomes = np.stack([rng.random((size, n_dim)) for rng in rngs])
        objectives = evaluate(0, genomes)
        rank, crowding = map(np.stack, zip(*map(_ranked, objectives)))
        rows = np.arange(cfg.n_islands)[:, None]
        for gen in range(1, cfg.generations + 1):
            offspring = []
            for g, r, c, rng in zip(genomes, rank, crowding, rngs):  # ceil(P / 2) pairs; odd P drops a child
                parents = _tournament(r, c, rng.integers(0, size, size=(size + size % 2, 2)))
                c1, c2 = sbx_crossover(g[parents[0::2]], g[parents[1::2]], rng, cfg)
                offspring.append(gaussian_mutate(np.stack([c1, c2], axis=1).reshape(-1, n_dim)[:size], rng, cfg))
            offspring = np.stack(offspring)
            genomes = np.concatenate([genomes, offspring], axis=1)
            objectives = np.concatenate([objectives, evaluate(gen, offspring)], axis=1)
            rank, crowding = map(np.stack, zip(*map(_ranked, objectives)))
            keep = rows, np.stack([_survivors(r, c, size) for r, c in zip(rank, crowding)])
            genomes, objectives, rank, crowding = genomes[keep], objectives[keep], rank[keep], crowding[keep]

    genomes, objectives = genomes[rank == 0], objectives[rank == 0]
    front0 = nondominated_sort(objectives)[0]
    return genomes[front0], objectives[front0]

"""Island-based NSGA-II baseline (Deb et al. 2002) on CARS's sample pipeline.

Each island evolves independently (no migration) with binary tournament
selection on (rank, crowding distance), simulated binary crossover with an
extra blend stage, and two-level Gaussian mutation.  All genomes live in the
unit hypercube; clamping keeps variation inside it.  After the last
generation the islands' non-dominated sets are merged and re-sorted.

An island's population is held as arrays: genomes (P, d), objectives
(P, m), and each row's front rank and crowding distance.  A tournament
returns a row index, and the survivors of parents plus offspring are one
index array.  ``Individual`` exists only for the merged front 0.

Ranking is Deb et al.'s fast non-dominated sort and crowding distance in
vectorized form: the dominance matrix is built one objective column at a
time, each front is peeled off in one step, and one call crowds every
front with a single sort by (front, value) per objective.  Fronts, their
ascending index order and the crowding floats equal those of the per-index
loops.

A generation is evaluated, scored, recorded and logged by the same engine
functions as a CARS iteration (``evaluate_units``, ``sample_records``,
``sample_json``), so both methods write the same log format: a run header,
then per island an ``island`` line and its sample lines, each tagged with
the island.  A record's ``iteration`` is its generation.

Objectives follow the maximization convention; boundary penalties (weighted
by rho = 10,000) are subtracted from every objective of an individual.  A
record's fitness is the mean of that objective vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import fitness as fit
from .engine import SampleRecord, evaluate_units, iteration_rng, open_log, run_header, sample_json, sample_records
from .problem import ProblemError, ProblemSpec, sampled_dimensions

__all__ = [
    "IslandConfig",
    "Individual",
    "GAResult",
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


@dataclass
class Individual:
    genome: np.ndarray  # unit-space coordinates
    objectives: np.ndarray


@dataclass
class GAResult:
    records: list[SampleRecord]
    front0: list[Individual]
    total_evaluations: int


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
        if not len(front):  # numeric pathologies (all-NaN etc.): dump the rest
            front = np.flatnonzero(~assigned)
        fronts.append(front.tolist())
        assigned[front] = True
        counts -= dom[front].sum(axis=0)
    return fronts


def crowding_distance(objectives: np.ndarray, front: np.ndarray | None = None) -> np.ndarray:
    """NSGA-II crowding distance (larger = less crowded).

    ``front`` gives each row's front index, and rows are crowded only among
    rows of their own front; without it all rows form one front.  A front
    of one or two rows is all infinite.  Per objective, a front's extreme
    rows (lowest index first among ties) are infinite and each interior row
    adds (next - previous) / (highest - lowest); an objective constant over
    a front, or whose range over it is not finite, adds nothing to it.
    """
    objectives = np.asarray(objectives, dtype=float)
    n = len(objectives)
    front = np.zeros(n, dtype=np.intp) if front is None else np.asarray(front)
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


def _tournament(rank: np.ndarray, crowding: np.ndarray, rng: np.random.Generator) -> int:
    """Binary tournament: the lower rank wins, then the larger crowding; the
    first draw wins a tie (and loses to the second when either crowding is
    NaN)."""
    i, j = rng.integers(0, len(rank), size=2)
    if rank[i] != rank[j]:
        return i if rank[i] < rank[j] else j
    if crowding[i] != crowding[j]:
        return i if crowding[i] > crowding[j] else j
    return i


def _survivors(rank: np.ndarray, crowding: np.ndarray, size: int) -> np.ndarray:
    """Indices of the ``size`` survivors of a population of more rows: whole
    fronts in index order, then the front that overflows in stable
    descending crowding order (NaN last)."""
    cut = np.sort(rank)[size]
    return np.lexsort((np.where(rank == cut, -crowding, 0.0), rank))[:size]


# ---------------------------------------------------------------------------
# Variation operators
# ---------------------------------------------------------------------------

def gaussian_mutate(genome: np.ndarray, rng: np.random.Generator, cfg: IslandConfig) -> np.ndarray:
    """Two-level Gaussian mutation; the result is clamped to [0, 1]."""
    if rng.random() >= cfg.p_mutate:
        return genome.copy()
    out = genome.copy()
    mask = rng.random(len(genome)) < cfg.p_mutate_val
    out[mask] += rng.normal(0.0, cfg.sigma_mutate, size=mask.sum())
    return np.clip(out, 0.0, 1.0)


def sbx_crossover(
    a: np.ndarray, b: np.ndarray, rng: np.random.Generator, cfg: IslandConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Simulated binary crossover followed by a symmetric blend stage.

    The per-gene spread factor comes from the eta-parameterized polynomial
    distribution; the blend stage draws gamma in [-alpha, 1 + alpha] per gene.
    Both stages conserve the per-gene midpoint before clamping.  The spread
    factor's root is taken per gene by libm, not by numpy's vectorized
    ``power``, whose SIMD kernel rounds differently on AVX-512 hosts.
    """
    if rng.random() >= cfg.p_crossover:
        return a.copy(), b.copy()
    u = rng.random(len(a))
    exp = 1.0 / (cfg.eta_crossover + 1.0)
    root = math.sqrt if exp == 0.5 else lambda x: math.pow(x, exp)
    base = np.where(u <= 0.5, 2.0 * u, 1.0 / (2.0 * (1.0 - u)))
    beta = np.array([root(x) for x in base.tolist()])
    c1 = 0.5 * ((1.0 + beta) * a + (1.0 - beta) * b)
    c2 = 0.5 * ((1.0 - beta) * a + (1.0 + beta) * b)
    gamma = (1.0 + 2.0 * cfg.alpha_crossover) * rng.random(len(a)) - cfg.alpha_crossover
    d1 = (1.0 - gamma) * c1 + gamma * c2
    d2 = gamma * c1 + (1.0 - gamma) * c2
    return np.clip(d1, 0.0, 1.0), np.clip(d2, 0.0, 1.0)


# ---------------------------------------------------------------------------
# Evolution loop
# ---------------------------------------------------------------------------

def _evolve(cfg: IslandConfig, n_dim: int, rng: np.random.Generator, evaluate) -> tuple[np.ndarray, np.ndarray]:
    """One island's NSGA-II run; ``evaluate(generation, genomes)`` returns a
    generation's objective rows.  Returns the final front 0's genomes and
    objectives."""
    genomes = rng.random((cfg.population_size, n_dim))
    objectives = evaluate(0, genomes)
    rank, crowding = _ranked(objectives)
    for gen in range(1, cfg.generations + 1):
        offspring = []
        while len(offspring) < cfg.population_size:
            p1 = _tournament(rank, crowding, rng)
            p2 = _tournament(rank, crowding, rng)
            c1, c2 = sbx_crossover(genomes[p1], genomes[p2], rng, cfg)
            offspring.append(gaussian_mutate(c1, rng, cfg))
            if len(offspring) < cfg.population_size:
                offspring.append(gaussian_mutate(c2, rng, cfg))
        offspring = np.array(offspring)
        genomes = np.concatenate([genomes, offspring])
        objectives = np.concatenate([objectives, evaluate(gen, offspring)])
        rank, crowding = _ranked(objectives)
        keep = _survivors(rank, crowding, cfg.population_size)
        genomes, objectives, rank, crowding = genomes[keep], objectives[keep], rank[keep], crowding[keep]
    return genomes[rank == 0], objectives[rank == 0]


def run_islands(
    spec: ProblemSpec,
    cfg: IslandConfig,
    evaluator,
    seed: int = 0,
    log_path=None,
) -> GAResult:
    """Evolve every island independently and merge their non-dominated sets.

    Island i uses an RNG stream derived from (seed, i), so its trajectory is
    unaffected by the other islands.  Sample ids are unique across islands:
    island i's generation g holds ids from (i * (generations + 1) + g) *
    population_size on.
    """
    dims = sampled_dimensions(spec)
    records: list[SampleRecord] = []
    fronts = []

    with open_log(log_path, "w") as emit:

        def evaluate(island: int, generation: int, genomes: np.ndarray) -> np.ndarray:
            first_id = (island * (cfg.generations + 1) + generation) * cfg.population_size
            requests, results, bd = evaluate_units(spec, dims, evaluator, genomes, first_id)
            vecs = fit.ga_objective_vector(bd)
            batch = sample_records(generation, genomes, [()] * len(genomes), requests, results, bd, vecs.mean(axis=1))
            emit([{**sample_json(rec), "island": island} for rec in batch])
            records.extend(batch)
            return vecs

        header = run_header("ga", seed, cfg.total_evaluations, dims, None)
        sizes = {"islands": cfg.n_islands, "population_size": cfg.population_size, "generations": cfg.generations}
        emit([{**header, **sizes}])
        for island in range(cfg.n_islands):
            emit([{"type": "island", "island": island}])
            rng = iteration_rng(seed, 1_000_000 + island)
            fronts.append(_evolve(cfg, len(dims), rng, partial(evaluate, island)))

    genomes, objectives = (np.concatenate(rows) for rows in zip(*fronts))
    front0 = [Individual(genomes[i], objectives[i]) for i in nondominated_sort(objectives)[0]]
    return GAResult(records=records, front0=front0, total_evaluations=cfg.total_evaluations)

"""Island-based NSGA-II baseline (Deb et al. 2002) on CARS's sample pipeline.

Each island evolves independently (no migration) with binary tournament
selection on (rank, crowding distance), simulated binary crossover with an
extra blend stage, and two-level Gaussian mutation.  All genomes live in the
unit hypercube; clamping keeps variation inside it.  After the last
generation the islands' non-dominated sets are merged and re-sorted.

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

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import fitness as fit
from .engine import SampleRecord, evaluate_units, open_log, run_header, sample_json, sample_records
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
    objectives: np.ndarray | None = None
    rank: int = -1
    crowding: float = 0.0
    valid: bool = False


@dataclass
class GAResult:
    records: list[SampleRecord]
    front0: list[Individual]
    total_evaluations: int


# ---------------------------------------------------------------------------
# NSGA-II primitives
# ---------------------------------------------------------------------------

def _dominates(a: np.ndarray, b: np.ndarray) -> bool:
    """Maximization: a dominates b iff >= everywhere and > somewhere."""
    return bool(np.all(a >= b) and np.any(a > b))


def nondominated_sort(objectives: np.ndarray) -> list[list[int]]:
    """Fast non-dominated sorting; returns fronts as index lists (front 0 first)."""
    objectives = np.asarray(objectives, dtype=float)
    n = len(objectives)
    # Pairwise dominance matrix: dom[i, j] = i dominates j.
    ge = np.all(objectives[:, None, :] >= objectives[None, :, :], axis=2)
    gt = np.any(objectives[:, None, :] > objectives[None, :, :], axis=2)
    dom = ge & gt
    dominated_count = dom.sum(axis=0)
    fronts = []
    remaining = np.arange(n)
    counts = dominated_count.copy()
    assigned = np.zeros(n, dtype=bool)
    while not assigned.all():
        current = [int(i) for i in remaining if not assigned[i] and counts[i] == 0]
        if not current:  # numeric pathologies (all-NaN etc.): dump the rest
            current = [int(i) for i in remaining if not assigned[i]]
        fronts.append(current)
        for i in current:
            assigned[i] = True
            counts[dom[i]] -= 1
    return fronts


def crowding_distance(objectives: np.ndarray) -> np.ndarray:
    """NSGA-II crowding distance within one front (larger = less crowded)."""
    objectives = np.asarray(objectives, dtype=float)
    n, m = objectives.shape
    dist = np.zeros(n)
    if n <= 2:
        return np.full(n, np.inf)
    for j in range(m):
        order = np.argsort(objectives[:, j], kind="stable")
        lo, hi = objectives[order[0], j], objectives[order[-1], j]
        dist[order[0]] = dist[order[-1]] = np.inf
        if hi == lo:
            continue
        gaps = (objectives[order[2:], j] - objectives[order[:-2], j]) / (hi - lo)
        dist[order[1:-1]] += gaps
    return dist


def _better(a: Individual, b: Individual) -> Individual:
    if a.rank != b.rank:
        return a if a.rank < b.rank else b
    if a.crowding != b.crowding:
        return a if a.crowding > b.crowding else b
    return a


def _tournament(pop: list[Individual], rng: np.random.Generator) -> Individual:
    i, j = rng.integers(0, len(pop), size=2)
    return _better(pop[i], pop[j])


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
    Both stages conserve the per-gene midpoint before clamping.
    """
    if rng.random() >= cfg.p_crossover:
        return a.copy(), b.copy()
    u = rng.random(len(a))
    exp = 1.0 / (cfg.eta_crossover + 1.0)
    beta = np.where(u <= 0.5, (2.0 * u) ** exp, (1.0 / (2.0 * (1.0 - u))) ** exp)
    c1 = 0.5 * ((1.0 + beta) * a + (1.0 - beta) * b)
    c2 = 0.5 * ((1.0 - beta) * a + (1.0 + beta) * b)
    gamma = (1.0 + 2.0 * cfg.alpha_crossover) * rng.random(len(a)) - cfg.alpha_crossover
    d1 = (1.0 - gamma) * c1 + gamma * c2
    d2 = gamma * c1 + (1.0 - gamma) * c2
    return np.clip(d1, 0.0, 1.0), np.clip(d2, 0.0, 1.0)


# ---------------------------------------------------------------------------
# Evolution loop
# ---------------------------------------------------------------------------

def _island_rng(seed: int, island: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(1_000_000 + island,)))
    )


def _assign_ranks(pop: list[Individual]) -> list[list[int]]:
    objs = np.array([ind.objectives for ind in pop])
    fronts = nondominated_sort(objs)
    for rank, front in enumerate(fronts):
        dists = crowding_distance(objs[front])
        for idx, d in zip(front, dists):
            pop[idx].rank = rank
            pop[idx].crowding = float(d)
    return fronts


def _evolve(cfg: IslandConfig, n_dim: int, rng: np.random.Generator, evaluate) -> list[Individual]:
    """One island's NSGA-II run; ``evaluate(generation, genomes)`` scores a
    generation's genomes as individuals."""
    pop = evaluate(0, [rng.random(n_dim) for _ in range(cfg.population_size)])
    _assign_ranks(pop)
    for gen in range(1, cfg.generations + 1):
        offspring_genomes = []
        while len(offspring_genomes) < cfg.population_size:
            p1 = _tournament(pop, rng)
            p2 = _tournament(pop, rng)
            c1, c2 = sbx_crossover(p1.genome, p2.genome, rng, cfg)
            offspring_genomes.append(gaussian_mutate(c1, rng, cfg))
            if len(offspring_genomes) < cfg.population_size:
                offspring_genomes.append(gaussian_mutate(c2, rng, cfg))
        offspring = evaluate(gen, offspring_genomes)
        combined = pop + offspring
        fronts = _assign_ranks(combined)
        survivors: list[Individual] = []
        for front in fronts:
            if len(survivors) + len(front) <= cfg.population_size:
                survivors.extend(combined[i] for i in front)
            else:
                room = cfg.population_size - len(survivors)
                ordered = sorted(front, key=lambda i: -combined[i].crowding)
                survivors.extend(combined[i] for i in ordered[:room])
                break
        pop = survivors
    return pop


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
    merged_front: list[Individual] = []

    with open_log(log_path, "w") as emit:

        def evaluate(island: int, generation: int, genomes: list[np.ndarray]) -> list[Individual]:
            first_id = (island * (cfg.generations + 1) + generation) * cfg.population_size
            requests, results, breakdowns = evaluate_units(spec, dims, evaluator, genomes, first_id)
            vecs = [fit.ga_objective_vector(bd) for bd in breakdowns]
            batch = sample_records(
                generation, genomes, [()] * len(genomes), requests, results, breakdowns, [np.mean(v) for v in vecs]
            )
            emit([{**sample_json(rec), "island": island} for rec in batch])
            records.extend(batch)
            return [
                Individual(genome=g, objectives=vec, valid=rec.valid)
                for g, vec, rec in zip(genomes, vecs, batch)
            ]

        header = run_header("ga", seed, cfg.total_evaluations, dims, None)
        sizes = {"islands": cfg.n_islands, "population_size": cfg.population_size, "generations": cfg.generations}
        emit([{**header, **sizes}])
        for island in range(cfg.n_islands):
            emit([{"type": "island", "island": island}])
            final_pop = _evolve(cfg, len(dims), _island_rng(seed, island), partial(evaluate, island))
            merged_front.extend(ind for ind in final_pop if ind.rank == 0)

    if merged_front:
        objs = np.array([ind.objectives for ind in merged_front])
        front0_idx = nondominated_sort(objs)[0]
        front0 = [merged_front[i] for i in front0_idx]
    else:
        front0 = []
    return GAResult(records=records, front0=front0, total_evaluations=cfg.total_evaluations)

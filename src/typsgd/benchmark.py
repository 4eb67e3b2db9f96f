"""The clustered least-squares comparison benchmark.

A 2000-sample two-component mixture (weights 0.9 / 0.1): the dominant
cluster sits away from the origin, the small component near it; targets are
a fixed linear map of the features with extra observation noise on the
dominant cluster's outskirts (its low-density members, the 'atypical'
samples). The pipeline embeds, density-partitions at gamma = 0.3, and the
paired-seed runs compare plain SRS batches against the 80/20 typicality
plan at the theory step size 1/L for SGD, plus an Adam pairing that is
recorded but carries no claim.

The stratified gradient's expected squared error is genuinely smaller here
(the error report shows alpha well under 1); whether that translates into
fewer iterations to a fixed loss threshold at equal step size is exactly
what the comparison measures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _parallel
from .analysis import formula_alpha
from .data import Dataset, generate_clustered
from .density import Partition, build_partition, kde_densities
from .embedding import tsne_embed
from .errors import InvalidArgumentError
from .models import ModelSpec, QuadraticModel, quadratic_constants
from .optimize import Adam, Sgd, check_threshold, evaluations, first_reach, median_reach
from .sampling import SrsScheme, StratifiedScheme, make_plan


@dataclass(frozen=True)
class BenchmarkSetup:
    dataset: Dataset
    partition: Partition
    model_spec: ModelSpec
    noisy_mask: np.ndarray


@dataclass
class ComparisonResult:
    sgd_iterations: dict[str, list[int | None]]
    adam_iterations: dict[str, list[int | None]]
    medians_sgd: dict[str, float]
    medians_adam: dict[str, float]
    alpha_at_start: float
    seeds: tuple[int, ...]

    def median(self, sampler: str, optimizer: str = "sgd") -> float:
        table = self.medians_sgd if optimizer == "sgd" else self.medians_adam
        return table[sampler]


CENTER = (6.0, 6.0)
MINORITY_CENTER = (0.0, 0.0)
CLUSTER_SIGMA = 1.0
TRUE_WEIGHTS = (1.0, 1.0)
OUTSKIRT_RADIUS = 1.18  # median radius of a 2-D Gaussian, in sigma units
OUTSKIRT_NOISE = 1.5


def build_benchmark(
    n_samples: int = 2000,
    gamma: float = 0.3,
    data_seed: int = 42,
    noise_seed: int = 43,
    embed_seed: int = 7,
    tsne_iterations: int = 300,
    perplexity: float = 30.0,
) -> BenchmarkSetup:
    """Generate the benchmark dataset and its pipeline partition."""
    center = np.asarray(CENTER)
    raw = generate_clustered(
        n_samples, 2, [list(CENTER), list(MINORITY_CENTER)], [0.9, 0.1], CLUSTER_SIGMA, seed=data_seed
    )
    minority = raw.targets.ravel() == 1  # generate_clustered's one target column is the center index
    radius = np.linalg.norm(raw.features - center, axis=1)
    noisy = (~minority) & (radius > OUTSKIRT_RADIUS * CLUSTER_SIGMA)
    noise = np.random.default_rng(noise_seed).standard_normal(n_samples)
    targets = raw.features @ np.asarray(TRUE_WEIGHTS) + OUTSKIRT_NOISE * noise * noisy
    dataset = Dataset(features=raw.features, targets=targets[:, None])
    embedding = tsne_embed(raw, perplexity=perplexity, iterations=tsne_iterations, seed=embed_seed)
    partition = build_partition(kde_densities(embedding, "scott"), gamma)
    return BenchmarkSetup(
        dataset=dataset,
        partition=partition,
        model_spec=quadratic_constants(dataset),
        noisy_mask=noisy,
    )


def _reach(model, dataset, scheme, optimizer, iterations, seed, eval_every, spec, threshold):
    """One paired-seed run's iterations to the loss threshold, None if it never gets there.

    The run stops at its reach: ``first_reach`` pulls no evaluation point of
    the lazy loop after the first one under the threshold, so no later step
    is taken, and a ``NumericError`` that such a step would raise is not
    seen. Only a run that never reaches the threshold takes its whole
    ``iterations`` budget.
    """
    points = evaluations(model, dataset, scheme, optimizer, iterations, seed, eval_every, model_spec=spec)
    return first_reach((record for record, _ in points), threshold)


def run_comparison(
    setup: BenchmarkSetup,
    seeds=tuple(range(15)),
    m: int = 50,
    n1: int = 40,
    threshold: float = 1e-3,
    iterations: int = 2500,
    eval_every: int = 25,
    adam_iterations: int = 800,
) -> ComparisonResult:
    """Paired-seed SGD and Adam runs; iterations to the loss threshold.

    Each run stops at its first evaluation at or under the threshold, so a
    budget only bounds the runs that never reach it; those enter the median
    as infinity. The reach is the one a full run's trace gives, but a
    ``NumericError`` that a step after the reach would have raised is not
    seen. Each run is independent of the others, so they go to
    ``_parallel.map_processes``, one worker per usable CPU; the result is
    the same bit for bit.

    ``seeds`` is read once, as a tuple; an empty one, one that repeats a
    seed (its runs would count twice in the medians), or a NaN or infinite
    ``threshold``, is refused before any run starts.
    """
    seeds = tuple(seeds)
    if not seeds:
        raise InvalidArgumentError("run_comparison needs at least one seed")
    if len(set(seeds)) < len(seeds):
        raise InvalidArgumentError(f"run_comparison seeds repeat a seed: {seeds}")
    check_threshold(threshold)
    model = QuadraticModel()
    spec = setup.model_spec
    plan = make_plan(m, n1, setup.partition)
    schemes = {
        "srs": SrsScheme(m=m),
        "typicality": StratifiedScheme(partition=setup.partition, plan=plan),
    }
    budgets = {"sgd": (Sgd(eta=1.0 / spec.lipschitz_L), iterations), "adam": (Adam(eta=0.05), adam_iterations)}
    runs = [(seed, name, kind) for seed in seeds for name in schemes for kind in budgets]
    reaches = _parallel.map_processes(
        _reach,
        [(model, setup.dataset, schemes[name], *budgets[kind], seed, eval_every, spec, threshold)
         for seed, name, kind in runs],
    )
    table = {kind: {name: [] for name in schemes} for kind in budgets}
    for (_, name, kind), reach in zip(runs, reaches):
        table[kind][name].append(reach)
    sgd_iters, adam_iters = table["sgd"], table["adam"]
    # the quadratic model starts every paired run at the same theta
    alpha = formula_alpha(model, setup.dataset, model.init_theta(setup.dataset, seeds[0]), setup.partition, plan)
    return ComparisonResult(
        sgd_iterations=sgd_iters,
        adam_iterations=adam_iters,
        medians_sgd={k: median_reach(v) for k, v in sgd_iters.items()},
        medians_adam={k: median_reach(v) for k, v in adam_iters.items()},
        alpha_at_start=alpha,
        seeds=seeds,
    )

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

from .analysis import formula_alpha
from .data import Dataset, generate_clustered
from .density import Partition, build_partition, kde_densities
from .embedding import tsne_embed
from .models import ModelSpec, QuadraticModel, quadratic_constants
from .optimize import Adam, Sgd, median_reach, train
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
    minority = raw.targets[:, 0] == 1
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


def run_comparison(
    setup: BenchmarkSetup,
    seeds=tuple(range(15)),
    m: int = 50,
    n1: int = 40,
    threshold: float = 1e-3,
    iterations: int = 2500,
    eval_every: int = 25,
    adam_iterations: int = 800,
    run_adam: bool = True,
) -> ComparisonResult:
    """Paired-seed SGD (and Adam) runs; iterations to the loss threshold.

    Runs that never reach the threshold within the budget enter the median
    as infinity.
    """
    model = QuadraticModel()
    spec = setup.model_spec
    plan = make_plan(m, n1, setup.partition)
    schemes = {
        "srs": SrsScheme(m=m),
        "typicality": StratifiedScheme(partition=setup.partition, plan=plan),
    }
    eta = 1.0 / spec.lipschitz_L
    sgd_iters: dict[str, list] = {"srs": [], "typicality": []}
    adam_iters: dict[str, list] = {"srs": [], "typicality": []}
    for seed in seeds:
        for name, scheme in schemes.items():
            trace = train(
                model, setup.dataset, scheme, Sgd(eta=eta), iterations,
                seed=seed, eval_every=eval_every, model_spec=spec,
            )
            sgd_iters[name].append(trace.iterations_to_threshold(threshold))
            if run_adam:
                trace = train(
                    model, setup.dataset, scheme, Adam(eta=0.05), adam_iterations,
                    seed=seed, eval_every=eval_every, model_spec=spec,
                )
                adam_iters[name].append(trace.iterations_to_threshold(threshold))
    alpha = formula_alpha(model, setup.dataset, np.zeros(2), setup.partition, plan)
    return ComparisonResult(
        sgd_iterations=sgd_iters,
        adam_iterations=adam_iters,
        medians_sgd={k: median_reach(v) for k, v in sgd_iters.items()},
        medians_adam={k: median_reach(v) for k, v in adam_iters.items()},
        alpha_at_start=alpha,
        seeds=tuple(seeds),
    )

"""run_comparison on the process pool returns what the serial paired-seed loop returns, bit for bit."""

import multiprocessing
from dataclasses import dataclass
from unittest import mock

import numpy as np
import pytest

from typsgd import _parallel, benchmark
from typsgd.analysis import formula_alpha
from typsgd.benchmark import BenchmarkSetup, ComparisonResult, run_comparison
from typsgd.data import Dataset, generate_clustered
from typsgd.density import build_partition, kde_densities
from typsgd.errors import InvalidArgumentError
from typsgd.models import QuadraticModel, quadratic_constants
from typsgd.optimize import Adam, Sgd, median_reach, train
from typsgd.sampling import SrsScheme, StratifiedScheme, make_plan

# short budgets on which some runs reach the threshold and others never do
SMALL = dict(seeds=(0, 1, 2), m=10, n1=8, threshold=1e-3, iterations=200, eval_every=10, adam_iterations=200)


def reference_run_comparison(
    setup: BenchmarkSetup,
    seeds=tuple(range(15)),
    m: int = 50,
    n1: int = 40,
    threshold: float = 1e-3,
    iterations: int = 2500,
    eval_every: int = 25,
    adam_iterations: int = 800,
) -> ComparisonResult:
    """The serial paired-seed loop, as run_comparison was before its runs went to a process pool."""
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


@pytest.fixture(scope="module")
def small_setup():
    """A 200-sample two-cluster least-squares set-up, partitioned by KDE on the raw features (no t-SNE)."""
    raw = generate_clustered(200, 2, [[6.0, 6.0], [0.0, 0.0]], [0.9, 0.1], 1.0, seed=3)
    targets = raw.features @ np.ones(2) + 0.5 * np.random.default_rng(4).standard_normal(200)
    dataset = Dataset(features=raw.features, targets=targets[:, None])
    return BenchmarkSetup(
        dataset=dataset,
        partition=build_partition(kde_densities(raw.features), 0.3),
        model_spec=quadratic_constants(dataset),
        noisy_mask=np.zeros(200, dtype=bool),
    )


def refuse_pool(*args, **kwargs):
    raise AssertionError("a process pool was started")


@pytest.fixture(scope="module")
def reference(small_setup):
    return reference_run_comparison(small_setup, **SMALL)


def test_small_setup_mixes_reached_and_missed_runs(reference):
    reaches = [r for table in (reference.sgd_iterations, reference.adam_iterations) for v in table.values() for r in v]
    assert None in reaches and any(r is not None for r in reaches)


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_matches_the_serial_loop_bit_for_bit(small_setup, reference, cpus):
    with mock.patch.object(_parallel, "usable_cpus", lambda: cpus):
        assert run_comparison(small_setup, **SMALL) == reference
    assert not multiprocessing.active_children()


def test_one_cpu_starts_no_process(small_setup, reference):
    with mock.patch.object(_parallel, "usable_cpus", lambda: 1), \
            mock.patch.object(_parallel, "ProcessPoolExecutor", refuse_pool):
        assert run_comparison(small_setup, **SMALL) == reference


@dataclass(frozen=True)
class OverlappingScheme:
    """Duck-typed stratified scheme whose two strata share their members."""

    partition: object
    plan: object
    kind = "typicality"

    def strata(self, n_total):
        return ((self.partition.h_indices, self.plan.n1), (self.partition.h_indices, self.plan.n2))


def test_a_failing_run_stops_the_pool(small_setup, monkeypatch):
    monkeypatch.setattr(benchmark, "StratifiedScheme", OverlappingScheme)
    monkeypatch.setattr(_parallel, "usable_cpus", lambda: 2)
    with pytest.raises(InvalidArgumentError, match="overlap"):
        run_comparison(small_setup, **SMALL)
    assert not multiprocessing.active_children()

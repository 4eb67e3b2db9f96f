"""run_comparison on the process pool returns what the serial paired-seed loop returns, bit for bit."""

import multiprocessing
from dataclasses import dataclass
from unittest import mock

import numpy as np
import pytest

from typsgd import _parallel, benchmark, optimize
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
# above every run's starting suboptimality on small_setup: every reach is 0
ABOVE_EVERY_START = 1e6
THRESHOLDS = (SMALL["threshold"], ABOVE_EVERY_START)


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
def references(small_setup):
    """The serial loop's result at each of THRESHOLDS."""
    return {t: reference_run_comparison(small_setup, **{**SMALL, "threshold": t}) for t in THRESHOLDS}


@pytest.fixture(scope="module")
def reference(references):
    return references[SMALL["threshold"]]


def all_reaches(result):
    return [r for table in (result.sgd_iterations, result.adam_iterations) for v in table.values() for r in v]


def test_small_setup_mixes_reached_and_missed_runs(reference):
    reaches = all_reaches(reference)
    assert None in reaches and any(r is not None for r in reaches)


def test_a_threshold_above_every_start_is_reached_at_zero(references):
    assert set(all_reaches(references[ABOVE_EVERY_START])) == {0}


@pytest.mark.parametrize("threshold", THRESHOLDS)
@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_matches_the_serial_loop_bit_for_bit(small_setup, references, cpus, threshold):
    with mock.patch.object(_parallel, "usable_cpus", lambda: cpus):
        assert run_comparison(small_setup, **{**SMALL, "threshold": threshold}) == references[threshold]
    assert not multiprocessing.active_children()


@pytest.mark.parametrize("threshold", THRESHOLDS)
def test_each_run_stops_at_its_reach(small_setup, references, threshold, monkeypatch):
    # a run takes one step per iteration up to its reach; only a run that never reaches takes its whole budget
    steps = {"sgd": 0, "adam": 0}
    for kind in steps:
        original = getattr(optimize, f"{kind}_step")

        def counting(*args, kind=kind, original=original):
            steps[kind] += 1
            return original(*args)

        monkeypatch.setattr(optimize, f"{kind}_step", counting)
    monkeypatch.setattr(_parallel, "usable_cpus", lambda: 1)
    reference = references[threshold]
    assert run_comparison(small_setup, **{**SMALL, "threshold": threshold}) == reference
    runs = {
        "sgd": (reference.sgd_iterations, SMALL["iterations"]),
        "adam": (reference.adam_iterations, SMALL["adam_iterations"]),
    }
    assert steps == {
        kind: sum(budget if r is None else r for reaches in table.values() for r in reaches)
        for kind, (table, budget) in runs.items()
    }


def refuse_training(*args, **kwargs):
    raise AssertionError("a run was started")


def test_empty_seeds_are_refused_before_any_run(small_setup, monkeypatch):
    monkeypatch.setattr(_parallel, "map_processes", refuse_training)
    with pytest.raises(InvalidArgumentError, match="seed"):
        run_comparison(small_setup, **{**SMALL, "seeds": ()})


def test_repeated_seeds_are_refused_before_any_run(small_setup, monkeypatch):
    # a repeated seed's runs would count twice in every median
    monkeypatch.setattr(_parallel, "map_processes", refuse_training)
    with pytest.raises(InvalidArgumentError, match="seed"):
        run_comparison(small_setup, **{**SMALL, "seeds": (0, 1, 0)})


def test_seeds_are_read_once(small_setup, reference, monkeypatch):
    monkeypatch.setattr(_parallel, "usable_cpus", lambda: 1)
    result = run_comparison(small_setup, **{**SMALL, "seeds": iter(SMALL["seeds"])})
    assert result == reference and result.seeds == SMALL["seeds"]


@pytest.mark.parametrize("threshold", [float("nan"), float("inf"), -float("inf")])
def test_a_non_finite_threshold_is_refused_before_the_pool(small_setup, threshold, monkeypatch):
    monkeypatch.setattr(_parallel, "map_processes", refuse_training)
    with pytest.raises(InvalidArgumentError, match="threshold"):
        run_comparison(small_setup, **{**SMALL, "threshold": threshold})


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

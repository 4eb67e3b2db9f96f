import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from typsgd.analysis import (
    build_error_report,
    enumerate_error,
    monte_carlo_error,
    optimal_beta,
    srs_error_formula,
    convergence_rate_factor,
    compare_error_expectations,
    typicality_error_corrected,
    typicality_error_formula_published,
)
from typsgd.errors import CapabilityError, InvalidArgumentError
from typsgd.models import GradientFamily, ModelSpec
from typsgd.sampling import SrsScheme, StratifiedScheme, make_plan, plan_beta
from typsgd.verify import (
    random_gradient_family,
    random_partition,
    random_plan,
    representative_h_instance,
    two_strata_family,
    zero_sum_instance,
)


def brute_force_expectation(grads, scheme):
    """Independent oracle: explicit probability-weighted double loop."""
    rows, ref = grads.per_sample, grads.reference
    if isinstance(scheme, SrsScheme):
        batches = list(itertools.combinations(range(rows.shape[0]), scheme.m))
    else:
        part, plan = scheme.partition, scheme.plan
        batches = [
            h + l
            for h in itertools.combinations(part.h_indices.tolist(), plan.n1)
            for l in itertools.combinations(part.l_indices.tolist(), plan.n2)
        ]
    total = 0.0
    for batch in batches:
        est = sum(rows[i] for i in batch) / len(batch)
        total += float(np.sum((est - ref) ** 2))
    return total / len(batches)


class TestEnumeration:
    def test_single_batch_case(self):
        grads = GradientFamily(per_sample=np.array([[1.0], [3.0]]), reference=np.array([1.5]))
        assert enumerate_error(grads, SrsScheme(m=2)) == pytest.approx(0.25)

    def test_against_independent_brute_force(self, rng):
        for _ in range(25):
            grads = random_gradient_family(rng, max_n=8)
            m = int(rng.integers(1, grads.n_samples + 1))
            scheme = SrsScheme(m=m)
            assert enumerate_error(grads, scheme) == pytest.approx(
                brute_force_expectation(grads, scheme), abs=1e-12
            )
        for _ in range(25):
            grads = random_gradient_family(rng, max_n=8, min_n=5)
            part = random_partition(rng, grads.n_samples)
            scheme = StratifiedScheme(part, random_plan(rng, part))
            assert enumerate_error(grads, scheme) == pytest.approx(
                brute_force_expectation(grads, scheme), abs=1e-12
            )

    def test_budget_guard(self, rng):
        grads = GradientFamily(per_sample=rng.normal(size=(40, 1)), reference=np.zeros(1))
        with pytest.raises(CapabilityError, match="monte_carlo"):
            enumerate_error(grads, SrsScheme(m=20), budget=1000)

    def test_stratified_full_draw(self, rng):
        grads, part = two_strata_family(rng.normal(size=(3, 2)), rng.normal(size=(4, 2)), rng.normal(size=2))
        plan = make_plan(7, 3, part)
        expected = float(np.sum((grads.per_sample.mean(axis=0) - grads.reference) ** 2))
        assert enumerate_error(grads, StratifiedScheme(part, plan)) == pytest.approx(expected)


class TestSrsFormula:
    def test_full_batch_is_exact(self, rng):
        grads = random_gradient_family(rng)
        assert srs_error_formula(grads, grads.n_samples) == 0.0

    def test_four_point_example(self):
        grads = GradientFamily(per_sample=np.array([[1.0], [2.0], [3.0], [4.0]]), reference=np.array([2.5]))
        assert srs_error_formula(grads, 2) == pytest.approx(5 / 12, abs=1e-12)
        assert enumerate_error(grads, SrsScheme(m=2)) == pytest.approx(5 / 12, abs=1e-12)

    def test_zero_variance(self):
        grads = GradientFamily(per_sample=np.ones((5, 2)), reference=np.ones(2))
        for m in range(1, 6):
            assert srs_error_formula(grads, m) == 0.0

    def test_bad_batch_size(self, rng):
        grads = random_gradient_family(rng)
        with pytest.raises(InvalidArgumentError):
            srs_error_formula(grads, grads.n_samples + 1)


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_srs_formula_equals_enumeration(seed):
    rng = np.random.default_rng(seed)
    rows = random_gradient_family(rng, max_n=9).per_sample
    # a reference away from the mean, so the formula's bias term is exercised
    grads = GradientFamily(per_sample=rows, reference=rng.normal(0.0, 1.0, rows.shape[1]))
    m = int(rng.integers(1, grads.n_samples + 1))
    assert abs(srs_error_formula(grads, m) - enumerate_error(grads, SrsScheme(m=m))) <= 1e-9


class TestStratifiedFormulas:
    def test_zero_sum_regime_example(self):
        grads, part = two_strata_family([[1.0], [-1.0]], [[2.0], [-2.0]], [0.0])
        plan = make_plan(2, 1, part)
        scheme = StratifiedScheme(part, plan)
        assert typicality_error_formula_published(grads, part, plan) == pytest.approx(1.25, abs=1e-12)
        assert typicality_error_corrected(grads, part, plan) == pytest.approx(1.25, abs=1e-12)
        assert enumerate_error(grads, scheme) == pytest.approx(1.25, abs=1e-12)

    def test_documented_divergence_case(self):
        # outside the zero-sum regime the published identity overshoots:
        # 3.5 against the exact 2.5
        grads, part = two_strata_family([[3.0], [5.0]], [[3.0], [-3.0]], [2.0])
        plan = make_plan(2, 1, part)
        assert typicality_error_formula_published(grads, part, plan) == pytest.approx(3.5, abs=1e-12)
        assert enumerate_error(grads, StratifiedScheme(part, plan)) == pytest.approx(2.5, abs=1e-12)
        assert typicality_error_corrected(grads, part, plan) == pytest.approx(2.5, abs=1e-12)

    def test_all_zero_gradients(self):
        grads, part = two_strata_family(np.zeros((2, 1)), np.zeros((2, 1)), [0.0])
        plan = make_plan(2, 1, part)
        assert typicality_error_formula_published(grads, part, plan) == 0.0

    def test_rows_equal_reference_unbiased_plan(self):
        ref = np.array([2.0, -1.0])
        grads, part = two_strata_family(np.tile(ref, (3, 1)), np.tile(ref, (3, 1)), ref)
        plan = make_plan(2, 1, part)  # beta = 1 for equal strata
        assert plan_beta(plan, part) == pytest.approx(1.0)
        assert typicality_error_corrected(grads, part, plan) == pytest.approx(0.0, abs=1e-15)

    def test_corrected_equals_enumeration_on_random_instances(self, rng):
        for _ in range(60):
            grads = random_gradient_family(rng, min_n=5)
            part = random_partition(rng, grads.n_samples)
            plan = random_plan(rng, part)
            got = typicality_error_corrected(grads, part, plan)
            want = enumerate_error(grads, StratifiedScheme(part, plan))
            assert abs(got - want) <= 1e-9

    def test_paper_formula_exact_in_zero_sum_regime(self, rng):
        for _ in range(40):
            grads, part, plan = zero_sum_instance(rng)
            got = typicality_error_formula_published(grads, part, plan)
            want = enumerate_error(grads, StratifiedScheme(part, plan))
            assert abs(got - want) <= 1e-9

    def test_small_strata_rejected(self):
        grads, part = two_strata_family([[1.0], [2.0]], [[0.0]], [1.0])
        with pytest.raises(InvalidArgumentError):
            typicality_error_formula_published(grads, part, make_plan(2, 1, part))


class TestMonteCarlo:
    def test_zero_variance_gives_exact_bias(self):
        ref = np.array([1.0])
        grads = GradientFamily(per_sample=np.full((6, 1), 3.0), reference=ref)
        est, se = monte_carlo_error(grads, SrsScheme(m=2), draws=200, seed=0)
        assert est == pytest.approx(4.0) and se == 0.0

    def test_agrees_with_enumeration(self, rng):
        grads = GradientFamily(per_sample=rng.normal(size=(10, 2)), reference=rng.normal(size=2))
        exact = enumerate_error(grads, SrsScheme(m=3))
        hits = 0
        for seed in range(100):
            est, se = monte_carlo_error(grads, SrsScheme(m=3), draws=400, seed=seed)
            hits += abs(est - exact) <= 4 * se
        assert hits >= 99

    def test_deterministic_per_seed(self, rng):
        grads = GradientFamily(per_sample=rng.normal(size=(8, 1)), reference=np.zeros(1))
        a = monte_carlo_error(grads, SrsScheme(m=2), draws=300, seed=7)
        b = monte_carlo_error(grads, SrsScheme(m=2), draws=300, seed=7)
        assert a == b


class TestRateFactor:
    def test_full_draw_specialization(self):
        spec = ModelSpec(lipschitz_L=2.0, strong_convexity_mu=0.5, growth_bound_beta2=3.0)
        grads, part = two_strata_family(np.zeros((4, 1)), np.zeros((4, 1)), [0.0])
        plan = make_plan(8, 4, part)  # n1 = N1, n2 = N2, beta = 1
        result = convergence_rate_factor(spec, part, plan)
        assert result.factor == pytest.approx(1 - 0.25)
        assert result.noise_terms == 0.0

    def test_isotropic_full_draw_hits_zero(self):
        spec = ModelSpec(lipschitz_L=1.0, strong_convexity_mu=1.0, growth_bound_beta2=1.0)
        grads, part = two_strata_family(np.zeros((3, 1)), np.zeros((3, 1)), [0.0])
        result = convergence_rate_factor(spec, part, make_plan(6, 3, part))
        assert result.factor == pytest.approx(0.0, abs=1e-15)

    def test_frozen_arithmetic_case(self):
        # mu/L = 0.1, N1=40, N2=60, m=50, n1=40, n2=10, beta2=2 -> 1.905
        spec = ModelSpec(lipschitz_L=1.0, strong_convexity_mu=0.1, growth_bound_beta2=2.0)
        grads, part = two_strata_family(np.zeros((40, 1)), np.zeros((60, 1)), [0.0])
        plan = make_plan(50, 40, part)
        result = convergence_rate_factor(spec, part, plan)
        assert result.factor == pytest.approx(1.905, abs=1e-12)
        assert not result.m_large_enough

    def test_missing_constants(self):
        spec = ModelSpec(lipschitz_L=1.0)
        grads, part = two_strata_family(np.zeros((2, 1)), np.zeros((2, 1)), [0.0])
        with pytest.raises(CapabilityError):
            convergence_rate_factor(spec, part, make_plan(4, 2, part))


class TestTheorem2:
    def test_pure_noise_l_stratum(self, rng):
        for seed in range(20):
            grads, part, plan = representative_h_instance(np.random.default_rng(seed))
            result = compare_error_expectations(grads, part, plan)
            assert result.holds, seed

    def test_proportional_identical_strata(self):
        # H and L hold the same values; proportional allocation is unbiased,
        # and the exact ratio is (N-1)/(N-2) from the finite-population
        # dispersion identity, approximately 1
        values = np.array([[0.0], [1.0], [2.0], [-1.0], [0.5], [3.0]])
        grads, part = two_strata_family(values, values, values.mean(axis=0))
        plan = make_plan(4, 2, part)  # n1/N1 = n2/N2 = m/N = 1/3
        result = compare_error_expectations(grads, part, plan)
        n = grads.n_samples
        assert result.alpha == pytest.approx((n - 1) / (n - 2), abs=1e-9)
        assert abs(result.alpha - 1.0) <= 0.11

    def test_degenerate_convention(self):
        ref = np.array([1.0, 1.0])
        grads, part = two_strata_family(np.tile(ref, (3, 1)), np.tile(ref, (3, 1)), ref)
        result = compare_error_expectations(grads, part, make_plan(4, 2, part))
        assert result.mse_srs == 0.0 and result.alpha == 1.0 and result.holds


class TestOptimalBeta:
    def test_frozen_value_small_m(self):
        # high-precision evaluation of the printed expression at m = 1
        assert optimal_beta(1) == pytest.approx(0.43550842781223319827, abs=1e-12)

    def test_positive_and_finite(self):
        values = [optimal_beta(m) for m in (1, 2, 5, 10, 100, 1000, 10_000)]
        assert all(np.isfinite(v) and v > 0 for v in values)
        assert values[-1] == pytest.approx(1.0, abs=1e-3)

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidArgumentError):
            optimal_beta(0)


def test_error_report_shows_both_formulas(rng):
    grads = random_gradient_family(rng, min_n=6)
    part = random_partition(rng, grads.n_samples)
    plan = random_plan(rng, part)
    report = build_error_report(grads, part, plan, mc_draws=200, seed=1)
    assert report.mse_enumerated is not None
    assert abs(report.mse_strat_corrected - report.mse_enumerated) <= 1e-9
    assert report.mse_monte_carlo is not None
    line = report.to_json(instance=0, scheme="stratified", m=plan.m, n1=plan.n1, n2=plan.n2)
    assert '"mse_strat_published"' in line and '"instance": 0' in line

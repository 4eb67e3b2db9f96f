import itertools
import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from typsgd import analysis, sampling
from typsgd.analysis import (
    _combination_sums,
    build_error_report,
    enumerate_error,
    monte_carlo_error,
    optimal_beta,
    srs_error_formula,
    convergence_rate_factor,
    compare_error_expectations,
    oracle_path,
    typicality_error_corrected,
    typicality_error_formula_published,
)
from typsgd.density import Partition
from typsgd.errors import CapabilityError, InvalidArgumentError
from typsgd.models import GradientFamily, ModelSpec
from typsgd.sampling import SrsScheme, StratifiedScheme, make_plan, plan_beta, resolve_strata
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


def reference_combination_sums(rows: np.ndarray, k: int) -> np.ndarray:
    idx = np.array(list(combinations(range(rows.shape[0]), k)), dtype=np.int32)
    out = np.zeros((idx.shape[0], rows.shape[1]))
    for j in range(k):  # k gathers of (C, d) keep memory flat
        out += rows[idx[:, j]]
    return out


def order_sensitive_rows(n, d, seed=0):
    """Rows of random sign spread over 16 decades, with signed zeros, whose float sums depend on the order of the additions."""
    gen = np.random.default_rng(seed)
    rows = gen.choice([-1.0, 1.0], (n, d)) * gen.uniform(0.0, 1.0, (n, d)) * 10.0 ** gen.integers(-8, 8, (n, d))
    rows[gen.random((n, d)) < 0.1] = -0.0
    return rows


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestCombinationSums:
    @pytest.mark.parametrize("n", range(1, 15))
    def test_same_bytes_as_reference(self, n):
        for k in range(1, n + 1):
            for d in (1, 3):
                rows = order_sensitive_rows(n, d, seed=100 * n + k)
                got = _combination_sums(rows, k)
                want = reference_combination_sums(rows, k)
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()

    @given(st.integers(1, 12), st.integers(1, 12), st.integers(1, 4), st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_same_bytes_as_reference_hypothesis(self, n, k, d, seed):
        k = min(k, n)
        rows = order_sensitive_rows(n, d, seed)
        assert _combination_sums(rows, k).tobytes() == reference_combination_sums(rows, k).tobytes()

    @pytest.mark.parametrize("n,k", [(1, 1), (5, 2), (9, 4), (12, 12), (13, 6)])
    def test_rows_in_combinations_order(self, n, k):
        # row i is 2^i, so each sum names its subset exactly
        rows = 2.0 ** np.arange(n)[:, None]
        want = [sum(2**i for i in subset) for subset in combinations(range(n), k)]
        assert _combination_sums(rows, k)[:, 0].tolist() == want

    @pytest.mark.parametrize("k", [4, 8, 11, 16])
    def test_peak_memory_below_reference(self, k):
        rows = order_sensitive_rows(22, 2)
        peak = traced_peak(_combination_sums, rows, k)
        assert peak < traced_peak(reference_combination_sums, rows, k)
        assert peak < 6 * math.comb(22, k) * 2 * 8


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

    def test_budget_guard(self, rng, monkeypatch):
        monkeypatch.setattr(analysis, "ENUMERATION_BUDGET", 1000)
        grads = GradientFamily(per_sample=rng.normal(size=(40, 1)), reference=np.zeros(1))
        with pytest.raises(CapabilityError, match="monte_carlo"):
            enumerate_error(grads, SrsScheme(m=20))

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

    def test_one_member_stratum_equals_enumeration(self):
        # drawing the whole of a one-member H leaves no variance term, so no dispersion of it is needed
        rows = np.random.default_rng(0).normal(size=(10, 2))
        grads, part = two_strata_family(rows[:1], rows[1:], rows.mean(axis=0))
        plan = make_plan(3, 1, part)
        want = enumerate_error(grads, StratifiedScheme(part, plan))
        assert want == pytest.approx(0.3112, abs=1e-4)
        assert abs(typicality_error_corrected(grads, part, plan) - want) <= 1e-9

    def test_srs_of_one_sample_equals_enumeration(self):
        grads = GradientFamily(per_sample=np.array([[1.0, -2.0]]), reference=np.array([0.5, 0.5]))
        want = enumerate_error(grads, SrsScheme(m=1))
        assert want == pytest.approx(0.25 + 6.25)
        assert abs(srs_error_formula(grads, 1) - want) <= 1e-9

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


def choice_means(rows, strata, draws, rng):
    """The per-batch loop that draws and sums in blocks replace: one ``rng.choice`` per stratum and batch."""
    m = sum(draws_h for _, draws_h in strata)
    means = np.empty((draws, rows.shape[1]))
    for t in range(draws):
        idx = np.concatenate([members[rng.choice(members.shape[0], size=k, replace=False)] for members, k in strata])
        means[t] = rows[idx].sum(axis=0) / m
    return means


def choice_monte_carlo_error(grads, scheme, draws, seed):
    """monte_carlo_error as a per-batch loop: each squared error is ``diff @ diff``."""
    rows = grads.per_sample
    diffs = choice_means(rows, resolve_strata(scheme, rows.shape[0]), draws, np.random.default_rng(seed))
    sq_errors = np.array([diff @ diff for diff in diffs - grads.reference])
    return float(np.mean(sq_errors)), float(np.std(sq_errors, ddof=1) / math.sqrt(draws))


class TestDrawnInBlocks:
    # m below and above numpy's 8-wide unrolled sum; 101 draws fill no block of 7 or 12 exactly
    @pytest.fixture(params=[7, 12, None], ids=["7_per_block", "12_per_block", "default_blocks"])
    def rows_per_block(self, request, monkeypatch):
        if request.param is not None:
            monkeypatch.setattr(sampling, "block_size", lambda strata, row_bytes: request.param)

    @staticmethod
    def instance(d, m):
        rows = order_sensitive_rows(30, d, seed=d * 100 + m)
        h = np.arange(0, 30, 3)
        part = Partition(h_indices=h, l_indices=np.setdiff1d(np.arange(30), h), gamma=1 / 3)
        stratified = StratifiedScheme(part, make_plan(m, min(max(1, 2 * m // 3), 10), part))
        return rows, (SrsScheme(m=m), stratified)

    @pytest.mark.parametrize("m", [2, 7, 9, 20])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_drawn_means_are_the_per_batch_loops(self, rows_per_block, d, m):
        rows, schemes = self.instance(d, m)
        for scheme in schemes:
            strata = resolve_strata(scheme, 30)
            got_rng, want_rng = np.random.default_rng(m), np.random.default_rng(m)
            got = analysis.drawn_means(rows, strata, 101, got_rng)
            assert np.array_equal(got, choice_means(rows, strata, 101, want_rng)), scheme.kind
            assert got_rng.bit_generator.state == want_rng.bit_generator.state

    @pytest.mark.parametrize("m", [2, 7, 9, 20])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_monte_carlo_error_is_the_per_batch_loops(self, rows_per_block, d, m):
        rows, schemes = self.instance(d, m)
        grads = GradientFamily(per_sample=rows, reference=rows[:3].mean(axis=0))
        for scheme in schemes:
            assert monte_carlo_error(grads, scheme, 101, seed=d) == choice_monte_carlo_error(grads, scheme, 101, d)


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
    report = build_error_report(grads, part, plan)
    assert report.mse_enumerated is not None
    assert abs(report.mse_strat_corrected - report.mse_enumerated) <= 1e-9
    line = report.to_json(instance=0, scheme="stratified", m=plan.m, n1=plan.n1, n2=plan.n2)
    assert '"mse_strat_published"' in line and '"instance": 0' in line


# The enumerate-or-sample rule at its boundary: SRS m = 4 of 10 samples has
# C(10, 4) = 210 batches, the H/L scheme 2 of 4 and 2 of 6 has 6 * 15 = 90.
SRS_SPACE, STRAT_SPACE = 210, 90


def boundary_instance():
    rows = np.random.default_rng(3).normal(size=(10, 2))
    grads, part = two_strata_family(rows[:4], rows[4:], rows.mean(axis=0))
    return grads, part, make_plan(4, 2, part)


def expected_by_path(grads, scheme, path, mc_draws, seed):
    if path == "enumeration":
        return enumerate_error(grads, scheme)
    return monte_carlo_error(grads, scheme, draws=mc_draws, seed=seed)[0]


class TestOraclePath:
    @pytest.mark.parametrize("stratified, space", [(False, SRS_SPACE), (True, STRAT_SPACE)])
    def test_enumerates_up_to_the_budget_and_samples_beyond(self, monkeypatch, stratified, space):
        grads, part, plan = boundary_instance()
        scheme = StratifiedScheme(part, plan) if stratified else SrsScheme(m=plan.m)
        monkeypatch.setattr(analysis, "ENUMERATION_BUDGET", space)
        assert oracle_path(scheme, grads.n_samples) == ("enumeration", space)
        assert enumerate_error(grads, scheme) == pytest.approx(brute_force_expectation(grads, scheme))
        monkeypatch.setattr(analysis, "ENUMERATION_BUDGET", space - 1)
        assert oracle_path(scheme, grads.n_samples) == ("monte_carlo", space)
        with pytest.raises(CapabilityError, match=f"{space} batches exceed the enumeration budget {space - 1}"):
            enumerate_error(grads, scheme)

    @pytest.mark.parametrize(
        "budget, paths",
        [
            (SRS_SPACE, ("enumeration", "enumeration")),
            (SRS_SPACE - 1, ("monte_carlo", "enumeration")),
            (STRAT_SPACE, ("monte_carlo", "enumeration")),
            (STRAT_SPACE - 1, ("monte_carlo", "monte_carlo")),
        ],
    )
    def test_comparison_names_the_path_of_each_value(self, monkeypatch, budget, paths):
        grads, part, plan = boundary_instance()
        monkeypatch.setattr(analysis, "ENUMERATION_BUDGET", budget)
        result = compare_error_expectations(grads, part, plan, mc_draws=300, seed=5)
        assert result.paths == paths
        srs_path, strat_path = paths
        # each value is exactly what its named oracle gives: a Monte-Carlo value
        # is the mean of mc_draws batches drawn with the comparison's seed
        assert result.mse_srs == expected_by_path(grads, SrsScheme(m=plan.m), srs_path, 300, 5)
        assert result.mse_strat == expected_by_path(grads, StratifiedScheme(part, plan), strat_path, 300, 5)
        assert result.alpha == result.mse_strat / result.mse_srs
        assert result.holds == (result.mse_strat <= result.mse_srs)

    @pytest.mark.parametrize("budget, enumerated", [(STRAT_SPACE, True), (STRAT_SPACE - 1, False)])
    def test_error_report_reads_the_budget_at_call_time(self, monkeypatch, budget, enumerated):
        grads, part, plan = boundary_instance()
        monkeypatch.setattr(analysis, "ENUMERATION_BUDGET", budget)
        # the comparison inside samples 100 000 batches per Monte-Carlo path; a stand-in keeps this fast
        asked = []

        def stand_in(grads, scheme, draws, seed):
            asked.append(draws)
            return 1.0, 0.0

        monkeypatch.setattr(analysis, "monte_carlo_error", stand_in)
        report = build_error_report(grads, part, plan)
        if enumerated:
            assert abs(report.mse_enumerated - report.mse_strat_corrected) <= 1e-9
        else:
            assert report.mse_enumerated is None and report.alpha == 1.0
        # the SRS space exceeds both budgets, so the comparison samples SRS batches in both cases
        mc_paths = 1 if enumerated else 2
        assert asked == [100_000] * mc_paths

    def test_comparison_reaches_both_oracles_by_module_name(self, monkeypatch):
        # span tracers bind wrappers to analysis.enumerate_error and
        # analysis.monte_carlo_error by name; a comparison that called past
        # them would leave analysis.enumerate_s, monte_carlo_s and mc_draws at 0
        calls = {"enumerate_error": [], "monte_carlo_error": []}

        def counting(name):
            original = getattr(analysis, name)

            def wrapper(*args, **kwargs):
                calls[name].append(kwargs.get("draws"))
                return original(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(analysis, name, counting(name))
        grads, part, plan = boundary_instance()
        monkeypatch.setattr(analysis, "ENUMERATION_BUDGET", SRS_SPACE - 1)
        assert compare_error_expectations(grads, part, plan, mc_draws=300).paths == (
            "monte_carlo",
            "enumeration",
        )
        assert calls == {"enumerate_error": [None], "monte_carlo_error": [300]}
        monkeypatch.setattr(analysis, "ENUMERATION_BUDGET", STRAT_SPACE - 1)
        compare_error_expectations(grads, part, plan, mc_draws=300)
        assert calls == {"enumerate_error": [None], "monte_carlo_error": [300, 300, 300]}

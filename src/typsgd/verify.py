"""Self-verifying oracle suite: formulas against enumeration, bounds against runs.

Every check either ASSERTS a property the package guarantees (formula =
enumeration to 1e-9, descent recursion along a real path, bound
specializations, sampler inclusion probabilities, pipeline calibration) or
REPORTS a quantity the analysis deliberately does not promise (the
stratified-vs-SRS improvement ratio distribution, monotonicity of the
optimal bias factor). The CLI `verify` subcommand exits nonzero iff an
asserted check fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from ._parallel import map_processes
from .analysis import (
    build_error_report,
    enumerate_error,
    optimal_beta,
    srs_error_formula,
    convergence_rate_factor,
    compare_error_expectations,
    descent_recursion_check,
    typicality_error_corrected,
    typicality_error_formula_published,
)
from .data import Dataset, generate_clustered
from .density import Partition, build_partition, kde_densities, kde_evaluate
from .embedding import conditional_affinities, pairwise_sq_distances, tsne_embed
from .errors import InvalidArgumentError
from .models import (
    ConvCurveModel,
    GradientFamily,
    LogisticModel,
    MlpModel,
    QuadraticModel,
    _targets_for,
    estimate_growth_bounds,
    gradient_family,
    mean_loss,
    per_sample_gradients,
    quadratic_constants,
)
from .optimize import Sgd, train
from .sampling import (
    BatchPlan,
    SrsScheme,
    StratifiedScheme,
    draw_batches,
    make_plan,
    resolve_strata,
)

FORMULA_TOL = 1e-9
INCLUSION_DRAWS = 20_000  # batches drawn by each inclusion-frequency check
TARGET_NOISE = 0.3  # observation noise of quadratic_instance's targets
FD_PROBES = 20  # random (theta, sample) probes per model of the finite-difference check
MAJORITY_SEEDS = (0, 1)  # data and t-SNE seeds of the density-majority check
MAJORITY_N = 200  # samples per density-majority dataset


@dataclass(frozen=True)
class CheckResult:
    name: str
    kind: str  # "ASSERTED" or "REPORTED"
    passed: bool | None  # None for REPORTED
    detail: str


# ---------------------------------------------------------------------------
# instance families
# ---------------------------------------------------------------------------


def random_gradient_family(rng, max_n: int = 12, max_d: int = 3, min_n: int = 4) -> GradientFamily:
    """Random per-sample gradients with the mean as reference."""
    n = int(rng.integers(min_n, max_n + 1))
    d = int(rng.integers(1, max_d + 1))
    rows = rng.normal(0.0, 1.0, (n, d))
    return GradientFamily(per_sample=rows, reference=rows.mean(axis=0))


def random_partition(rng, n: int) -> Partition:
    """Random two-stratum split with both sizes >= 2 and gamma < 0.8."""
    hi = min(n - 2, max(2, int(0.79 * n)))
    n1 = int(rng.integers(2, hi + 1))
    h = np.sort(rng.choice(n, size=n1, replace=False))
    l = np.setdiff1d(np.arange(n), h)
    return Partition(h_indices=h, l_indices=l, gamma=n1 / n)


def random_plan(rng, partition: Partition) -> BatchPlan:
    """A uniformly chosen feasible plan for the partition."""
    n1_pop, n2_pop = partition.n1, partition.n2
    feasible = [
        (m, n1)
        for m in range(2, n1_pop + n2_pop + 1)
        for n1 in range(max(1, m - n2_pop), min(n1_pop, m - 1) + 1)
        if n1 * n2_pop >= (m - n1) * n1_pop
    ]
    m, n1 = feasible[int(rng.integers(len(feasible)))]
    return make_plan(m, n1, partition)


def leading_partition(n1: int, n: int) -> Partition:
    """H = {0..n1-1} and L = {n1..n-1}."""
    return Partition(h_indices=np.arange(n1), l_indices=np.arange(n1, n), gamma=n1 / n)


def leading_scheme(n1_pop: int, n: int, m: int, n1: int) -> StratifiedScheme:
    """The plan (m, n1) on the leading partition of n ids with N1 = n1_pop."""
    return StratifiedScheme(partition=leading_partition(n1_pop, n), plan=BatchPlan(m=m, n1=n1))


def two_strata_family(h_rows, l_rows, reference):
    """Gradient family + partition with H occupying the leading indices."""
    h_rows = np.atleast_2d(np.asarray(h_rows, dtype=np.float64))
    l_rows = np.atleast_2d(np.asarray(l_rows, dtype=np.float64))
    rows = np.vstack([h_rows, l_rows])
    grads = GradientFamily(per_sample=rows, reference=np.asarray(reference, dtype=np.float64))
    return grads, leading_partition(h_rows.shape[0], rows.shape[0])


def zero_sum_instance(rng):
    """Both stratum gradient sums vanish and the reference is zero."""
    d = int(rng.integers(1, 4))
    n1_pop = int(rng.integers(2, 6))
    n2_pop = int(rng.integers(2, 7))
    h = rng.normal(0.0, 1.0, (n1_pop, d))
    l = rng.normal(0.0, 1.5, (n2_pop, d))
    grads, partition = two_strata_family(h - h.mean(axis=0), l - l.mean(axis=0), np.zeros(d))
    return grads, partition, random_plan(rng, partition)


def representative_h_instance(rng):
    """H reproduces the total gradient exactly; L is centered white noise.

    This is the regime where stratified sampling is supposed to beat SRS:
    the true gradient is small (late-training signal-to-noise ratio), the L
    stratum contributes large zero-sum noise, and the plan oversamples H at
    the recommended 80/20 batch split. Undersampling L is what removes most
    of its noise from the batch mean; the price is the small (beta - 1)
    bias, negligible while the true gradient is small.
    """
    d = int(rng.integers(1, 4))
    m = int(rng.integers(5, 9))
    n1 = round(0.8 * m)  # the recommended batch split
    n2 = m - n1
    n1_pop = n1 + int(rng.integers(1, 4))
    n2_pop = max(n1_pop, 4 * n2 + int(rng.integers(0, 5)))
    n = n1_pop + n2_pop
    grad_mean = rng.normal(0.0, 0.05, d)
    h = rng.normal(0.0, 0.25, (n1_pop, d))
    h = h - h.mean(axis=0) + (n / n1_pop) * grad_mean  # sum_H = n * grad_mean
    l = rng.normal(0.0, 1.5, (n2_pop, d))
    l = l - l.mean(axis=0)  # sum_L = 0
    grads, partition = two_strata_family(h, l, grad_mean)
    # n1/N1 >= 4/7 > n2/N2 <= 1/4 by construction, so the plan is feasible
    return grads, partition, make_plan(m, n1, partition)


def quadratic_instance(rng, n: int = 40, d: int = 3):
    """Well-conditioned random least-squares problem with exact constants."""
    x = rng.normal(0.0, 1.0, (n, d)) + 0.2
    w_true = rng.normal(0.0, 1.0, d)
    y = x @ w_true + TARGET_NOISE * rng.normal(0.0, 1.0, n)
    dataset = Dataset(features=x, targets=y[:, None])
    return dataset, quadratic_constants(dataset)


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------


def _srs_instance(rng):
    grads = random_gradient_family(rng)
    return grads, SrsScheme(m=int(rng.integers(1, grads.n_samples + 1)))


def _stratified_instance(rng):
    grads = random_gradient_family(rng, min_n=5)
    partition = random_partition(rng, grads.n_samples)
    return grads, StratifiedScheme(partition=partition, plan=random_plan(rng, partition))


def _zero_sum_scheme(rng):
    grads, partition, plan = zero_sum_instance(rng)
    return grads, StratifiedScheme(partition=partition, plan=plan)


def check_formula(rng, instances, name, label, draw_instance, formula, noun="instances") -> CheckResult:
    """A closed form against enumeration: the worst gap over drawn instances.

    ``draw_instance(rng)`` gives a (grads, scheme) pair and ``formula(grads,
    scheme)`` its closed-form error; ``label`` and ``noun`` name the formula
    and the instances in the detail.
    """
    worst = 0.0
    for _ in range(instances):
        grads, scheme = draw_instance(rng)
        worst = max(worst, abs(formula(grads, scheme) - enumerate_error(grads, scheme)))
    detail = f"max |{label} - enumeration| = {worst:.3e} over {instances} {noun}"
    return CheckResult(name, "ASSERTED", worst <= FORMULA_TOL, detail)


def check_published_divergence() -> CheckResult:
    # frozen instance outside the zero-sum regime: the published identity
    # reads 3.5 where the exact expectation is 2.5
    grads, partition = two_strata_family([[3.0], [5.0]], [[3.0], [-3.0]], [2.0])
    plan = make_plan(2, 1, partition)
    formula = typicality_error_formula_published(grads, partition, plan)
    exact = enumerate_error(grads, StratifiedScheme(partition=partition, plan=plan))
    corrected = typicality_error_corrected(grads, partition, plan)
    ok = abs(formula - 3.5) <= 1e-12 and abs(exact - 2.5) <= 1e-12 and abs(corrected - 2.5) <= 1e-12
    return CheckResult(
        "published_formula_divergence_case",
        "ASSERTED",
        ok,
        f"published formula = {formula}, enumeration = {exact}, corrected = {corrected}",
    )


def check_recursion(rng, scheme) -> CheckResult:
    """The descent recursion at the first 30 states of an SGD path of ``scheme`` on an 8-sample quadratic."""
    dataset, spec = quadratic_instance(rng, n=8, d=2)
    theta0 = spec.exact_minimizer + rng.normal(0.0, 2.0, 2)
    report = descent_recursion_check(dataset, scheme, spec, k_steps=30, seed=7, theta0=theta0)
    margin = min(s.rhs - s.lhs for s in report.steps)
    return CheckResult(
        f"descent_recursion_{scheme.kind}",
        "ASSERTED",
        report.holds_all,
        f"{len(report.steps)} closed-form steps, min slack rhs - lhs = {margin:.3e}",
    )


def check_rate_specialization(rng) -> CheckResult:
    dataset, spec = quadratic_instance(rng, n=20, d=2)
    scheme = leading_scheme(10, 20, m=20, n1=10)  # n1 = N1, n2 = N2: the full-draw batch
    factor = convergence_rate_factor(spec, scheme.partition, scheme.plan)
    model = QuadraticModel()
    theta0 = spec.exact_minimizer + rng.normal(0.0, 3.0, 2)
    trace = train(
        model,
        dataset,
        scheme,
        Sgd(eta=1.0 / spec.lipschitz_L),
        iterations=200,
        seed=3,
        eval_every=1,
        model_spec=spec,
        theta0=theta0,
    )
    gaps = [r.subopt for r in trace.records]
    contraction_ok = all(
        after <= factor.factor * before + 1e-9 for before, after in zip(gaps, gaps[1:])
    )
    exact_factor = abs(factor.factor - (1.0 - spec.strong_convexity_mu / spec.lipschitz_L)) <= 1e-15
    return CheckResult(
        "rate_factor_specialization",
        "ASSERTED",
        contraction_ok and exact_factor and factor.noise_terms == 0.0,
        f"factor = {factor.factor:.6f} = 1 - mu/L; 200 full-draw steps contract within it",
    )


def check_rate_arithmetic() -> CheckResult:
    # frozen arithmetic case: mu/L = 0.1, N1=40, N2=60, m=50, n1=40, n2=10,
    # beta2 = 2 -> beta = 2, noise = 0 + 0.005 + 1, factor = 1.905
    from .models import ModelSpec

    spec = ModelSpec(lipschitz_L=1.0, strong_convexity_mu=0.1, growth_bound_beta2=2.0)
    scheme = leading_scheme(40, 100, m=50, n1=40)
    result = convergence_rate_factor(spec, scheme.partition, scheme.plan)
    ok = abs(result.factor - 1.905) <= 1e-12 and result.m_large_enough is False
    return CheckResult(
        "rate_factor_arithmetic",
        "ASSERTED",
        ok,
        f"factor = {result.factor} (expected 1.905), noise terms = {result.noise_terms}",
    )


def check_scheme_comparison_family(rng, instances) -> tuple[CheckResult, CheckResult]:
    alphas = []
    holds = 0
    for _ in range(instances):
        grads, partition, plan = representative_h_instance(rng)
        result = compare_error_expectations(grads, partition, plan)
        holds += int(result.holds)
        alphas.append(result.alpha)
    alphas = np.array(alphas)
    frac = holds / instances
    asserted = CheckResult(
        "stratified_vs_srs_family",
        "ASSERTED",
        frac >= 0.95,
        f"stratified error <= SRS error on {holds}/{instances} representative-H instances",
    )
    reported = CheckResult(
        "alpha_distribution",
        "REPORTED",
        None,
        "alpha quantiles (min/median/max) = "
        f"{alphas.min():.4f}/{np.median(alphas):.4f}/{alphas.max():.4f}",
    )
    return asserted, reported


def check_optimal_beta() -> tuple[CheckResult, CheckResult]:
    values = np.array([optimal_beta(m) for m in range(1, 10_001)])
    ok = bool(np.all(np.isfinite(values)) and np.all(values > 0))
    asserted = CheckResult(
        "optimal_bias_sweep",
        "ASSERTED",
        ok,
        f"beta(m) positive and finite for m in [1, 1e4]; beta(1) = {values[0]:.12f}",
    )
    monotone = bool(np.all(np.diff(values) >= 0))
    reported = CheckResult(
        "optimal_bias_monotonic",
        "REPORTED",
        None,
        f"monotone nondecreasing over the sweep: {monotone}; limit approaches 1",
    )
    return asserted, reported


def _central_difference(model, dataset, theta, index, h=1e-5):
    """Central differences of sample ``index``'s loss, from ``losses`` on its one-row slice."""
    x = dataset.features[index : index + 1]
    y = _targets_for(model, dataset)[index : index + 1]
    grad = np.empty_like(theta)
    for j in range(theta.shape[0]):
        plus, minus = theta.copy(), theta.copy()
        plus[j] += h
        minus[j] -= h
        grad[j] = (model.losses(plus, x, y)[0] - model.losses(minus, x, y)[0]) / (2.0 * h)
    return grad


def gradient_check_models(rng):
    """Yield (model name, worst relative error) over FD_PROBES random probes.

    The analytic side is the batched gradient training runs
    (``per_sample_gradients``, non-finite check included).
    """
    n, d = 12, 4
    x = rng.normal(0.0, 1.0, (n, d))
    regress = Dataset(features=x, targets=(x @ rng.normal(0.0, 1.0, d))[:, None])
    labels = Dataset(features=x, targets=(x[:, 0] > 0).astype(float)[:, None])
    curves = Dataset(features=rng.normal(0.0, 1.0, (n, 10)), targets=rng.normal(0.0, 1.0, (n, 3)))
    cases = [
        (QuadraticModel(), regress),
        (LogisticModel(), labels),
        (MlpModel(hidden=5), regress),
        (ConvCurveModel(), curves),
    ]
    for model, dataset in cases:
        worst = 0.0
        for _ in range(FD_PROBES):
            theta = rng.normal(0.0, 0.5, model.param_dim(dataset))
            index = int(rng.integers(dataset.n_samples))
            analytic = per_sample_gradients(model, dataset, theta)[index]
            numeric = _central_difference(model, dataset, theta, index)
            scale = max(1.0, float(np.linalg.norm(analytic)), float(np.linalg.norm(numeric)))
            worst = max(worst, float(np.linalg.norm(analytic - numeric)) / scale)
        yield model.kind, worst


def check_gradients(rng) -> CheckResult:
    results = list(gradient_check_models(rng))
    worst = max(err for _, err in results)
    detail = ", ".join(f"{name}: {err:.2e}" for name, err in results)
    return CheckResult(
        "gradient_finite_difference",
        "ASSERTED",
        worst <= 1e-5,
        f"worst relative error per model: {detail}",
    )


def check_convexity_probes(rng) -> CheckResult:
    dataset, spec = quadratic_instance(rng, n=30, d=3)
    model = QuadraticModel()
    big_l, mu = spec.lipschitz_L, spec.strong_convexity_mu
    lipschitz_ok = convexity_ok = True
    for _ in range(100):
        a = rng.normal(0.0, 2.0, 3)
        b = rng.normal(0.0, 2.0, 3)
        ga, gb = gradient_family(model, dataset, a).reference, gradient_family(model, dataset, b).reference
        gap = float(np.linalg.norm(ga - gb))
        dist = float(np.linalg.norm(a - b))
        lipschitz_ok &= gap <= big_l * dist * (1.0 + 1e-9) + 1e-12
        ja, jb = mean_loss(model, dataset, a), mean_loss(model, dataset, b)
        lower = ja + float(ga @ (b - a)) + 0.5 * mu * dist**2
        convexity_ok &= jb >= lower - 1e-9 * max(1.0, abs(jb))
    return CheckResult(
        "smoothness_and_convexity_probes",
        "ASSERTED",
        bool(lipschitz_ok and convexity_ok),
        "Lipschitz and strong-convexity inequalities hold on 100 random pairs",
    )


def check_growth_bound(rng) -> CheckResult:
    dataset, spec = quadratic_instance(rng, n=30, d=3)
    model = QuadraticModel()
    beta1, beta2, probes = estimate_growth_bounds(model, dataset, spec.exact_minimizer)
    ok = True
    for theta in probes:
        family = gradient_family(model, dataset, theta)
        grads, full = family.per_sample, family.reference
        bound = beta1 + beta2 * float(full @ full)
        ok &= bool(np.max(np.sum(grads * grads, axis=1)) <= bound * (1.0 + 1e-9))
    return CheckResult(
        "growth_bound_probes",
        "ASSERTED",
        ok,
        f"recorded beta1 = {beta1:.4f}, beta2 = {beta2:.4f} cover every probe point",
    )


def check_inclusion(scheme, n_total: int, draw, seed: int) -> CheckResult:
    """Each member of stratum h turns up in ``draw(rng, count)`` batches at rate n_h/N_h, within 3 sigma.

    The strata come from ``resolve_strata(scheme, n_total)``; SRS is the
    one-stratum case with rate m/N. ``draw`` is the sampler under test; it
    returns ``count`` batches as blocks of ids, (rows, m) arrays with one
    batch per row, as :func:`draw_batches` yields them. It is called once,
    for INCLUSION_DRAWS batches, and each block's ids are counted with
    ``np.bincount``.
    """
    rng = np.random.default_rng(seed)
    counts = sum(np.bincount(block.ravel(), minlength=n_total) for block in draw(rng, INCLUSION_DRAWS))
    freq = counts / INCLUSION_DRAWS
    ok = True
    detail = []
    for members, draws in resolve_strata(scheme, n_total):
        target = draws / members.shape[0]
        sigma = np.sqrt(target * (1 - target) / INCLUSION_DRAWS)
        worst = float(np.max(np.abs(freq[members] - target)))
        ok &= worst <= 3 * sigma
        detail.append(f"target {target:.3f}: max dev {worst:.4f} (3 sigma = {3 * sigma:.4f})")
    return CheckResult(f"{scheme.kind}_inclusion_frequency", "ASSERTED", ok, "; ".join(detail))


def check_kde_normalization() -> CheckResult:
    rng = np.random.default_rng(5)
    points = rng.standard_normal((100, 2))
    dm = kde_densities(points, "scott")
    axis = np.arange(-6.0, 6.0 + 0.025, 0.05)
    grid = np.stack(np.meshgrid(axis, axis), axis=-1).reshape(-1, 2)
    integral = float(np.sum(kde_evaluate(points, grid, dm.bandwidth)) * 0.05**2)
    return CheckResult(
        "kde_normalization",
        "ASSERTED",
        abs(integral - 1.0) <= 0.02,
        f"grid integral of the KDE = {integral:.5f}",
    )


def check_tsne_perplexity() -> CheckResult:
    # the calibration is the bisection's alone; the layout descent does not touch it
    data = generate_clustered(60, 4, [[0.0] * 4, [8.0] * 4], [0.5, 0.5], 0.5, seed=21)
    _, achieved = conditional_affinities(pairwise_sq_distances(data.features), 10.0)
    worst = float(np.max(np.abs(achieved - 10.0)))
    return CheckResult(
        "tsne_perplexity_match",
        "ASSERTED",
        worst <= 1e-4,
        f"max |achieved - target| perplexity = {worst:.2e} over 60 points",
    )


def check_density_majority() -> CheckResult:
    captured = total = 0
    for seed in MAJORITY_SEEDS:
        data = generate_clustered(MAJORITY_N, 2, [[0.0, 0.0], [8.0, 8.0]], [0.9, 0.1], 0.5, seed=seed)
        emb = tsne_embed(data, perplexity=20.0, iterations=300, seed=seed)
        partition = build_partition(kde_densities(emb, "scott"), 0.3)
        majority = data.targets.ravel() == 0  # generate_clustered's one target column is the center index
        captured += int(np.sum(majority[partition.h_indices]))
        total += partition.n1
    frac = captured / total
    return CheckResult(
        "density_majority_capture",
        "ASSERTED",
        frac >= 0.95,
        f"{captured}/{total} H members come from the majority cluster ({frac:.3f})",
    )


# ---------------------------------------------------------------------------
# suite driver
# ---------------------------------------------------------------------------


def _seeded_checks(seed: int, instances: int) -> list[CheckResult]:
    """Every check that draws from ``default_rng(seed)``, in report order, with the fixed-input checks between them."""
    rng = np.random.default_rng(seed)
    results: list[CheckResult] = []
    results.append(check_formula(
        rng, instances, "srs_formula_exactness", "formula", _srs_instance,
        lambda g, s: srs_error_formula(g, s.m),
    ))
    results.append(check_formula(
        rng, instances, "stratified_corrected_identity", "corrected", _stratified_instance,
        lambda g, s: typicality_error_corrected(g, s.partition, s.plan),
    ))
    results.append(check_formula(
        rng, max(instances // 2, 50), "published_formula_zero_sum", "published formula", _zero_sum_scheme,
        lambda g, s: typicality_error_formula_published(g, s.partition, s.plan), noun="zero-sum instances",
    ))
    results.append(check_published_divergence())
    results.append(check_recursion(rng, SrsScheme(m=2)))
    results.append(check_recursion(rng, leading_scheme(4, 8, m=2, n1=1)))
    results.append(check_rate_specialization(rng))
    results.append(check_rate_arithmetic())
    results.extend(check_scheme_comparison_family(rng, instances))
    results.extend(check_optimal_beta())
    results.append(check_gradients(rng))
    results.append(check_convexity_probes(rng))
    results.append(check_growth_bound(rng))
    return results


def _error_reports(seed: int) -> list[str]:
    """The JSON lines of five error reports on random stratified instances drawn from ``default_rng(seed)``."""
    rng = np.random.default_rng(seed)
    json_lines = []
    for i in range(5):
        grads = random_gradient_family(rng, min_n=6)
        partition = random_partition(rng, grads.n_samples)
        plan = random_plan(rng, partition)
        report = build_error_report(grads, partition, plan)
        json_lines.append(
            report.to_json(instance=i, scheme="stratified", m=plan.m, n1=plan.n1, n2=plan.n2)
        )
    return json_lines


# The suite's independent parts, in report order. No two share a generator,
# so each can run on its own worker and the report does not depend on the
# pool size. The last part gives the error reports' JSON lines.
SUITE_PARTS = ("seeded", "inclusion", "kde_normalization", "tsne_perplexity", "density_majority", "error_reports")


def _run_part(part: str, seed: int, instances: int) -> list:
    """The results of one of SUITE_PARTS, named so that the task pickles.

    Each check is looked up by its module attribute when the part runs, so
    a wrapper set on that attribute sees the call.
    """
    if part == "seeded":
        return _seeded_checks(seed, instances)
    if part == "inclusion":
        return [
            check_inclusion(scheme, n_total, partial(draw_batches, resolve_strata(scheme, n_total)), seed=draw_seed)
            for scheme, n_total, draw_seed in ((SrsScheme(m=2), 4, 11), (leading_scheme(3, 9, m=3, n1=2), 9, 13))
        ]
    if part == "error_reports":
        return _error_reports(seed + 1)
    return [globals()[f"check_{part}"]()]


def run_verification(seed: int = 0, instances: int = 100):
    """Run every check; returns (results, error-report JSON lines).

    The parts in SUITE_PARTS run on :func:`_parallel.map_processes`, and
    their results are joined in part order.
    """
    if instances < 1:
        raise InvalidArgumentError(f"instances must be >= 1; got {instances}")
    *checks, json_lines = map_processes(_run_part, [(part, seed, instances) for part in SUITE_PARTS])
    return [r for part in checks for r in part], json_lines


def all_asserted_pass(results) -> bool:
    return all(r.passed for r in results if r.kind == "ASSERTED")

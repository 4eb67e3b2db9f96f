"""Self-verifying oracle suite: formulas against enumeration, bounds against runs.

Every check either ASSERTS a property the package guarantees (formula =
enumeration to 1e-9, descent recursion along a real path, bound
specializations, sampler inclusion probabilities, pipeline calibration) or
REPORTS a quantity the analysis deliberately does not promise (the
stratified-vs-SRS improvement ratio distribution, monotonicity of the
optimal bias factor). The CLI `verify` subcommand exits nonzero iff an
asserted check fails; `corrupt` lets a test harness poison one formula to
prove failures are detected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import (
    build_error_report,
    enumerate_error,
    optimal_beta,
    srs_error_formula,
    convergence_rate_factor,
    compare_error_expectations,
    typicality_error_corrected,
    typicality_error_formula_published,
)
from .data import Dataset, generate_clustered
from .density import Partition, build_partition, kde_densities, kde_evaluate
from .embedding import tsne_embed
from .errors import InvalidArgumentError
from .models import (
    ConvCurveModel,
    GradientFamily,
    LogisticModel,
    MlpModel,
    QuadraticModel,
    _targets_for,
    estimate_growth_bounds,
    full_gradient,
    per_sample_gradients,
    quadratic_constants,
)
from .optimize import Sgd, descent_recursion_check, train
from .sampling import (
    BatchPlan,
    SrsScheme,
    StratifiedScheme,
    make_plan,
    srs_batch,
    typicality_batch,
)

FORMULA_TOL = 1e-9


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


def two_strata_family(h_rows, l_rows, reference):
    """Gradient family + partition with H occupying the leading indices."""
    h_rows = np.atleast_2d(np.asarray(h_rows, dtype=np.float64))
    l_rows = np.atleast_2d(np.asarray(l_rows, dtype=np.float64))
    rows = np.vstack([h_rows, l_rows])
    n1 = h_rows.shape[0]
    n = rows.shape[0]
    partition = Partition(h_indices=np.arange(n1), l_indices=np.arange(n1, n), gamma=n1 / n)
    grads = GradientFamily(per_sample=rows, reference=np.asarray(reference, dtype=np.float64))
    return grads, partition


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


def quadratic_instance(rng, n: int = 40, d: int = 3, noise: float = 0.3):
    """Well-conditioned random least-squares problem with exact constants."""
    x = rng.normal(0.0, 1.0, (n, d)) + 0.2
    w_true = rng.normal(0.0, 1.0, d)
    y = x @ w_true + noise * rng.normal(0.0, 1.0, n)
    dataset = Dataset(features=x, targets=y[:, None])
    return dataset, quadratic_constants(dataset)


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------


def _formula_vs_enumeration(rng, instances, which, corrupt_offset=0.0):
    worst = 0.0
    for _ in range(instances):
        if which == "srs":
            grads = random_gradient_family(rng)
            m = int(rng.integers(1, grads.n_samples + 1))
            got = srs_error_formula(grads, m) + corrupt_offset
            want = enumerate_error(grads, SrsScheme(m=m))
        else:
            grads = random_gradient_family(rng, min_n=5)
            partition = random_partition(rng, grads.n_samples)
            plan = random_plan(rng, partition)
            got = typicality_error_corrected(grads, partition, plan) + corrupt_offset
            want = enumerate_error(grads, StratifiedScheme(partition=partition, plan=plan))
        worst = max(worst, abs(got - want))
    return worst


def check_srs_formula(rng, instances, corrupt=False) -> CheckResult:
    worst = _formula_vs_enumeration(rng, instances, "srs", corrupt_offset=1e-3 if corrupt else 0.0)
    return CheckResult(
        "srs_formula_exactness",
        "ASSERTED",
        worst <= FORMULA_TOL,
        f"max |formula - enumeration| = {worst:.3e} over {instances} instances",
    )


def check_corrected(rng, instances, corrupt=False) -> CheckResult:
    worst = _formula_vs_enumeration(rng, instances, "strat", corrupt_offset=1e-3 if corrupt else 0.0)
    return CheckResult(
        "stratified_corrected_identity",
        "ASSERTED",
        worst <= FORMULA_TOL,
        f"max |corrected - enumeration| = {worst:.3e} over {instances} instances",
    )


def check_published_zero_sum(rng, instances) -> CheckResult:
    worst = 0.0
    for _ in range(instances):
        grads, partition, plan = zero_sum_instance(rng)
        got = typicality_error_formula_published(grads, partition, plan)
        want = enumerate_error(grads, StratifiedScheme(partition=partition, plan=plan))
        worst = max(worst, abs(got - want))
    return CheckResult(
        "published_formula_zero_sum",
        "ASSERTED",
        worst <= FORMULA_TOL,
        f"max |published formula - enumeration| = {worst:.3e} over {instances} zero-sum instances",
    )


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


def check_recursion(rng, scheme_kind: str) -> CheckResult:
    dataset, spec = quadratic_instance(rng, n=8, d=2)
    if scheme_kind == "srs":
        scheme = SrsScheme(m=2)
    else:
        partition = Partition(h_indices=np.arange(4), l_indices=np.arange(4, 8), gamma=0.5)
        scheme = StratifiedScheme(partition=partition, plan=make_plan(2, 1, partition))
    theta0 = spec.exact_minimizer + rng.normal(0.0, 2.0, 2)
    report = descent_recursion_check(
        QuadraticModel(), dataset, scheme, spec, k_steps=30, mc_batches=100, seed=7, theta0=theta0
    )
    margin = min(s.rhs - s.lhs for s in report.steps)
    return CheckResult(
        f"descent_recursion_{scheme_kind}",
        "ASSERTED",
        report.holds_all and report.exact,
        f"30 enumerated steps, min slack rhs - lhs = {margin:.3e}",
    )


def check_rate_specialization(rng) -> CheckResult:
    dataset, spec = quadratic_instance(rng, n=20, d=2)
    partition = Partition(h_indices=np.arange(10), l_indices=np.arange(10, 20), gamma=0.5)
    plan = make_plan(20, 10, partition)  # n1 = N1, n2 = N2: the full-draw batch
    factor = convergence_rate_factor(spec, partition, plan)
    model = QuadraticModel()
    theta0 = spec.exact_minimizer + rng.normal(0.0, 3.0, 2)
    trace = train(
        model,
        dataset,
        StratifiedScheme(partition=partition, plan=plan),
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
    partition = Partition(h_indices=np.arange(40), l_indices=np.arange(40, 100), gamma=0.4)
    plan = make_plan(50, 40, partition)
    result = convergence_rate_factor(spec, partition, plan)
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


def gradient_check_models(rng, probes: int = 20):
    """Yield (model name, worst relative error) over random probes.

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
        for _ in range(probes):
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
        ga, gb = full_gradient(model, dataset, a), full_gradient(model, dataset, b)
        gap = float(np.linalg.norm(ga - gb))
        dist = float(np.linalg.norm(a - b))
        lipschitz_ok &= gap <= big_l * dist * (1.0 + 1e-9) + 1e-12
        ja = float(np.mean(model.losses(a, dataset.features, dataset.targets[:, 0])))
        jb = float(np.mean(model.losses(b, dataset.features, dataset.targets[:, 0])))
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
    beta1, beta2, probes = estimate_growth_bounds(
        model, dataset, spec.exact_minimizer, scale=max(1.0, float(np.linalg.norm(spec.exact_minimizer)))
    )
    ok = True
    for theta in probes:
        grads = model.per_sample_grads(theta, dataset.features, dataset.targets[:, 0])
        full = grads.mean(axis=0)
        bound = beta1 + beta2 * float(full @ full)
        ok &= bool(np.max(np.sum(grads * grads, axis=1)) <= bound * (1.0 + 1e-9))
    return CheckResult(
        "growth_bound_probes",
        "ASSERTED",
        ok,
        f"recorded beta1 = {beta1:.4f}, beta2 = {beta2:.4f} cover every probe point",
    )


def check_srs_inclusion(draws: int = 20_000) -> CheckResult:
    rng = np.random.default_rng(11)
    counts = np.zeros(4)
    for _ in range(draws):
        counts[srs_batch(4, 2, rng).indices] += 1
    target = 2.0 / 4.0
    sigma = np.sqrt(target * (1 - target) / draws)
    worst = float(np.max(np.abs(counts / draws - target)))
    return CheckResult(
        "srs_inclusion_frequency",
        "ASSERTED",
        worst <= 3 * sigma,
        f"max |freq - m/N| = {worst:.4f} over {draws} draws (3 sigma = {3 * sigma:.4f})",
    )


def check_typicality_inclusion(draws: int = 20_000) -> CheckResult:
    rng = np.random.default_rng(13)
    partition = Partition(h_indices=np.arange(3), l_indices=np.arange(3, 9), gamma=1 / 3)
    plan = make_plan(3, 2, partition)
    counts = np.zeros(9)
    for _ in range(draws):
        counts[typicality_batch(partition, plan, rng).indices] += 1
    freq = counts / draws
    ok = True
    detail = []
    for target, idx in ((2.0 / 3.0, partition.h_indices), (1.0 / 6.0, partition.l_indices)):
        sigma = np.sqrt(target * (1 - target) / draws)
        worst = float(np.max(np.abs(freq[idx] - target)))
        ok &= worst <= 3 * sigma
        detail.append(f"target {target:.3f}: max dev {worst:.4f} (3 sigma = {3 * sigma:.4f})")
    return CheckResult("typicality_inclusion_frequency", "ASSERTED", ok, "; ".join(detail))


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
    data = generate_clustered(60, 4, [[0.0] * 4, [8.0] * 4], [0.5, 0.5], 0.5, seed=21)
    emb = tsne_embed(data, perplexity=10.0, iterations=250, seed=2)
    worst = float(np.max(np.abs(emb.achieved_perplexity - 10.0)))
    return CheckResult(
        "tsne_perplexity_match",
        "ASSERTED",
        worst <= 1e-4,
        f"max |achieved - target| perplexity = {worst:.2e} over 60 points",
    )


def check_density_majority(seeds=(0, 1), n: int = 200) -> CheckResult:
    captured = total = 0
    for seed in seeds:
        data = generate_clustered(n, 2, [[0.0, 0.0], [8.0, 8.0]], [0.9, 0.1], 0.5, seed=seed)
        emb = tsne_embed(data, perplexity=20.0, iterations=300, seed=seed)
        partition = build_partition(kde_densities(emb, "scott"), 0.3)
        majority = data.targets[:, 0] == 0
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


def run_verification(seed: int = 0, instances: int = 100, corrupt: str | None = None):
    """Run every check; returns (results, error-report JSON lines)."""
    rng = np.random.default_rng(seed)
    results: list[CheckResult] = []
    results.append(check_srs_formula(rng, instances, corrupt == "srs_formula_exactness"))
    results.append(check_corrected(rng, instances, corrupt == "stratified_corrected_identity"))
    results.append(check_published_zero_sum(rng, max(instances // 2, 50)))
    results.append(check_published_divergence())
    results.append(check_recursion(rng, "srs"))
    results.append(check_recursion(rng, "typicality"))
    results.append(check_rate_specialization(rng))
    results.append(check_rate_arithmetic())
    results.extend(check_scheme_comparison_family(rng, instances))
    results.extend(check_optimal_beta())
    results.append(check_gradients(rng))
    results.append(check_convexity_probes(rng))
    results.append(check_growth_bound(rng))
    results.append(check_srs_inclusion())
    results.append(check_typicality_inclusion())
    results.append(check_kde_normalization())
    results.append(check_tsne_perplexity())
    results.append(check_density_majority())

    if corrupt is not None and corrupt not in {r.name for r in results}:
        raise InvalidArgumentError(f"unknown corruption target {corrupt!r}")
    # generic corruption fallback for checks without a dedicated hook
    if corrupt is not None:
        results = [
            r
            if r.name != corrupt or r.passed is False
            else CheckResult(r.name, r.kind, False, r.detail + " [corruption injected]")
            for r in results
        ]

    report_rng = np.random.default_rng(seed + 1)
    json_lines = []
    for i in range(5):
        grads = random_gradient_family(report_rng, min_n=6)
        partition = random_partition(report_rng, grads.n_samples)
        plan = random_plan(report_rng, partition)
        report = build_error_report(grads, partition, plan)
        json_lines.append(
            report.to_json(instance=i, scheme="stratified", m=plan.m, n1=plan.n1, n2=plan.n2)
        )
    return results, json_lines


def all_asserted_pass(results) -> bool:
    return all(r.passed for r in results if r.kind == "ASSERTED")

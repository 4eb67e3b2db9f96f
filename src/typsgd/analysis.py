"""Closed-form gradient-error expectations and their exact oracles.

This module carries the quantitative heart of the package: the expected
squared error of the batch-mean gradient estimator under plain SRS and
under stratified typicality sampling. Each closed form is paired with an
exhaustive enumeration oracle (every possible batch, exact probabilities)
and a Monte-Carlo estimator for populations too large to enumerate. The
exact error, the enumeration and the Monte-Carlo estimate are each written
once over a scheme's strata; SRS is the one-stratum case.

Two stratified formulas are provided deliberately. The published identity
(`typicality_error_formula_published`) measures H-stratum dispersion about the
reference gradient and L-stratum dispersion about zero; it is exact only
when both stratum gradient sums vanish and the reference is zero. The
finite-population identity (`typicality_error_corrected`) measures each
stratum about its own mean and adds the exact bias of the unweighted
stratified mean; it matches enumeration unconditionally. Reports include
both so the divergence is visible rather than silently resolved.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import combinations, product
from typing import NamedTuple

import numpy as np

from .density import Partition
from .errors import CapabilityError, InvalidArgumentError
from .models import GradientFamily, gradient_family
from .sampling import (
    BatchPlan,
    SrsScheme,
    StratifiedScheme,
    batch_space_size,
    draw_indices,
    plan_beta,
    resolve_strata,
    validate_plan,
)

ENUMERATION_BUDGET = 1_000_000


class ErrorComparison(NamedTuple):
    mse_srs: float
    mse_strat: float
    holds: bool
    alpha: float


class RateFactor(NamedTuple):
    factor: float
    noise_terms: float
    m_large_enough: bool


@dataclass(frozen=True)
class ErrorReport:
    """Side-by-side error expectations for one gradient family and plan."""

    mse_srs_formula: float
    mse_strat_published: float
    mse_strat_corrected: float
    s_k_sq: float
    s_h_sq: float
    s_l_sq: float
    bias_sq: float
    mse_enumerated: float | None = None
    mse_monte_carlo: tuple[float, float] | None = None
    alpha: float | None = None

    def to_json(self, **key) -> str:
        record = dict(key)
        for name, value in self.__dict__.items():
            record[name] = value if not isinstance(value, tuple) else list(value)
        return json.dumps(record, sort_keys=True)


def _sq_norm(v: np.ndarray) -> float:
    return float(np.dot(v, v))


def dispersion_about_mean(rows: np.ndarray) -> float:
    """Finite-population dispersion sum ||g_i - mean||^2 / (count - 1)."""
    if rows.shape[0] < 2:
        raise InvalidArgumentError("dispersion needs at least 2 rows")
    centered = rows - rows.mean(axis=0)
    return float(np.sum(centered * centered)) / (rows.shape[0] - 1)


def exact_error(grads: GradientFamily, scheme) -> float:
    """Exact E||batch mean - reference||^2 of a scheme: bias^2 + variance.

    With n_h draws from stratum h of size N_h and m = sum n_h, the batch
    mean has expectation (1/m) sum_h (n_h/N_h) sum_{i in h} g_i and variance
    sum_h n_h (1 - n_h/N_h) S_h^2 / m^2, S_h^2 the dispersion of stratum h
    about its own mean (Cochran 1977, ch. 5). Agrees with enumeration for
    every gradient family and reference.
    """
    rows = grads.per_sample
    strata = scheme.strata(rows.shape[0])
    m = sum(draws for _, draws in strata)
    expectation = sum(draws / members.shape[0] * rows[members].sum(axis=0) for members, draws in strata) / m
    var = sum(
        draws * (1.0 - draws / members.shape[0]) * dispersion_about_mean(rows[members])
        for members, draws in strata
    ) / m**2
    return _sq_norm(expectation - grads.reference) + var


def srs_error_formula(grads: GradientFamily, m: int) -> float:
    """Expected squared error of the SRS batch mean: bias^2 + (1 - m/N) S^2 / m.

    The bias is the distance of the population mean from the stored
    reference; it vanishes when the reference is that mean.
    """
    return exact_error(grads, SrsScheme(m=m))


def _published_terms(grads: GradientFamily, partition: Partition, plan: BatchPlan):
    """The published identity's (bias^2, S_H^2 about the reference, S_L^2 about zero, value)."""
    validate_plan(plan, partition)
    rows = grads.per_sample
    if rows.shape[0] != partition.n_total:
        raise InvalidArgumentError("gradient family and partition sizes differ")
    n1_pop, n2_pop = partition.n1, partition.n2
    if n1_pop < 2 or n2_pop < 2:
        raise InvalidArgumentError("the published formula needs N1, N2 >= 2")
    ref = grads.reference
    s_h = float(np.sum((rows[partition.h_indices] - ref) ** 2)) / (n1_pop - 1)
    s_l = float(np.sum(rows[partition.l_indices] ** 2)) / (n2_pop - 1)
    bias_sq = (plan_beta(plan, partition) - 1.0) ** 2 * _sq_norm(ref)
    m = plan.m
    value = (
        bias_sq
        + (1.0 - plan.n1 / n1_pop) * plan.n1 / m**2 * s_h
        + (1.0 - plan.n2 / n2_pop) * plan.n2 / m**2 * s_l
    )
    return bias_sq, s_h, s_l, value


def typicality_error_formula_published(grads: GradientFamily, partition: Partition, plan: BatchPlan) -> float:
    """The published stratified error identity, evaluated literally.

    bias term ||(beta - 1) ref||^2, H dispersion about the reference, L
    dispersion about zero. Exact only in the zero-sum-strata regime; see
    the module docstring.
    """
    return _published_terms(grads, partition, plan)[-1]


def typicality_error_corrected(grads: GradientFamily, partition: Partition, plan: BatchPlan) -> float:
    """Exact bias^2 + variance of the unweighted stratified batch mean.

    The estimator mean is (1/m)(n1/N1 sum_H + n2/N2 sum_L); each stratum
    contributes SRS-without-replacement variance about its own stratum mean.
    """
    return exact_error(grads, StratifiedScheme(partition=partition, plan=plan))


def formula_alpha(model, dataset, theta, partition: Partition, plan: BatchPlan) -> float:
    """The error ratio alpha = typicality_error_corrected / srs_error_formula at theta.

    Both errors are taken about the N-sample mean gradient at theta. alpha is
    1 by convention when the SRS error vanishes.
    """
    family = gradient_family(model, dataset, theta)
    mse_srs = srs_error_formula(family, plan.m)
    if mse_srs == 0.0:
        return 1.0
    return typicality_error_corrected(family, partition, plan) / mse_srs


def _combination_sums(rows: np.ndarray, k: int) -> np.ndarray:
    idx = np.array(list(combinations(range(rows.shape[0]), k)), dtype=np.int32)
    out = np.zeros((idx.shape[0], rows.shape[1]))
    for j in range(k):  # k gathers of (C, d) keep memory flat
        out += rows[idx[:, j]]
    return out


def enumerate_error(grads: GradientFamily, scheme, budget: int = ENUMERATION_BUDGET) -> float:
    """Exact E||batch mean - reference||^2 over every possible batch.

    The ground-truth oracle for all formula checks. Raises CapabilityError
    when the batch space exceeds ``budget``; use :func:`monte_carlo_error`
    in that case.
    """
    rows = grads.per_sample
    count = batch_space_size(scheme, rows.shape[0])
    if count > budget:
        raise CapabilityError(f"{count} batches exceed the enumeration budget {budget}; use monte_carlo_error")
    strata = scheme.strata(rows.shape[0])
    m = sum(draws for _, draws in strata)
    *heads, last = [_combination_sums(rows[members], draws) for members, draws in strata]
    total = 0.0
    for head in product(*heads):  # chunk over all but the last stratum to bound memory
        diffs = sum(head, last) / m - grads.reference
        total += float(np.sum(diffs * diffs))
    return total / count


def monte_carlo_error(grads: GradientFamily, scheme, draws: int, seed: int) -> tuple[float, float]:
    """Sample mean and standard error of the squared batch-mean error."""
    if draws < 100:
        raise InvalidArgumentError("use at least 100 draws")
    rows = grads.per_sample
    ref = grads.reference
    strata = resolve_strata(scheme, rows.shape[0])
    rng = np.random.default_rng(seed)
    sq_errors = np.empty(draws)
    m = sum(draws_h for _, draws_h in strata)
    for t in range(draws):
        # the sum over m rows divided by m is what mean() computes, without its per-call overhead
        diff = rows[draw_indices(strata, rng)].sum(axis=0) / m - ref
        sq_errors[t] = diff @ diff
    se = float(np.std(sq_errors, ddof=1) / math.sqrt(draws))
    return float(np.mean(sq_errors)), se


def convergence_rate_factor(model_spec, partition: Partition, plan: BatchPlan) -> RateFactor:
    """Per-step contraction factor of the stratified scheme's convergence bound.

    factor = 1 - mu/L + (1 - n1/N1) 2 n1 (beta2 + 2) / m^2
                      + (1 - n2/N2) n2 (beta2 + 1) / (2 m^2) + (beta - 1)^2

    Also reports whether the noise terms are small enough (< mu/L) for the
    bound to certify linear convergence.
    """
    if model_spec.lipschitz_L is None or model_spec.strong_convexity_mu is None:
        raise CapabilityError("rate factor needs L and mu")
    if model_spec.growth_bound_beta2 is None:
        raise CapabilityError("rate factor needs a beta2 growth bound")
    validate_plan(plan, partition)
    mu_over_l = model_spec.strong_convexity_mu / model_spec.lipschitz_L
    beta2 = model_spec.growth_bound_beta2
    m = plan.m
    noise = (
        (1.0 - plan.n1 / partition.n1) * 2.0 * plan.n1 * (beta2 + 2.0) / m**2
        + (1.0 - plan.n2 / partition.n2) * plan.n2 * (beta2 + 1.0) / (2.0 * m**2)
        + (plan_beta(plan, partition) - 1.0) ** 2
    )
    return RateFactor(factor=1.0 - mu_over_l + noise, noise_terms=noise, m_large_enough=noise < mu_over_l)


def compare_error_expectations(
    grads: GradientFamily,
    partition: Partition,
    plan: BatchPlan,
    budget: int = ENUMERATION_BUDGET,
    mc_draws: int = 100_000,
    seed: int = 0,
) -> ErrorComparison:
    """Compare stratified vs SRS expected squared error on one instance.

    Both expectations are enumerated exactly when affordable, otherwise
    Monte-Carlo estimated. The inequality is reported, never asserted:
    instances violating the representativeness premise can and do fail it.
    alpha = mse_strat / mse_srs, with alpha = 1 by convention when the SRS
    error vanishes.
    """
    stratified = StratifiedScheme(partition=partition, plan=plan)

    def expected(scheme):
        try:
            return enumerate_error(grads, scheme, budget=budget)
        except CapabilityError:
            return monte_carlo_error(grads, scheme, draws=mc_draws, seed=seed)[0]

    mse_srs = expected(SrsScheme(m=plan.m))
    mse_strat = expected(stratified)
    alpha = 1.0 if mse_srs == 0.0 else mse_strat / mse_srs
    return ErrorComparison(mse_srs=mse_srs, mse_strat=mse_strat, holds=mse_strat <= mse_srs, alpha=alpha)


def optimal_beta(m: int) -> float:
    """The bias factor minimizing the stratified/SRS error ratio, as published.

    beta = 1 / (2 (cbrt(m/4 + sqrt(m^3/27)) + cbrt(m/4 - sqrt(m^3/27))));
    for m >= 2 the second radicand is negative and the real (sign-preserving)
    cube root is used. Tends to 1 from below as m grows.
    """
    if m < 1:
        raise InvalidArgumentError("m must be >= 1")
    root = math.sqrt(m**3 / 27.0)
    outer = np.cbrt(m / 4.0 + root) + np.cbrt(m / 4.0 - root)
    return float(1.0 / (2.0 * outer))


def build_error_report(
    grads: GradientFamily,
    partition: Partition,
    plan: BatchPlan,
    budget: int = ENUMERATION_BUDGET,
    mc_draws: int = 0,
    seed: int = 0,
) -> ErrorReport:
    """Evaluate every error expectation for one instance, side by side.

    The stratified error is enumerated once, inside the SRS/stratified
    comparison; ``mse_enumerated`` is that value when the batch space fits
    ``budget`` and None otherwise.
    """
    bias_sq, s_h_sq, s_l_sq, published = _published_terms(grads, partition, plan)
    stratified = StratifiedScheme(partition=partition, plan=plan)
    mc = monte_carlo_error(grads, stratified, draws=mc_draws, seed=seed) if mc_draws else None
    compare = compare_error_expectations(grads, partition, plan, budget=budget, seed=seed)
    fits = batch_space_size(stratified, partition.n_total) <= budget
    return ErrorReport(
        mse_srs_formula=srs_error_formula(grads, plan.m),
        mse_strat_published=published,
        mse_strat_corrected=typicality_error_corrected(grads, partition, plan),
        s_k_sq=dispersion_about_mean(grads.per_sample),
        s_h_sq=s_h_sq,
        s_l_sq=s_l_sq,
        bias_sq=bias_sq,
        mse_enumerated=compare.mse_strat if fits else None,
        mse_monte_carlo=mc,
        alpha=compare.alpha,
    )

"""Closed-form gradient-error expectations and their exact oracles.

This module carries the quantitative heart of the package: the expected
squared error of the batch-mean gradient estimator under plain SRS and
under stratified typicality sampling. Each closed form is paired with an
exhaustive enumeration oracle (every possible batch, exact probabilities)
and a Monte-Carlo estimator for populations too large to enumerate. The
exact error, the enumeration and the Monte-Carlo estimate are each written
once over a scheme's strata; SRS is the one-stratum case. Every oracle
batch mean comes from ``enumerated_means`` or ``drawn_means``, and
``oracle_path`` alone decides which. The closed forms, the descent
recursion check among them, read ``batch_mean_moments`` and need no batch.

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
from itertools import product
from typing import NamedTuple

import numpy as np

from . import optimize
from .data import Dataset
from .density import Partition
from .errors import CapabilityError, InvalidArgumentError
from .models import GradientFamily, QuadraticModel, gradient_family, mean_loss
from .sampling import (
    BatchPlan,
    SrsScheme,
    StratifiedScheme,
    batch_space_size,
    draw_batches,
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
    paths: tuple[str, str]  # the (SRS, stratified) oracle paths, as oracle_path names them


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
    alpha: float | None = None

    def to_json(self, **key) -> str:
        return json.dumps({**key, **self.__dict__}, sort_keys=True)


def _sq_norm(v: np.ndarray) -> float:
    return float(np.dot(v, v))


def batch_mean_moments(rows: np.ndarray, strata, metric: np.ndarray | None = None) -> tuple[np.ndarray, float]:
    """E[batch mean] and tr(M Cov[batch mean]) of resolved strata, M = ``metric`` or the identity.

    With n_h draws from stratum h of size N_h and m = sum n_h, E = (1/m) sum_h (n_h/N_h) sum_{i in h} g_i
    and Cov = sum_h n_h (1 - n_h/N_h) S_h / m^2, S_h stratum h's dispersion matrix about its own mean
    (Cochran 1977, ch. 5). A fully drawn stratum adds no variance, so a one-member stratum needs none.
    """
    m = sum(draws for _, draws in strata)
    expectation, variance = 0, 0
    for members, draws in strata:
        size, part = members.shape[0], rows[members]
        total = part.sum(axis=0)
        expectation = expectation + draws / size * total
        if draws < size:
            centered = part - total / size
            weighted = centered if metric is None else centered @ metric
            variance = variance + draws * (1.0 - draws / size) * (float(np.sum(weighted * centered)) / (size - 1))
    return expectation / m, variance / m**2


def exact_error(grads: GradientFamily, scheme) -> float:
    """Exact E||batch mean - reference||^2 of a scheme: bias^2 + variance (:func:`batch_mean_moments`).

    Agrees with enumeration for every gradient family and reference.
    """
    expectation, variance = batch_mean_moments(grads.per_sample, resolve_strata(scheme, grads.n_samples))
    return _sq_norm(expectation - grads.reference) + variance


def srs_error_formula(grads: GradientFamily, m: int) -> float:
    """Expected squared error of the SRS batch mean: bias^2 + (1 - m/N) S^2 / m.

    The bias is the distance of the population mean from the stored
    reference; it vanishes when the reference is that mean.
    """
    return exact_error(grads, SrsScheme(m=m))


def _published_terms(grads: GradientFamily, partition: Partition, plan: BatchPlan):
    """The published identity's (bias^2, S_H^2 about the reference, S_L^2 about zero, value)."""
    rows = grads.per_sample
    StratifiedScheme(partition=partition, plan=plan).strata(rows.shape[0])
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
    """The row sums of every k-subset of ``rows``, in ``itertools.combinations`` order.

    Built level by level: each partial batch is extended by every larger
    member that still leaves room for the draws to come, so no level holds
    more than C(n, k) rows and no index tuple is formed. Each sum is added
    in member order onto 0.0 (0 + r_i0 + r_i1 + ...), so the bits, signed
    zeros included, are those of a k-gather accumulation over the subsets.
    """
    n = rows.shape[0]
    out = np.zeros((1, rows.shape[1]))
    last = np.array([-1])
    for level in range(1, k + 1):
        counts = n - k + level - 1 - last  # members last+1 .. n-k+level-1 leave room
        parent = np.repeat(np.arange(last.shape[0]), counts)
        starts = np.cumsum(counts) - counts
        last = np.arange(parent.shape[0]) + np.repeat(last + 1 - starts, counts)
        out = out[parent]
        out += rows[last]
    return out


def enumerated_means(rows: np.ndarray, strata):
    """Yield the mean rows of every batch of the strata once, all equally likely.

    Each stratum's batch sums come from :func:`_combination_sums`, in
    ``combinations`` order. One chunk is yielded per combination of draws
    from all strata but the last, which bounds memory; the order is
    ``product`` over the strata of their ``combinations``.
    """
    m = sum(draws for _, draws in strata)
    *heads, last = [_combination_sums(rows[members], draws) for members, draws in strata]
    for head in product(*heads):
        yield sum(head, last) / m


def drawn_means(rows: np.ndarray, strata, draws: int, rng: np.random.Generator) -> np.ndarray:
    """The batch-mean rows of ``draws`` batches drawn by :func:`draw_batches` on resolved strata.

    The stream's blocks count each batch's (m, d) row gather in their size;
    each mean is the m rows summed in batch order and divided by m, bit for
    bit the mean of one batch drawn and summed on its own.
    """
    m = sum(draws_h for _, draws_h in strata)
    blocks = draw_batches(strata, rng, draws, row_bytes=8 * m * rows.shape[1])
    return np.concatenate([rows[batches].sum(axis=1) / m for batches in blocks])


def oracle_path(scheme, n_total: int) -> tuple[str, int]:
    """The one enumerate-or-sample rule: (path, batch space size) of ``scheme`` over ``n_total`` samples.

    The path is "enumeration" when the scheme has at most ENUMERATION_BUDGET
    (read at call time) distinct batches and "monte_carlo" otherwise. Every oracle
    that chooses between :func:`enumerated_means` and :func:`drawn_means` reads it here.
    """
    count = batch_space_size(scheme, n_total)
    return ("enumeration" if count <= ENUMERATION_BUDGET else "monte_carlo"), count


@dataclass(frozen=True)
class RecursionStep:
    iteration: int
    lhs: float
    rhs: float
    holds: bool


@dataclass(frozen=True)
class RecursionReport:
    steps: tuple[RecursionStep, ...]
    holds_all: bool


def descent_recursion_check(
    dataset: Dataset,
    scheme,
    model_spec,
    k_steps: int,
    seed: int,
    theta0: np.ndarray | None = None,
) -> RecursionReport:
    """Check the one-step descent bound of least squares along an SGD path, in closed form at any N.

    At each state theta, with eta = 1/L, batch-mean gradient g and H = X^T X / N, f is quadratic, so the
    expected next-step gap is exactly lhs = f(theta - eta E[g]) - f* + (eta^2 / 2) tr(H Cov[g]); it is
    compared with rhs = (1 - mu/L) (f(theta) - f*) + :func:`exact_error` / (2L). The states are the first
    ``k_steps`` points of :func:`optimize.evaluations` with ``Sgd(eta)``, so the check takes k_steps - 1
    real stochastic steps; a ``k_steps`` below 1 is refused there.
    """
    if model_spec.lipschitz_L is None or model_spec.strong_convexity_mu is None:
        raise InvalidArgumentError("recursion check needs exact L and mu")
    if model_spec.exact_optimum_value is None:
        raise InvalidArgumentError("recursion check needs the exact optimum value")
    big_l, optimum = model_spec.lipschitz_L, model_spec.exact_optimum_value
    contraction = 1.0 - model_spec.strong_convexity_mu / big_l
    eta = 1.0 / big_l
    model = QuadraticModel()
    strata = resolve_strata(scheme, dataset.n_samples)
    hessian = dataset.features.T @ dataset.features / dataset.n_samples
    points = optimize.evaluations(
        model, dataset, scheme, optimize.Sgd(eta=eta), k_steps, seed, eval_every=1, model_spec=model_spec, theta0=theta0
    )

    steps = []
    for record, theta in points:
        family = gradient_family(model, dataset, theta)
        expectation, noise = batch_mean_moments(family.per_sample, strata, metric=hessian)
        lhs = mean_loss(model, dataset, theta - eta * expectation) - optimum + eta**2 / 2.0 * noise
        rhs = contraction * record.subopt + exact_error(family, scheme) / (2.0 * big_l)
        steps.append(RecursionStep(iteration=record.iteration, lhs=lhs, rhs=rhs, holds=lhs <= rhs))
        if len(steps) == k_steps:
            break  # the step after the last checked state is never taken
    return RecursionReport(steps=tuple(steps), holds_all=all(s.holds for s in steps))


def enumerate_error(grads: GradientFamily, scheme) -> float:
    """Exact E||batch mean - reference||^2 over every possible batch.

    The ground-truth oracle for all formula checks. Raises CapabilityError
    when :func:`oracle_path` does not choose enumeration; use
    :func:`monte_carlo_error` in that case.
    """
    rows = grads.per_sample
    path, count = oracle_path(scheme, rows.shape[0])
    if path != "enumeration":
        raise CapabilityError(f"{count} batches exceed the enumeration budget {ENUMERATION_BUDGET}; use monte_carlo_error")
    total = 0.0
    for means in enumerated_means(rows, resolve_strata(scheme, rows.shape[0])):
        diffs = means - grads.reference
        total += float(np.sum(diffs * diffs))
    return total / count


def monte_carlo_error(grads: GradientFamily, scheme, draws: int, seed: int) -> tuple[float, float]:
    """Sample mean and standard error of the squared batch-mean error."""
    if draws < 100:
        raise InvalidArgumentError("use at least 100 draws")
    rows = grads.per_sample
    strata = resolve_strata(scheme, rows.shape[0])
    diffs = drawn_means(rows, strata, draws, np.random.default_rng(seed)) - grads.reference
    # one (1, d) @ (d, 1) product per batch is diff @ diff bit for bit; einsum and a row sum are not
    sq_errors = np.matmul(diffs[:, None, :], diffs[:, :, None])[:, 0, 0]
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
    mc_draws: int = 100_000,
    seed: int = 0,
) -> ErrorComparison:
    """Compare stratified vs SRS expected squared error on one instance.

    Each expectation takes the path :func:`oracle_path` picks:
    :func:`enumerate_error` when the scheme's batch space fits,
    else the mean of :func:`monte_carlo_error` over ``mc_draws`` batches
    drawn with ``seed``. ``paths`` names the (SRS, stratified) paths taken.
    The inequality is reported, never asserted: instances violating the
    representativeness premise can and do fail it. alpha = mse_strat /
    mse_srs, with alpha = 1 by convention when the SRS error vanishes.
    """

    def expected(scheme):
        path, _ = oracle_path(scheme, grads.n_samples)
        if path == "enumeration":
            return path, enumerate_error(grads, scheme)
        return path, monte_carlo_error(grads, scheme, draws=mc_draws, seed=seed)[0]

    srs_path, mse_srs = expected(SrsScheme(m=plan.m))
    strat_path, mse_strat = expected(StratifiedScheme(partition=partition, plan=plan))
    alpha = 1.0 if mse_srs == 0.0 else mse_strat / mse_srs
    return ErrorComparison(
        mse_srs=mse_srs, mse_strat=mse_strat, holds=mse_strat <= mse_srs, alpha=alpha, paths=(srs_path, strat_path)
    )


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


def build_error_report(grads: GradientFamily, partition: Partition, plan: BatchPlan) -> ErrorReport:
    """Evaluate every error expectation for one instance, side by side.

    The stratified error is taken once, inside the SRS/stratified
    comparison, under the ``ENUMERATION_BUDGET`` read at call time;
    ``mse_enumerated`` is that value when the comparison's stratified path
    (``paths[1]``) is enumeration and None when it is Monte-Carlo.
    ``s_k_sq`` is sum ||g_i - mean||^2 / (N - 1) over the whole population.
    """
    bias_sq, s_h_sq, s_l_sq, published = _published_terms(grads, partition, plan)
    compare = compare_error_expectations(grads, partition, plan)
    centered = grads.per_sample - grads.per_sample.mean(axis=0)
    return ErrorReport(
        mse_srs_formula=srs_error_formula(grads, plan.m),
        mse_strat_published=published,
        mse_strat_corrected=typicality_error_corrected(grads, partition, plan),
        s_k_sq=float(np.sum(centered * centered)) / (grads.n_samples - 1),
        s_h_sq=s_h_sq,
        s_l_sq=s_l_sq,
        bias_sq=bias_sq,
        mse_enumerated=compare.mse_strat if compare.paths[1] == "enumeration" else None,
        alpha=compare.alpha,
    )

"""The gradient-error expectations and their exact enumeration oracle.

Every closed form in the analysis module is checked here against complete
enumeration of the batch space. The stratified case ships two formulas:
the published identity (exact only when both stratum gradient sums vanish
and the reference is zero) and the unconditional finite-population
identity. A worked example shows where they part ways.
"""

import numpy as np

from typsgd.analysis import (
    enumerate_error,
    optimal_beta,
    srs_error_formula,
    compare_error_expectations,
    typicality_error_corrected,
    typicality_error_formula_published,
)
from typsgd.models import GradientFamily
from typsgd.sampling import SrsScheme, StratifiedScheme, make_plan, plan_beta
from typsgd.verify import random_gradient_family, random_partition, random_plan, two_strata_family

print("=== SRS: (1 - m/N) S^2 / m against enumeration ===")
grads = GradientFamily(per_sample=np.array([[1.0], [2.0], [3.0], [4.0]]), reference=np.array([2.5]))
print(f"gradients 1..4, m = 2: formula {srs_error_formula(grads, 2):.6f} "
      f"= enumeration {enumerate_error(grads, SrsScheme(m=2)):.6f} (exactly 5/12)")

print()
print("=== Stratified: the regime where the published identity is exact ===")
grads, part = two_strata_family([[1.0], [-1.0]], [[2.0], [-2.0]], [0.0])
plan = make_plan(2, 1, part)
print(f"H = {{1, -1}}, L = {{2, -2}}, reference 0, n1 = n2 = 1 (beta = {plan_beta(plan, part)}):")
print(f"  published  : {typicality_error_formula_published(grads, part, plan):.4f}")
print(f"  corrected  : {typicality_error_corrected(grads, part, plan):.4f}")
print(f"  enumeration: {enumerate_error(grads, StratifiedScheme(part, plan)):.4f}")

print()
print("=== ...and a case where it is not ===")
grads, part = two_strata_family([[3.0], [5.0]], [[3.0], [-3.0]], [2.0])
plan = make_plan(2, 1, part)
print(f"H = {{3, 5}}, L = {{3, -3}}, reference 2:")
print(f"  published  : {typicality_error_formula_published(grads, part, plan):.4f}   <- overshoots")
print(f"  corrected  : {typicality_error_corrected(grads, part, plan):.4f}")
print(f"  enumeration: {enumerate_error(grads, StratifiedScheme(part, plan)):.4f}")
print("(the published dispersion terms measure deviations about the reference")
print(" and about zero; the exact variance measures each stratum about its own mean)")

print()
print("=== The corrected identity matches enumeration unconditionally ===")
rng = np.random.default_rng(0)
worst = 0.0
for _ in range(200):
    g = random_gradient_family(rng, min_n=5)
    p = random_partition(rng, g.n_samples)
    pl = random_plan(rng, p)
    worst = max(worst, abs(typicality_error_corrected(g, p, pl) - enumerate_error(g, StratifiedScheme(p, pl))))
print(f"max |corrected - enumeration| over 200 random instances: {worst:.2e}")

print()
print("=== Improvement ratio alpha = stratified / SRS error ===")
rng = np.random.default_rng(1)
from typsgd.verify import representative_h_instance

alphas = []
for _ in range(50):
    g, p, pl = representative_h_instance(rng)
    alphas.append(compare_error_expectations(g, p, pl).alpha)
print(f"on 50 instances whose H stratum reproduces the total gradient and whose")
print(f"L stratum is zero-sum noise: median alpha = {np.median(alphas):.3f} (alpha < 1 is improvement)")

print()
print("=== The published optimal bias factor ===")
for m in (1, 5, 50, 1000):
    print(f"  beta*(m={m}) = {optimal_beta(m):.6f}")
print("(tends to 1 from below: large batches want an unbiased stratified mean)")

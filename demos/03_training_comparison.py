"""Paired-seed training comparison: SRS batches vs typicality batches.

Runs the small-scale version of the clustered least-squares comparison:
same seeds, same initial point, same step size 1/L; only the batch
selection differs. Prints iterations-to-threshold per seed and writes the
first seed's loss curves.
"""

import os

import numpy as np

from typsgd.benchmark import build_benchmark, run_comparison
from typsgd.models import QuadraticModel
from typsgd.optimize import Sgd, train
from typsgd.sampling import SrsScheme, StratifiedScheme, make_plan
from typsgd.svg import line_chart

OUT = os.path.join(os.path.dirname(__file__), "out")
os.makedirs(OUT, exist_ok=True)

print("Building the benchmark (2000 samples, t-SNE + KDE partition; ~1 min)...")
setup = build_benchmark(tsne_iterations=250)
print(f"  N1 = {setup.partition.n1}, N2 = {setup.partition.n2}")
print(f"  noisy outskirt samples inside H: {np.mean(setup.noisy_mask[setup.partition.h_indices]):.3f}")
print(f"  mu/L = {setup.model_spec.strong_convexity_mu / setup.model_spec.lipschitz_L:.4f}")

print("Paired runs on 8 seeds (SGD at eta = 1/L, m = 50, n1 = 40)...")
result = run_comparison(setup, seeds=range(8))
for name in ("srs", "typicality"):
    iters = ["-" if v is None else v for v in result.sgd_iterations[name]]
    print(f"  {name:10s}: iterations to 1e-3 per seed = {iters} -> median {result.medians_sgd[name]}")
print(f"  Adam at eta = 0.05, recorded without a claim: medians {result.medians_adam}")
print(f"  stratified/SRS expected-squared-error ratio at the start: {result.alpha_at_start:.3f}")
print("  (the error reduction is unconditional; the time-to-threshold ordering")
print("   at a fixed safe step size is configuration-dependent, see README)")

print("Writing loss curves for seed 0...")
plan = make_plan(50, 40, setup.partition)
series = []
for label, scheme in (("srs", SrsScheme(m=50)), ("typicality", StratifiedScheme(setup.partition, plan))):
    trace = train(
        QuadraticModel(), setup.dataset, scheme, Sgd(eta=1.0 / setup.model_spec.lipschitz_L),
        1500, seed=0, eval_every=10, model_spec=setup.model_spec,
    )
    series.append((label, [r.iteration for r in trace.records], [r.subopt for r in trace.records]))
path = os.path.join(OUT, "loss_comparison.svg")
line_chart(path, series, "suboptimality by batch selection (seed 0)", y_label="suboptimality")
print(f"Wrote {path}")

"""Each output check passes on true program output and fails on a corrupted copy.

Run from the repository root:

    python3 -m pytest perfbench/test_checks.py -q
"""

from __future__ import annotations

import shutil

import numpy as np
import pytest

import checks
import workloads

workloads.import_typsgd()

from typsgd import analysis, cli, models, optimize, sampling  # noqa: E402
from typsgd.density import Partition  # noqa: E402
from typsgd.data import Dataset  # noqa: E402


def outcome(fn, *args, **kwargs) -> dict[str, bool]:
    ck = checks.Checks()
    fn(ck, *args, **kwargs)
    return {name: ok for name, ok, _ in ck.results}


@pytest.fixture(scope="module")
def problem():
    """A small clustered least-squares problem with a density-like split."""
    rng = np.random.default_rng(3)
    minority = np.arange(200) < 20
    x = np.where(minority[:, None], 0.0, 6.0) + rng.standard_normal((200, 2))
    y = x @ np.array([1.0, 1.0]) + 0.5 * rng.standard_normal(200)
    radius = np.linalg.norm(x - np.where(minority[:, None], 0.0, 6.0), axis=1)
    core = np.flatnonzero(~minority)[np.argsort(radius[~minority])][:60]
    h = np.sort(core)
    l = np.setdiff1d(np.arange(200), h)
    return x, y, h, l


def test_strata_catch_flipped_label(problem):
    _, _, h, l = problem
    assert all(outcome(checks.check_strata, h, l, 200, 0.3).values())
    flipped_h, flipped_l = h[1:], np.sort(np.append(l, h[0]))  # one H label flipped to L
    assert not outcome(checks.check_strata, flipped_h, flipped_l, 200, 0.3)["strata_size"]
    overlapping_l = np.sort(np.append(l[:-1], h[0]))  # an H member also listed in L
    assert not outcome(checks.check_strata, h, overlapping_l, 200, 0.3)["strata_partition"]


def test_cluster_capture_catches_minority_in_h(problem):
    x, _, h, _ = problem
    centers = [[6.0, 6.0], [0.0, 0.0]]
    assert outcome(checks.check_cluster_capture, x, h, centers)["cluster_capture"]
    swapped = np.sort(np.concatenate([h[:50], np.arange(10)]))  # 10 of 60 from the minority
    assert not outcome(checks.check_cluster_capture, x, swapped, centers)["cluster_capture"]


def test_perplexity_catches_one_missed_row():
    achieved = np.full(50, 30.0)
    assert outcome(checks.check_perplexity, achieved, 30.0, 1e-5)["perplexity_within_tolerance"]
    achieved[7] += 1e-3
    assert not outcome(checks.check_perplexity, achieved, 30.0, 1e-5)["perplexity_within_tolerance"]


def test_model_constants_catch_perturbed_values(problem):
    x, y, _, _ = problem
    spec = models.quadratic_constants(Dataset(features=x, targets=y[:, None]))
    args = (x, y, spec.lipschitz_L, spec.strong_convexity_mu, spec.exact_minimizer, spec.exact_optimum_value)
    assert outcome(checks.check_model_constants, *args)["model_constants"]
    for i, factor in ((2, 1.001), (3, 1.001), (5, 1.0 + 1e-6)):
        bad = list(args)
        bad[i] = bad[i] * factor
        assert not outcome(checks.check_model_constants, *bad)["model_constants"]


@pytest.fixture(scope="module")
def trained(problem):
    x, y, h, l = problem
    dataset = Dataset(features=x, targets=y[:, None])
    spec = models.quadratic_constants(dataset)
    partition = Partition(h_indices=h, l_indices=l, gamma=0.3)
    scheme = sampling.StratifiedScheme(partition=partition, plan=sampling.make_plan(20, 16, partition))
    trace = optimize.train(
        models.QuadraticModel(), dataset, scheme, optimize.Sgd(eta=1.0 / spec.lipschitz_L), 400,
        seed=1, eval_every=5, model_spec=spec, record_thetas=True,
    )
    return trace, 0.05


def test_threshold_iteration_catches_perturbed_theta(problem, trained):
    x, y, _, _ = problem
    trace, threshold = trained
    reported = trace.iterations_to_threshold(threshold)
    subopts = [r.subopt for r in trace.records]
    assert reported is not None and reported > 0
    good = outcome(checks.check_threshold_iteration, "t", x, y, trace.thetas, reported, threshold, subopts)
    assert all(good.values())
    later = outcome(checks.check_threshold_iteration, "t", x, y, trace.thetas, reported + 5, threshold, subopts)
    assert not later["threshold_iteration.t"]
    perturbed = [(it, theta + 0.5 if it == reported else theta) for it, theta in trace.thetas]
    result = outcome(checks.check_threshold_iteration, "t", x, y, perturbed, reported, threshold, subopts)
    assert not result["threshold_iteration.t"]


def test_subopt_sign_catches_an_optimum_set_too_high(problem, trained):
    x, y, _, _ = problem
    trace, threshold = trained
    reported = trace.iterations_to_threshold(threshold)
    lowest = min(r.subopt for r in trace.records)
    # as if the program's optimum value sat 1e-9 above the lowest loss the run reached
    subopts = [r.subopt - lowest - 1e-9 for r in trace.records]
    result = outcome(checks.check_threshold_iteration, "t", x, y, trace.thetas, reported, threshold, subopts)
    assert not result["subopt_nonnegative.t"]


def test_alpha_catches_one_percent(problem):
    x, y, h, l = problem
    rows = checks.ls_gradients(x, y, np.zeros(2))
    family = models.GradientFamily(per_sample=rows, reference=rows.mean(axis=0))
    partition = Partition(h_indices=h, l_indices=l, gamma=0.3)
    plan = sampling.make_plan(20, 16, partition)
    alpha = analysis.typicality_error_corrected(family, partition, plan) / analysis.srs_error_formula(family, 20)
    moments = checks.error_moments(rows, h, l, 20, 16, 50_000, seed=9)
    good = outcome(checks.check_alpha, alpha, moments, require_below_one=False)
    assert good == {"alpha_vs_inclusion_probabilities": True, "alpha_vs_monte_carlo": True}
    assert not outcome(checks.check_alpha, alpha * 1.01, moments, False)["alpha_vs_inclusion_probabilities"]
    assert not outcome(checks.check_alpha, alpha * 1.2, moments, False)["alpha_vs_monte_carlo"]
    assert not outcome(checks.check_alpha, 1.0, moments, True)["alpha_below_one"]

    oracle = analysis.compare_error_expectations(family, partition, plan, mc_draws=5000, seed=2)
    assert all(outcome(checks.check_oracle, oracle.mse_srs, oracle.mse_strat, 5000, moments).values())
    bad = outcome(checks.check_oracle, oracle.mse_srs * 1.2, oracle.mse_strat, 5000, moments)
    assert not bad["oracle_mse_srs"] and bad["oracle_mse_stratified"]


def test_own_sampler_is_uniform():
    rng = np.random.default_rng(0)
    picks = checks.draw_subsets(6, 2, 60_000, rng)
    assert np.all(picks[:, 0] != picks[:, 1])
    freq = np.bincount(picks.ravel(), minlength=6) / picks.size
    assert np.allclose(freq, 1 / 6, atol=0.01)


TINY = """
[data]
kind = clustered
count = 80
dims = 2
centers = 0,0 | 7,7
weights = 0.9,0.1
noise_sigma = 0.6
seed = 5
linear_target_weights = 1.0,-0.5

[embedding]
perplexity = 10
iterations = 100
seed = 2

[partition]
gamma = 0.3

[train]
model = quadratic
optimizers = sgd,adam
samplers = srs,typicality
eta = auto
adam_eta = 0.05
iterations = 60
m = 10
eval_every = 5
seeds = 0,1
threshold = 1e-3
val_fraction = 0.1
val_seed = 77
"""


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("tiny")
    config = root / "run.ini"
    config.write_text(TINY)
    out = root / "out"
    for cmd in ("gen", "embed", "partition", "train"):
        assert cli.main([cmd, "--config", str(config), "--out", str(out), "--mkdir"]) == 0
    x_all, y_all = checks.load_dataset(out / "dataset.csv")
    keep = checks.train_rows(x_all.shape[0], 0.1, 77)
    return out, x_all[keep], y_all[keep]


def test_partition_file_catches_flipped_label(tiny_run, tmp_path):
    out, x, _ = tiny_run
    h, l, dens = checks.load_partition(out / "partition.csv")
    assert all(outcome(checks.check_partition_file, h, l, dens, x.shape[0], 0.3).values())
    flipped = tmp_path / "partition.csv"
    text = (out / "partition.csv").read_text().replace(f"\n{h[0]},H,", f"\n{h[0]},L,", 1)
    flipped.write_text(text)
    fh, fl, fd = checks.load_partition(flipped)
    assert not outcome(checks.check_partition_file, fh, fl, fd, x.shape[0], 0.3)["partition_size"]
    dens = dens.copy()
    dens[l[0]] = dens.max() * 2
    assert not outcome(checks.check_partition_file, h, l, dens, x.shape[0], 0.3)["partition_density_order"]


def test_training_artifacts_catch_perturbed_theta_and_row(tiny_run, tmp_path):
    out, x, y = tiny_run
    assert all(outcome(checks.check_training_artifacts, out, x, y, 1e-3).values())
    bad = tmp_path / "bad"
    shutil.copytree(out, bad)
    theta_path = bad / "theta_srs_sgd_seed0.csv"
    lines = theta_path.read_text().splitlines()
    lines[-1] = repr(float(lines[-1]) + 1e-3)
    theta_path.write_text("\n".join(lines) + "\n")
    result = outcome(checks.check_training_artifacts, bad, x, y, 1e-3)
    assert not result["theta_final_loss.srs_sgd_seed0"]
    assert sum(not ok for ok in result.values()) == 1

    bad2 = tmp_path / "bad2"
    shutil.copytree(out, bad2)
    comparison = bad2 / "comparison.csv"
    rows = comparison.read_text().splitlines()
    i = next(i for i, r in enumerate(rows) if r.startswith("typicality,sgd,1,"))
    cells = rows[i].split(",")
    cells[3] = "" if cells[3] != "" else "5"
    rows[i] = ",".join(cells)
    comparison.write_text("\n".join(rows) + "\n")
    assert not outcome(checks.check_training_artifacts, bad2, x, y, 1e-3)["comparison_row.typicality_sgd_seed1"]


def test_alpha_csv_row_checked_against_own_estimate(tiny_run):
    out, x, y = tiny_run
    _, rows = checks.read_csv(out / "alpha.csv")
    alpha = float(rows[0][1])
    h, l, _ = checks.load_partition(out / "partition.csv")
    moments = checks.error_moments(checks.ls_gradients(x, y, np.zeros(2)), h, l, 10, 8, 50_000, seed=4)
    assert all(outcome(checks.check_alpha, alpha, moments, False).values())
    assert not outcome(checks.check_alpha, alpha * 1.01, moments, False)["alpha_vs_inclusion_probabilities"]


def test_verify_report_catches_a_failed_assertion(tmp_path):
    path = tmp_path / "verify_report.csv"
    path.write_text("# typsgd\nkind,name,status,detail\nASSERTED,a,PASS,x\nREPORTED,b,INFO,y\n")
    assert outcome(checks.check_verify_report, path)["verify_asserted_pass"]
    path.write_text("# typsgd\nkind,name,status,detail\nASSERTED,a,PASS,x\nASSERTED,c,FAIL,z\n")
    assert not outcome(checks.check_verify_report, path)["verify_asserted_pass"]


def test_determinism_compare_sees_one_changed_byte(tiny_run, tmp_path):
    out, _, _ = tiny_run
    copy = tmp_path / "copy"
    shutil.copytree(out, copy)
    assert checks.artifact_bytes(copy) == checks.artifact_bytes(out)
    svg = next(copy.glob("*.svg"))
    data = bytearray(svg.read_bytes())
    data[-2] ^= 1
    svg.write_bytes(bytes(data))
    assert checks.artifact_bytes(copy) != checks.artifact_bytes(out)

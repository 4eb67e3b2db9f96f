import multiprocessing
from functools import partial

import numpy as np
import pytest

from typsgd import _parallel, verify
from typsgd.cli import EXIT_USAGE, main
from typsgd.errors import NumericError
from typsgd.models import QuadraticModel
from typsgd.sampling import SrsScheme, draw_batches, resolve_strata, validate_plan
from typsgd.verify import (
    check_gradients,
    check_inclusion,
    check_recursion,
    leading_scheme,
    random_gradient_family,
    random_partition,
    random_plan,
    representative_h_instance,
    run_verification,
    zero_sum_instance,
)


def test_random_families_are_valid(rng):
    for _ in range(50):
        grads = random_gradient_family(rng)
        part = random_partition(rng, grads.n_samples)
        plan = random_plan(rng, part)
        validate_plan(plan, part)  # raises on any inconsistency
        assert part.n_total == grads.n_samples


def test_zero_sum_instances_have_vanishing_sums(rng):
    for _ in range(20):
        grads, part, plan = zero_sum_instance(rng)
        h = grads.per_sample[part.h_indices]
        l = grads.per_sample[part.l_indices]
        assert np.linalg.norm(h.sum(axis=0)) <= 1e-12
        assert np.linalg.norm(l.sum(axis=0)) <= 1e-12
        assert np.all(grads.reference == 0.0)


def test_representative_instances_satisfy_total_reading(rng):
    for _ in range(20):
        grads, part, plan = representative_h_instance(rng)
        h_sum = grads.per_sample[part.h_indices].sum(axis=0)
        total = grads.per_sample.sum(axis=0)
        assert np.allclose(h_sum, total, atol=1e-10)
        # plan oversamples H at the recommended 80/20 split
        assert plan.n1 * part.n2 >= plan.n2 * part.n1
        assert plan.n1 == round(0.8 * plan.m)


def test_gradient_check_reads_the_batched_gradient(monkeypatch):
    # the finite-difference oracle must see the gradient training uses
    assert check_gradients(np.random.default_rng(0)).passed is True
    exact = QuadraticModel.per_sample_grads
    monkeypatch.setattr(QuadraticModel, "per_sample_grads", lambda self, theta, X, Y: exact(self, theta, X, Y) + 1e-3)
    result = check_gradients(np.random.default_rng(0))
    assert result.name == "gradient_finite_difference"
    assert result.passed is False


def test_inclusion_check_catches_a_biased_sampler():
    fixed = check_inclusion(SrsScheme(m=2), 4, lambda r, count: np.tile([0, 1], (count, 1)), seed=11)
    assert not fixed.passed
    hl = leading_scheme(3, 9, m=3, n1=2)
    # three uniform draws from all nine ids include H members at 1/3, not n1/N1 = 2/3
    unsplit = check_inclusion(hl, 9, partial(draw_batches, resolve_strata(SrsScheme(m=3), 9)), seed=13)
    assert not unsplit.passed


def test_recursion_check_names_its_path():
    result = check_recursion(np.random.default_rng(0), SrsScheme(m=2))
    assert result.detail.startswith("30 closed-form steps, min slack rhs - lhs = ")
    assert result.passed is True


@pytest.mark.parametrize("seed", [0, 3])
def test_report_is_the_same_at_any_pool_size(monkeypatch, seed):
    reports = []
    for cpus in (1, 2, 3):
        monkeypatch.setattr(_parallel, "usable_cpus", lambda: cpus)
        reports.append(run_verification(seed=seed, instances=8))
    assert reports[1] == reports[0] and reports[2] == reports[0]
    assert not multiprocessing.active_children()


def fails(*args):
    raise NumericError("injected failure")


@pytest.mark.parametrize("check", ["check_kde_normalization", "check_growth_bound"])
def test_a_failing_pooled_check_raises_out_of_the_suite(monkeypatch, tmp_path, capsys, check):
    monkeypatch.setattr(_parallel, "usable_cpus", lambda: 2)
    monkeypatch.setattr(verify, check, fails)
    with pytest.raises(NumericError, match="injected"):
        run_verification(seed=0, instances=8)
    assert not multiprocessing.active_children()
    config = tmp_path / "verify.ini"
    config.write_text(f"[verify]\nseed = 0\ninstances = 8\n[output]\ndir = {tmp_path}\n")
    assert main(["verify", "--config", str(config)]) == EXIT_USAGE
    assert "injected failure" in capsys.readouterr().err
    assert not multiprocessing.active_children()
    assert not (tmp_path / "verify_report.csv").exists()

import warnings

import numpy as np
import pytest

from typsgd.data import Dataset
from typsgd.density import Partition
from typsgd.errors import InvalidArgumentError
from typsgd.models import QuadraticModel, mean_loss, quadratic_constants
from typsgd.optimize import (
    Adam,
    Sgd,
    TrainState,
    adam_step,
    descent_recursion_check,
    load_trace_rows,
    save_trace,
    sgd_step,
    train,
)
from typsgd.sampling import Batch, SrsScheme, StratifiedScheme, make_plan


def full_batch(n):
    return Batch(indices=np.arange(n))


def half_partition(n):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return Partition(h_indices=np.arange(n // 2), l_indices=np.arange(n // 2, n), gamma=0.5)


class TestSgdStep:
    def test_full_batch_contraction(self, small_quadratic, rng):
        # closed-form GD oracle: the J-gap contracts at least as fast as
        # (1 - mu/L)^2 per full-gradient step at eta = 1/L
        ds, spec = small_quadratic
        model = QuadraticModel()
        theta = spec.exact_minimizer + rng.normal(size=2)
        state = TrainState(theta=theta, learning_rate=1.0 / spec.lipschitz_L)
        for _ in range(5):
            gap = mean_loss(model, ds, state.theta) - spec.exact_optimum_value
            state = sgd_step(state, model, ds, full_batch(ds.n_samples))
            new_gap = mean_loss(model, ds, state.theta) - spec.exact_optimum_value
            bound = (1.0 - spec.strong_convexity_mu / spec.lipschitz_L) ** 2
            assert new_gap <= bound * gap + 1e-12

    def test_zero_gradient_fixed_point(self, small_quadratic):
        ds, spec = small_quadratic
        state = TrainState(theta=spec.exact_minimizer, learning_rate=0.1)
        after = sgd_step(state, QuadraticModel(), ds, full_batch(ds.n_samples))
        assert np.allclose(after.theta, spec.exact_minimizer, atol=1e-12)
        assert after.iteration == 1

    def test_zero_learning_rate(self, small_quadratic, rng):
        ds, _ = small_quadratic
        theta = rng.normal(size=2)
        state = TrainState(theta=theta, learning_rate=0.0)
        after = sgd_step(state, QuadraticModel(), ds, full_batch(ds.n_samples))
        assert np.array_equal(after.theta, theta) and after.iteration == 1


class TestAdamStep:
    def test_constant_gradient_step_magnitude(self):
        # with a constant gradient the bias-corrected update magnitude is
        # eta * |g| / (|g| + eps), within 1% of eta immediately
        ds = Dataset(features=np.array([[1.0, 0.0]]), targets=np.array([[10.0]]))
        state = TrainState(theta=np.array([0.0, 0.0]), learning_rate=0.05)
        model = QuadraticModel()
        for _ in range(10):
            prev = state.theta.copy()
            state = adam_step(state, model, ds, full_batch(1))
            delta = np.abs(state.theta - prev)
            assert delta[0] == pytest.approx(0.05, rel=0.01)

    def test_zero_gradient_stationary(self, small_quadratic):
        ds, spec = small_quadratic
        state = TrainState(theta=spec.exact_minimizer.copy(), learning_rate=0.05)
        g0 = QuadraticModel().per_sample_grads(spec.exact_minimizer, ds.features, ds.targets[:, 0])
        # exact fixed point only when every per-sample gradient is zero
        ds_zero = Dataset(features=ds.features, targets=(ds.features @ spec.exact_minimizer)[:, None])
        state = adam_step(state, QuadraticModel(), ds_zero, full_batch(ds.n_samples))
        assert np.allclose(state.theta, spec.exact_minimizer)
        assert g0.shape == (8, 2)

    def test_deterministic_traces(self, small_quadratic):
        ds, spec = small_quadratic
        runs = [
            train(QuadraticModel(), ds, SrsScheme(m=3), Adam(eta=0.05), 40, seed=5, eval_every=5, model_spec=spec)
            for _ in range(2)
        ]
        assert [r.train_loss for r in runs[0].records] == [r.train_loss for r in runs[1].records]


class TestTrain:
    def test_full_batch_bound_over_200_iterations(self, small_quadratic):
        ds, spec = small_quadratic
        trace = train(
            QuadraticModel(), ds, SrsScheme(m=ds.n_samples), Sgd(eta=1.0 / spec.lipschitz_L),
            200, seed=0, eval_every=200, model_spec=spec,
        )
        rho = 1.0 - spec.strong_convexity_mu / spec.lipschitz_L
        initial = trace.records[0].subopt
        assert trace.records[-1].subopt <= rho**200 * initial + 1e-15

    def test_zero_iterations_rejected(self, small_quadratic):
        ds, spec = small_quadratic
        with pytest.raises(InvalidArgumentError):
            train(QuadraticModel(), ds, SrsScheme(m=2), Sgd(eta=0.1), 0, seed=0)

    def test_full_batch_srs_is_deterministic_gd(self, small_quadratic):
        # with m = N the batch is always the whole set: compare against an
        # explicit gradient-descent loop
        ds, spec = small_quadratic
        model = QuadraticModel()
        eta = 1.0 / spec.lipschitz_L
        trace = train(model, ds, SrsScheme(m=ds.n_samples), Sgd(eta=eta), 30, seed=3,
                      eval_every=1, model_spec=spec, record_thetas=True)
        theta = model.init_theta(ds, 3)
        for k, recorded in trace.thetas:
            assert np.allclose(theta, recorded, atol=1e-12), k
            grads = model.per_sample_grads(theta, ds.features, ds.targets[:, 0])
            theta = theta - eta * np.sum(grads, axis=0) / ds.n_samples

    def test_no_blowup_at_theory_stepsize(self, small_quadratic):
        ds, spec = small_quadratic
        for seed in range(5):
            for scheme in (SrsScheme(m=2), SrsScheme(m=4)):
                trace = train(QuadraticModel(), ds, scheme, Sgd(eta=1.0 / spec.lipschitz_L),
                              150, seed=seed, eval_every=5, model_spec=spec)
                losses = [r.train_loss for r in trace.records]
                assert max(losses) <= 10.0 * losses[0]

    def test_partition_mismatch_rejected_before_start(self, small_quadratic):
        ds, _ = small_quadratic
        part = half_partition(6)  # dataset has 8 samples
        plan = make_plan(2, 1, part)
        with pytest.raises(InvalidArgumentError):
            train(QuadraticModel(), ds, StratifiedScheme(part, plan), Sgd(eta=0.1), 5, seed=0)

    def test_validation_and_alpha_recording(self, small_quadratic, rng):
        ds, spec = small_quadratic
        val = Dataset(features=rng.normal(size=(4, 2)), targets=rng.normal(size=(4, 1)))
        part = half_partition(8)
        plan = make_plan(2, 1, part)
        trace = train(
            QuadraticModel(), ds, StratifiedScheme(part, plan), Sgd(eta=1.0 / spec.lipschitz_L),
            20, seed=1, eval_every=10, model_spec=spec, val_data=val, alpha_probe=(part, plan),
        )
        for rec in trace.records:
            assert rec.val_loss is not None and rec.val_loss >= 0.0
            assert rec.alpha is not None and rec.alpha >= 0.0
            assert rec.subopt is not None

    def test_batch_log_replay(self, small_quadratic, tmp_path):
        from typsgd.sampling import load_batch_log

        ds, spec = small_quadratic
        path = tmp_path / "batches.csv"
        train(QuadraticModel(), ds, SrsScheme(m=3), Sgd(eta=0.01), 10, seed=11,
              eval_every=5, batch_log_path=path)
        logged = load_batch_log(path)
        rng = np.random.default_rng(11)
        for k, idx in logged:
            expected = rng.choice(8, size=3, replace=False)
            assert np.array_equal(idx, expected), k


class TestRecursionCheck:
    def test_full_batch_zero_noise(self, small_quadratic):
        ds, spec = small_quadratic
        report = descent_recursion_check(
            QuadraticModel(), ds, SrsScheme(m=ds.n_samples), spec, k_steps=10, mc_batches=10, seed=0,
        )
        assert report.exact and report.holds_all
        contraction = 1.0 - spec.strong_convexity_mu / spec.lipschitz_L
        for step in report.steps:
            # e_k = 0: the rhs reduces to the pure contraction term
            assert step.lhs <= step.rhs
            assert step.standard_error == 0.0

    def test_enumerated_srs_holds_every_step(self, small_quadratic):
        ds, spec = small_quadratic
        report = descent_recursion_check(
            QuadraticModel(), ds, SrsScheme(m=2), spec, k_steps=30, mc_batches=28, seed=5,
        )
        assert report.exact
        assert all(s.lhs <= s.rhs for s in report.steps)

    def test_enumerated_typicality_holds(self, small_quadratic):
        ds, spec = small_quadratic
        part = half_partition(8)
        scheme = StratifiedScheme(part, make_plan(2, 1, part))
        report = descent_recursion_check(QuadraticModel(), ds, scheme, spec, k_steps=30, mc_batches=16, seed=6)
        assert report.exact and report.holds_all

    def test_monte_carlo_mode(self, small_quadratic):
        ds, spec = small_quadratic
        report = descent_recursion_check(
            QuadraticModel(), ds, SrsScheme(m=4), spec, k_steps=5, mc_batches=50, seed=2,
        )
        assert not report.exact
        assert all(s.standard_error > 0.0 for s in report.steps)
        assert report.holds_all


def test_trace_round_trip(tmp_path, small_quadratic):
    ds, spec = small_quadratic
    trace = train(QuadraticModel(), ds, SrsScheme(m=2), Sgd(eta=0.05), 12, seed=4,
                  eval_every=4, model_spec=spec)
    path = tmp_path / "trace.csv"
    save_trace(path, trace, config_digest="abc123")
    rows = load_trace_rows(path)
    assert [r["iteration"] for r in rows] == [rec.iteration for rec in trace.records]
    assert rows[0]["train_loss"] == trace.records[0].train_loss  # exact repr round-trip
    assert rows[0]["sampler"] == "srs" and rows[0]["seed"] == 4
    first_line = path.read_text().splitlines()[0]
    assert first_line.startswith("#") and "config=abc123" in first_line

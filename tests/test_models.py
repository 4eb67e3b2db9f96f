import math

import numpy as np
import pytest

from typsgd.data import Dataset
from typsgd.errors import InvalidArgumentError, NumericError
from typsgd.models import (
    MODEL_KINDS,
    GradientFamily,
    LogisticModel,
    ModelSpec,
    QuadraticModel,
    _targets_for,
    estimate_growth_bounds,
    gradient_family,
    load_theta,
    mean_loss,
    per_sample_gradients,
    quadratic_constants,
    save_theta,
)


def central_difference(model, dataset, theta, index, h=1e-5):
    """Independent oracle: central finite differences of one sample's loss, on its one-row dataset."""
    row = Dataset(features=dataset.features[index : index + 1], targets=dataset.targets[index : index + 1])
    grad = np.empty_like(theta)
    for j in range(theta.shape[0]):
        plus, minus = theta.copy(), theta.copy()
        plus[j] += h
        minus[j] -= h
        grad[j] = (mean_loss(model, row, plus) - mean_loss(model, row, minus)) / (2 * h)
    return grad


def relative_error(a, b):
    return np.linalg.norm(a - b) / max(1.0, np.linalg.norm(a), np.linalg.norm(b))


def test_quadratic_hand_example():
    ds = Dataset(features=np.array([[1.0, 0.0]]), targets=np.array([[0.0]]))
    model, theta = QuadraticModel(), np.array([2.0, 5.0])
    assert model.losses(theta, ds.features, ds.targets[:, 0])[0] == pytest.approx(2.0)
    assert np.allclose(per_sample_gradients(model, ds, theta)[0], [2.0, 0.0])


def test_logistic_at_origin():
    ds = Dataset(features=np.array([[1.0, 2.0], [1.0, 2.0]]), targets=np.array([[1.0], [0.0]]))
    model = LogisticModel()
    losses = model.losses(np.zeros(2), ds.features, ds.targets[:, 0])
    grads = per_sample_gradients(model, ds, np.zeros(2))
    for i, y_signed in ((0, 1.0), (1, -1.0)):
        assert losses[i] == pytest.approx(math.log(2.0))
        assert np.allclose(grads[i], -0.5 * y_signed * ds.features[i])


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_targets_for_reads_the_declared_columns(kind, rng):
    targets = rng.normal(0.0, 1.0, (5, 3))
    read = _targets_for(MODEL_KINDS[kind](), Dataset(features=rng.normal(0.0, 1.0, (5, 4)), targets=targets))
    # the conv model regresses every target column; the others read the first as a vector
    np.testing.assert_array_equal(read, targets if kind == "conv" else targets[:, 0])


# every registered model, so none skips the oracle; the conv model regresses a 3-vector
@pytest.mark.parametrize(
    "model,target_width",
    [(cls(), 3 if kind == "conv" else 1) for kind, cls in MODEL_KINDS.items()],
)
def test_gradients_match_finite_differences(model, target_width, rng):
    n, d = 10, 6
    feats = rng.normal(0.0, 1.0, (n, d))
    targets = rng.normal(0.0, 1.0, (n, target_width))
    if model.kind == "logistic":
        targets = (targets > 0).astype(float)
    ds = Dataset(features=feats, targets=targets)
    for _ in range(20):
        theta = rng.normal(0.0, 0.5, model.param_dim(ds))
        idx = int(rng.integers(n))
        analytic = per_sample_gradients(model, ds, theta)[idx]
        numeric = central_difference(model, ds, theta, idx)
        assert relative_error(analytic, numeric) <= 1e-5


class TestFullGradient:
    def test_single_sample(self, rng):
        ds = Dataset(features=rng.normal(size=(1, 3)), targets=rng.normal(size=(1, 1)))
        theta = rng.normal(size=3)
        g = per_sample_gradients(QuadraticModel(), ds, theta)[0]
        assert np.allclose(gradient_family(QuadraticModel(), ds, theta).reference, g)

    def test_duplication_invariance(self, rng):
        feats = rng.normal(size=(5, 3))
        targs = rng.normal(size=(5, 1))
        ds = Dataset(features=feats, targets=targs)
        doubled = Dataset(features=np.vstack([feats, feats]), targets=np.vstack([targs, targs]))
        theta = rng.normal(size=3)
        assert np.allclose(
            gradient_family(QuadraticModel(), ds, theta).reference,
            gradient_family(QuadraticModel(), doubled, theta).reference,
            atol=1e-12,
        )

    def test_matches_normal_equation_form(self, rng):
        x = rng.normal(size=(12, 4))
        y = rng.normal(size=12)
        ds = Dataset(features=x, targets=y[:, None])
        w = rng.normal(size=4)
        expected = x.T @ (x @ w - y) / 12  # closed-form oracle
        assert np.allclose(gradient_family(QuadraticModel(), ds, w).reference, expected, atol=1e-10)


class TestQuadraticConstants:
    def test_identity_design(self):
        ds = Dataset(features=np.eye(2), targets=np.array([[1.0], [1.0]]))
        spec = quadratic_constants(ds)
        assert spec.lipschitz_L == pytest.approx(0.5)
        assert spec.strong_convexity_mu == pytest.approx(0.5)
        assert np.allclose(spec.exact_minimizer, [1.0, 1.0])

    def test_gradient_vanishes_at_minimizer(self, small_quadratic):
        ds, spec = small_quadratic
        g = gradient_family(QuadraticModel(), ds, spec.exact_minimizer).reference
        assert np.linalg.norm(g) <= 1e-9

    def test_rank_deficient_raises(self):
        feats = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
        ds = Dataset(features=feats, targets=np.ones((3, 1)))
        with pytest.raises(InvalidArgumentError):
            quadratic_constants(ds)

    def test_lipschitz_and_convexity_inequalities(self, small_quadratic, rng):
        ds, spec = small_quadratic
        model = QuadraticModel()
        for _ in range(100):
            a, b = rng.normal(size=2), rng.normal(size=2)
            ga, gb = gradient_family(model, ds, a).reference, gradient_family(model, ds, b).reference
            assert np.linalg.norm(ga - gb) <= spec.lipschitz_L * np.linalg.norm(a - b) * (1 + 1e-9)
            ja, jb = mean_loss(model, ds, a), mean_loss(model, ds, b)
            lower = ja + ga @ (b - a) + 0.5 * spec.strong_convexity_mu * np.sum((b - a) ** 2)
            assert jb >= lower - 1e-9 * max(1.0, abs(jb))

    def test_growth_bounds_cover_probes(self, small_quadratic):
        ds, spec = small_quadratic
        model = QuadraticModel()
        beta1, beta2, probes = estimate_growth_bounds(model, ds, spec.exact_minimizer)
        assert beta2 >= 1.0
        for theta in probes:
            grads = model.per_sample_grads(theta, ds.features, ds.targets[:, 0])
            full = grads.mean(axis=0)
            worst = np.max(np.sum(grads * grads, axis=1))
            assert worst <= (beta1 + beta2 * (full @ full)) * (1 + 1e-9)


def test_model_spec_validation():
    with pytest.raises(InvalidArgumentError):
        ModelSpec(lipschitz_L=1.0, strong_convexity_mu=2.0)
    with pytest.raises(InvalidArgumentError):
        ModelSpec(growth_bound_beta2=0.5)


def test_numeric_error_carries_sample_id():
    ds = Dataset(features=np.array([[1e200, 0.0], [1.0, 1.0]]), targets=np.zeros((2, 1)))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericError) as err:
        per_sample_gradients(QuadraticModel(), ds, np.array([1e200, 0.0]))
    assert err.value.sample_index == 0


def test_theta_round_trip(tmp_path, rng):
    theta = rng.normal(size=7)
    path = tmp_path / "theta.csv"
    save_theta(path, "mlp", theta)
    kind, back = load_theta(path)
    assert kind == "mlp"
    assert np.array_equal(back, theta)


def test_gradient_family_validation(rng):
    with pytest.raises(InvalidArgumentError):
        GradientFamily(per_sample=rng.normal(size=(3, 2)), reference=np.zeros(3))
    with pytest.raises(InvalidArgumentError):
        GradientFamily(per_sample=np.array([[np.inf, 0.0]]), reference=np.zeros(2))

"""Per-sample differentiable models and their exact constants.

Each model derives its per-sample losses once (``losses``) and its
per-sample gradients once (``per_sample_grads``), both batched over rows,
and declares the target columns they read (``target_columns``). Every
mean over the samples comes from here: :func:`mean_loss` for the loss and
:func:`gradient_family` for the per-sample gradients with their mean.
The quadratic model additionally yields exact smoothness (L), strong
convexity (mu) and minimizer values, which the convergence checks rely on.
All gradients are hand-derived; the verify suite and the tests check
``per_sample_grads`` against central finite differences of ``losses`` on a
one-row slice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._csvio import finite, read_table, write_rows
from .data import Dataset
from .errors import CsvFormatError, InvalidArgumentError, NumericError


@dataclass(frozen=True)
class ModelSpec:
    """Known analytic constants of a model/dataset pair.

    Fields are None when the constant is not available (e.g. no closed-form
    minimizer for the MLP). ``growth_bound_beta2`` is an empirical estimate
    over a probe grid, not a proven bound.
    """

    lipschitz_L: float | None = None
    strong_convexity_mu: float | None = None
    growth_bound_beta2: float | None = None
    exact_minimizer: np.ndarray | None = None
    exact_optimum_value: float | None = None

    def __post_init__(self):
        L, mu = self.lipschitz_L, self.strong_convexity_mu
        if L is not None and mu is not None and mu > L * (1 + 1e-12):
            raise InvalidArgumentError(f"mu={mu} exceeds L={L}")
        if self.growth_bound_beta2 is not None and self.growth_bound_beta2 < 1:
            raise InvalidArgumentError("beta2 must be >= 1")


@dataclass(frozen=True)
class GradientFamily:
    """Per-sample gradients at a fixed parameter point.

    ``per_sample`` is N x P (row i is the gradient of sample i's loss);
    ``reference`` is the gradient the batch estimator is judged against,
    normally the N-sample mean.
    """

    per_sample: np.ndarray
    reference: np.ndarray

    def __post_init__(self):
        g = np.atleast_2d(np.asarray(self.per_sample, dtype=np.float64))
        r = np.atleast_1d(np.asarray(self.reference, dtype=np.float64))
        if g.shape[1] != r.shape[0]:
            raise InvalidArgumentError("reference length must match gradient width")
        if not (np.all(np.isfinite(g)) and np.all(np.isfinite(r))):
            raise InvalidArgumentError("gradients must be finite")
        object.__setattr__(self, "per_sample", g)
        object.__setattr__(self, "reference", r)

    @property
    def n_samples(self) -> int:
        return self.per_sample.shape[0]


def _signed_labels(y):
    return np.where(np.asarray(y, dtype=np.float64) > 0, 1.0, -1.0)


class _LinearModel:
    """A model of one weight per feature, started at zero, on one target column."""

    target_columns = 0

    def param_dim(self, dataset: Dataset) -> int:
        return dataset.n_features

    def init_theta(self, dataset: Dataset, seed: int) -> np.ndarray:
        return np.zeros(dataset.n_features)


class QuadraticModel(_LinearModel):
    """Least-squares regression: loss_i = (w . x_i - y_i)^2 / 2."""

    kind = "quadratic"

    def per_sample_grads(self, theta, X, Y):
        r = X @ theta - Y
        return r[:, None] * X

    def losses(self, theta, X, Y):
        r = X @ theta - Y
        return 0.5 * r * r


class LogisticModel(_LinearModel):
    """Binary logistic regression with log-loss; labels in {0,1} or {-1,+1}."""

    kind = "logistic"

    def per_sample_grads(self, theta, X, Y):
        ys = _signed_labels(Y)
        z = ys * (X @ theta)
        # sigma(-z) = exp(-log(1 + e^z)), by the log-sum-exp that ``losses`` uses too
        return (-ys * np.exp(-np.logaddexp(0.0, z)))[:, None] * X

    def losses(self, theta, X, Y):
        ys = _signed_labels(Y)
        z = ys * (X @ theta)
        return np.logaddexp(0.0, -z)


class MlpModel:
    """Two-layer perceptron: tanh hidden layer, linear scalar output, squared loss."""

    kind = "mlp"
    target_columns = 0

    def __init__(self, hidden: int = 16):
        if hidden < 1:
            raise InvalidArgumentError("hidden width must be >= 1")
        self.hidden = hidden

    def param_dim(self, dataset: Dataset) -> int:
        d = dataset.n_features
        return self.hidden * d + self.hidden + self.hidden + 1

    def init_theta(self, dataset: Dataset, seed: int) -> np.ndarray:
        d = dataset.n_features
        rng = np.random.default_rng(seed)
        w1 = rng.normal(0.0, 1.0 / np.sqrt(d), size=(self.hidden, d))
        w2 = rng.normal(0.0, 1.0 / np.sqrt(self.hidden), size=self.hidden)
        return np.concatenate([w1.ravel(), np.zeros(self.hidden), w2, [0.0]])

    def _unpack(self, theta, d):
        h = self.hidden
        w1 = theta[: h * d].reshape(h, d)
        b1 = theta[h * d : h * d + h]
        w2 = theta[h * d + h : h * d + 2 * h]
        b2 = theta[-1]
        return w1, b1, w2, b2

    def per_sample_grads(self, theta, X, Y):
        n, d = X.shape
        w1, b1, w2, b2 = self._unpack(theta, d)
        a = np.tanh(X @ w1.T + b1)
        d_out = a @ w2 + b2 - Y
        d_pre = d_out[:, None] * w2[None, :] * (1.0 - a * a)
        g_w1 = np.einsum("nh,nd->nhd", d_pre, X).reshape(n, -1)
        return np.concatenate([g_w1, d_pre, d_out[:, None] * a, d_out[:, None]], axis=1)

    def losses(self, theta, X, Y):
        w1, b1, w2, b2 = self._unpack(theta, X.shape[1])
        a = np.tanh(X @ w1.T + b1)
        r = a @ w2 + b2 - Y
        return 0.5 * r * r


KERNEL_SIZE = 3  # the length of ConvCurveModel's second-difference kernel


class ConvCurveModel:
    """Curve-to-parameters encoder: one 1-D convolution plus a linear readout.

    The length-3 convolution kernel starts at [1, -2, 1] (a second-difference
    filter, which responds exactly at the slope changes of a piecewise-linear
    curve); the readout maps the filter response to the target parameter
    vector under squared loss.
    """

    kind = "conv"
    target_columns = slice(None)

    def _dims(self, dataset: Dataset):
        t = dataset.n_features
        if t < KERNEL_SIZE:
            raise InvalidArgumentError("curve length must be >= kernel size")
        if dataset.targets is None:
            raise InvalidArgumentError("conv model requires targets")
        return t - KERNEL_SIZE + 1, dataset.targets.shape[1]

    def param_dim(self, dataset: Dataset) -> int:
        z, out = self._dims(dataset)
        return KERNEL_SIZE + out * z + out

    def init_theta(self, dataset: Dataset, seed: int) -> np.ndarray:
        z, out = self._dims(dataset)
        rng = np.random.default_rng(seed)
        w = rng.normal(0.0, 0.1 / np.sqrt(z), size=(out, z))
        return np.concatenate([[1.0, -2.0, 1.0], w.ravel(), np.zeros(out)])

    def _unpack(self, theta, z, out):
        k = theta[:KERNEL_SIZE]
        w = theta[KERNEL_SIZE : KERNEL_SIZE + out * z].reshape(out, z)
        b = theta[KERNEL_SIZE + out * z :]
        return k, w, b

    def per_sample_grads(self, theta, X, Y):
        n = X.shape[0]
        windows = sliding_window_view(X, KERNEL_SIZE, axis=1)
        z_len, out = windows.shape[1], Y.shape[1]
        k, w, b = self._unpack(theta, z_len, out)
        z = windows @ k
        r = z @ w.T + b - Y
        d_z = r @ w
        g_k = np.einsum("nt,ntj->nj", d_z, windows)
        g_w = np.einsum("no,nt->not", r, z).reshape(n, -1)
        return np.concatenate([g_k, g_w, r], axis=1)

    def losses(self, theta, X, Y):
        windows = sliding_window_view(X, KERNEL_SIZE, axis=1)
        z_len, out = windows.shape[1], Y.shape[1]
        k, w, b = self._unpack(theta, z_len, out)
        r = (windows @ k) @ w.T + b - Y
        return 0.5 * np.sum(r * r, axis=1)


MODEL_KINDS = {
    "quadratic": QuadraticModel,
    "logistic": LogisticModel,
    "mlp": MlpModel,
    "conv": ConvCurveModel,
}


def _targets_for(model, dataset: Dataset):
    """The target columns ``model`` reads: one column as a vector, or a slice as a matrix."""
    if dataset.targets is None:
        raise InvalidArgumentError(f"{model.kind} model requires targets")
    return dataset.targets[:, model.target_columns]


def per_sample_gradients(model, dataset: Dataset, theta) -> np.ndarray:
    """All per-sample gradients at theta as an N x P matrix."""
    theta = np.asarray(theta, dtype=np.float64)
    grads = model.per_sample_grads(theta, dataset.features, _targets_for(model, dataset))
    bad = ~np.all(np.isfinite(grads), axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        raise NumericError(f"non-finite gradient at sample {i}", sample_index=i)
    return grads


def mean_loss(model, dataset: Dataset, theta) -> float:
    losses = model.losses(np.asarray(theta, dtype=np.float64), dataset.features, _targets_for(model, dataset))
    value = float(np.sum(losses) / dataset.n_samples)
    if not np.isfinite(value):
        raise NumericError("non-finite mean loss")
    return value


def gradient_family(model, dataset: Dataset, theta) -> GradientFamily:
    """Per-sample gradients at theta with the N-sample mean as reference; summation order fixed (numpy pairwise)."""
    grads = per_sample_gradients(model, dataset, theta)
    ref = np.sum(grads, axis=0) / dataset.n_samples
    return GradientFamily(per_sample=grads, reference=ref)


GROWTH_PROBES = 20  # random probes of estimate_growth_bounds, a third at each of three radii


def estimate_growth_bounds(model, dataset: Dataset, center):
    """Empirical (beta1, beta2) so that |grad_i|^2 <= beta1 + beta2 |grad|^2 at probes.

    beta1 is the worst per-sample squared gradient norm at ``center`` (where
    the full gradient is smallest); beta2 covers the growth ratio over
    GROWTH_PROBES random probes around it, at radii 0.1, 1 and 3 times
    max(1, |center|), drawn from seed 0, with a 5% safety factor. Returns
    (beta1, beta2, probes).
    """
    center = np.asarray(center, dtype=np.float64)
    scale = max(1.0, float(np.linalg.norm(center)))
    rng = np.random.default_rng(0)
    probes = [center]
    for r in (0.1 * scale, scale, 3.0 * scale):
        for _ in range(GROWTH_PROBES // 3):
            u = rng.standard_normal(center.shape[0])
            probes.append(center + r * u / np.linalg.norm(u))
    g0 = per_sample_gradients(model, dataset, center)
    beta1 = float(np.max(np.sum(g0 * g0, axis=1)))
    beta2 = 1.0
    for theta in probes[1:]:
        family = gradient_family(model, dataset, theta)
        grads, full = family.per_sample, family.reference
        denom = float(full @ full)
        if denom < 1e-18:
            continue
        worst = float(np.max(np.sum(grads * grads, axis=1)))
        beta2 = max(beta2, (worst - beta1) / denom)
    return beta1 * 1.05, max(1.0, beta2 * 1.05), probes


def quadratic_constants(dataset: Dataset) -> ModelSpec:
    """Exact L, mu, minimizer and optimum of the quadratic model on a dataset.

    L and mu are the extreme eigenvalues of X^T X / N; the minimizer solves
    the normal equations. Raises if X^T X is rank deficient.
    """
    model = QuadraticModel()
    x, y = dataset.features, _targets_for(model, dataset)
    n = dataset.n_samples
    gram = (x.T @ x) / n
    eigs = np.linalg.eigvalsh(gram)
    if eigs[0] <= 1e-12 * max(eigs[-1], 1.0):
        raise InvalidArgumentError("X^T X is rank deficient; quadratic constants undefined")
    theta_star = np.linalg.solve(gram * n, x.T @ y)
    opt = mean_loss(model, dataset, theta_star)
    _, beta2, _ = estimate_growth_bounds(model, dataset, theta_star)
    return ModelSpec(
        lipschitz_L=float(eigs[-1]),
        strong_convexity_mu=float(eigs[0]),
        growth_bound_beta2=beta2,
        exact_minimizer=theta_star,
        exact_optimum_value=opt,
    )


def save_theta(path, model_kind: str, theta, config_digest: str = "none", seed=None) -> None:
    """Persist a flat parameter vector with a (model kind, dim) header."""
    theta = np.asarray(theta, dtype=np.float64)
    header = [f"theta[{model_kind}:{theta.shape[0]}]"]
    write_rows(path, theta[:, None].tolist(), header=header, config_digest=config_digest, seed=seed)


def load_theta(path) -> tuple[str, np.ndarray]:
    """Load a parameter vector saved by :func:`save_theta`."""
    header, rows = read_table(path, (finite,), has_header=True)
    tag = header[0]
    kind, dim = tag[tag.index("[") + 1 : tag.index("]")].split(":")
    if len(rows) != int(dim):
        raise CsvFormatError(f"{path}: expected {dim} parameters, found {len(rows)}", row=min(len(rows), int(dim)), column=0)
    return kind, np.array([r[0] for r in rows])

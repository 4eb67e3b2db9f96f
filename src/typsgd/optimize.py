"""Training loops (SGD and Adam) over pluggable batch-selection schemes.

A run is a pure function of (model, dataset, scheme, optimizer, seed): the
batch stream comes from one seeded generator and evaluation happens on a
fixed schedule, so traces are bit-reproducible and paired-seed comparisons
across schemes share their evaluation grid. The recursion check at the
bottom verifies the per-step descent bound along an actual training path,
with batch expectations enumerated exactly whenever the batch space fits
the budget.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from ._csvio import format_number, read_rows, write_rows
from .analysis import formula_alpha
from .data import Dataset
from .errors import InvalidArgumentError, NumericError
from .models import _targets_for, mean_loss, per_sample_gradients
from .sampling import Batch, batch_space_size, draw_indices, enumerate_batches, resolve_strata, save_batch_log


# The step protocol shared by the optimizers: ``init_state(theta)`` gives the
# state before the first step, and ``step(model, theta, x, y, iteration,
# state)`` returns the next (theta, state) from the batch rows (x, y). The
# update math lives in the module-level sgd_step/adam_step, looked up at call
# time so that a wrapper bound to those names sees every step.


@dataclass(frozen=True)
class Sgd:
    """Plain SGD with a fixed learning rate."""

    eta: float
    kind: ClassVar[str] = "sgd"

    def __post_init__(self):
        if self.eta < 0:
            raise InvalidArgumentError("learning rate must be >= 0")

    def init_state(self, theta):
        return None

    def step(self, model, theta, x, y, iteration, state):
        return sgd_step(model, theta, x, y, self.eta, iteration), state


@dataclass(frozen=True)
class Adam:
    """Standard Adam with bias-corrected moments."""

    eta: float
    beta_m: float = 0.9
    beta_v: float = 0.999
    epsilon: float = 1e-8
    kind: ClassVar[str] = "adam"

    def __post_init__(self):
        if not (0.0 <= self.beta_m < 1.0 and 0.0 <= self.beta_v < 1.0):
            raise InvalidArgumentError("Adam moment decays must lie in [0, 1)")

    def init_state(self, theta):
        """First and second moments, zero before the first step."""
        return np.zeros_like(theta), np.zeros_like(theta)

    def step(self, model, theta, x, y, iteration, state):
        theta, m, v = adam_step(
            model, theta, x, y, self.eta, iteration, *state, self.beta_m, self.beta_v, self.epsilon
        )
        return theta, (m, v)


@dataclass(frozen=True)
class TraceRecord:
    iteration: int
    train_loss: float
    val_loss: float | None
    subopt: float | None
    wall_time: float
    sampler: str
    alpha: float | None = None


@dataclass
class TrainTrace:
    records: list[TraceRecord]
    sampler_kind: str
    optimizer_kind: str
    seed: int
    eval_every: int
    thetas: list[tuple[int, np.ndarray]] = field(default_factory=list)

    def iterations_to_threshold(self, threshold: float):
        """First recorded iteration whose suboptimality is <= threshold."""
        return first_reach(((r.iteration, r.subopt) for r in self.records), threshold)


def first_reach(points, threshold: float):
    """First iteration of (iteration, subopt) points with subopt <= threshold, else None."""
    return next((it for it, subopt in points if subopt is not None and subopt <= threshold), None)


def median_reach(reaches) -> float:
    """Median of iterations-to-threshold; a run that never reached it counts as infinity."""
    return float(np.median([np.inf if r is None else r for r in reaches]))


def _batch_mean_gradient(model, theta, x, y):
    return model.per_sample_grads(theta, x, y).sum(axis=0) / x.shape[0]


def _check_finite(theta, iteration: int):
    if not np.isfinite(theta).all():
        raise NumericError(f"non-finite update at iteration {iteration}", iteration=iteration)
    return theta


def sgd_step(model, theta, x, y, eta: float, iteration: int) -> np.ndarray:
    """theta - eta * (mean gradient over the batch rows x, y), the update at step ``iteration``."""
    return _check_finite(theta - eta * _batch_mean_gradient(model, theta, x, y), iteration)


def adam_step(
    model,
    theta,
    x,
    y,
    eta: float,
    iteration: int,
    m,
    v,
    beta_m: float = 0.9,
    beta_v: float = 0.999,
    epsilon: float = 1e-8,
):
    """Bias-corrected moment update at step ``iteration`` (counted from 0); returns (theta, m, v)."""
    grad = _batch_mean_gradient(model, theta, x, y)
    t = iteration + 1
    m = beta_m * m + (1.0 - beta_m) * grad
    v = beta_v * v + (1.0 - beta_v) * grad * grad
    m_hat = m / (1.0 - beta_m**t)
    v_hat = v / (1.0 - beta_v**t)
    return _check_finite(theta - eta * m_hat / (np.sqrt(v_hat) + epsilon), iteration), m, v


def train(
    model,
    dataset: Dataset,
    scheme,
    optimizer,
    iterations: int,
    seed: int,
    eval_every: int = 10,
    val_data: Dataset | None = None,
    model_spec=None,
    theta0: np.ndarray | None = None,
    record_thetas: bool = False,
    alpha_probe=None,
    batch_log_path=None,
) -> TrainTrace:
    """Run a full training loop and record its trace.

    Suboptimality is recorded whenever ``model_spec`` provides the exact
    optimum value. ``alpha_probe`` may be a (partition, plan) pair: at every
    evaluation point the stratified/SRS error ratio is computed from the
    current per-sample gradients and stored on the record.

    The strata are resolved and checked once, before the first step; each
    step then only draws the batch ids, gathers their rows and updates.
    Only a logged batch goes through the checked :class:`Batch`.
    """
    if iterations < 1:
        raise InvalidArgumentError("iterations must be >= 1")
    if eval_every < 1:
        raise InvalidArgumentError("eval_every must be >= 1")
    n = dataset.n_samples
    strata = resolve_strata(scheme, n)
    features, targets = dataset.features, _targets_for(model, dataset)
    rng = np.random.default_rng(seed)
    theta = np.array(theta0, dtype=np.float64) if theta0 is not None else model.init_theta(dataset, seed)
    state = optimizer.init_state(theta)
    trace = TrainTrace(
        records=[],
        sampler_kind=scheme.kind,
        optimizer_kind=optimizer.kind,
        seed=seed,
        eval_every=eval_every,
    )
    batches = []
    start = time.perf_counter()

    def evaluate(iteration, theta):
        loss = mean_loss(model, dataset, theta)
        val = mean_loss(model, val_data, theta) if val_data is not None else None
        subopt = None
        if model_spec is not None and model_spec.exact_optimum_value is not None:
            subopt = loss - model_spec.exact_optimum_value
        alpha = None
        if alpha_probe is not None:
            alpha = formula_alpha(model, dataset, theta, *alpha_probe)
        trace.records.append(
            TraceRecord(
                iteration=iteration,
                train_loss=loss,
                val_loss=val,
                subopt=subopt,
                wall_time=time.perf_counter() - start,
                sampler=trace.sampler_kind,
                alpha=alpha,
            )
        )
        if record_thetas:
            trace.thetas.append((iteration, theta.copy()))

    step = optimizer.step
    for k in range(iterations):
        if k % eval_every == 0:
            evaluate(k, theta)
        idx = draw_indices(strata, rng)
        if batch_log_path is not None:
            batches.append((k, Batch(indices=idx)))
        theta, state = step(model, theta, features[idx], targets[idx], k, state)
    evaluate(iterations, theta)
    if batch_log_path is not None:
        save_batch_log(batch_log_path, batches, seed=seed)
    return trace


@dataclass(frozen=True)
class RecursionStep:
    iteration: int
    lhs: float
    rhs: float
    standard_error: float
    holds: bool


@dataclass(frozen=True)
class RecursionReport:
    steps: tuple[RecursionStep, ...]
    holds_all: bool
    exact: bool


def descent_recursion_check(
    model,
    dataset: Dataset,
    scheme,
    model_spec,
    k_steps: int,
    mc_batches: int,
    seed: int,
    eta: float | None = None,
    theta0: np.ndarray | None = None,
) -> RecursionReport:
    """Check the one-step descent bound along a training path.

    At each visited state the expected next-step optimality gap (lhs) is
    compared with (1 - mu/L) * gap + E||e||^2 / (2L) (rhs). Expectations are
    exact enumerations over all batches when the batch space has at most
    ``mc_batches`` members, otherwise Monte-Carlo with a 3-standard-error
    allowance on the paired difference.
    """
    if model_spec.lipschitz_L is None or model_spec.strong_convexity_mu is None:
        raise InvalidArgumentError("recursion check needs exact L and mu")
    if model_spec.exact_optimum_value is None:
        raise InvalidArgumentError("recursion check needs the exact optimum value")
    big_l = model_spec.lipschitz_L
    contraction = 1.0 - model_spec.strong_convexity_mu / big_l
    eta = 1.0 / big_l if eta is None else eta
    n = dataset.n_samples
    strata = resolve_strata(scheme, n)
    features, targets = dataset.features, _targets_for(model, dataset)
    rng = np.random.default_rng(seed)
    theta = np.array(theta0, dtype=np.float64) if theta0 is not None else model.init_theta(dataset, seed)
    exact = batch_space_size(scheme, n) <= mc_batches

    steps = []
    for k in range(k_steps):
        gap = mean_loss(model, dataset, theta) - model_spec.exact_optimum_value
        grads = per_sample_gradients(model, dataset, theta)
        full_grad = np.sum(grads, axis=0) / n
        if exact:
            index_sets = list(enumerate_batches(scheme, n))
        else:
            index_sets = [draw_indices(strata, rng) for _ in range(mc_batches)]
        next_gaps = np.empty(len(index_sets))
        err_sqs = np.empty(len(index_sets))
        for b, idx in enumerate(index_sets):
            batch_grad = grads[idx].sum(axis=0) / idx.shape[0]
            next_gaps[b] = mean_loss(model, dataset, theta - eta * batch_grad) - model_spec.exact_optimum_value
            err = batch_grad - full_grad
            err_sqs[b] = err @ err
        lhs = float(np.mean(next_gaps))
        rhs = contraction * gap + float(np.mean(err_sqs)) / (2.0 * big_l)
        if exact:
            se = 0.0
        else:
            paired = next_gaps - contraction * gap - err_sqs / (2.0 * big_l)
            se = float(np.std(paired, ddof=1) / math.sqrt(len(index_sets)))
        steps.append(
            RecursionStep(iteration=k, lhs=lhs, rhs=rhs, standard_error=se, holds=lhs <= rhs + 3.0 * se)
        )
        # advance the path by one real stochastic step
        idx = draw_indices(strata, rng)
        theta = sgd_step(model, theta, features[idx], targets[idx], eta, k)
    return RecursionReport(steps=tuple(steps), holds_all=all(s.holds for s in steps), exact=exact)


def save_trace(path, trace: TrainTrace, config_digest: str = "none") -> None:
    """Persist 'iteration, train_loss, val_loss, subopt, sampler, seed' rows.

    Wall times stay in memory: they would break byte-level reproducibility.
    """

    def cell(v):
        return "" if v is None else format_number(v)

    rows = [
        [r.iteration, format_number(r.train_loss), cell(r.val_loss), cell(r.subopt), r.sampler, trace.seed]
        for r in trace.records
    ]
    write_rows(
        path,
        rows,
        header=["iteration", "train_loss", "val_loss", "subopt", "sampler", "seed"],
        config_digest=config_digest,
        seed=trace.seed,
    )


def load_trace_rows(path):
    _, rows = read_rows(path, has_header=True)
    out = []
    for r in rows:
        out.append(
            {
                "iteration": int(r[0]),
                "train_loss": float(r[1]),
                "val_loss": float(r[2]) if r[2] else None,
                "subopt": float(r[3]) if r[3] else None,
                "sampler": r[4],
                "seed": int(r[5]),
            }
        )
    return out

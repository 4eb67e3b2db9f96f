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
from dataclasses import dataclass, field, replace

import numpy as np

from ._csvio import format_number, read_rows, write_rows
from .data import Dataset
from .errors import InvalidArgumentError, NumericError
from .models import _targets_for, gradient_family, mean_loss, per_sample_gradients
from .sampling import Batch, batch_space_size, draw_batch, enumerate_batches, save_batch_log


@dataclass(frozen=True)
class Sgd:
    """Plain SGD with a fixed learning rate."""

    eta: float

    def __post_init__(self):
        if self.eta < 0:
            raise InvalidArgumentError("learning rate must be >= 0")


@dataclass(frozen=True)
class Adam:
    """Standard Adam with bias-corrected moments."""

    eta: float
    beta_m: float = 0.9
    beta_v: float = 0.999
    epsilon: float = 1e-8

    def __post_init__(self):
        if not (0.0 <= self.beta_m < 1.0 and 0.0 <= self.beta_v < 1.0):
            raise InvalidArgumentError("Adam moment decays must lie in [0, 1)")


@dataclass(frozen=True)
class TrainState:
    """Parameters and per-optimizer bookkeeping at iteration k."""

    theta: np.ndarray
    iteration: int = 0
    learning_rate: float = 0.0
    adam_m: np.ndarray | None = None
    adam_v: np.ndarray | None = None
    adam_t: int = 0


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

    def final_subopt(self):
        return self.records[-1].subopt

    def iterations_to_threshold(self, threshold: float):
        """First recorded iteration whose suboptimality is <= threshold."""
        return first_reach(((r.iteration, r.subopt) for r in self.records), threshold)


def first_reach(points, threshold: float):
    """First iteration of (iteration, subopt) points with subopt <= threshold, else None."""
    return next((it for it, subopt in points if subopt is not None and subopt <= threshold), None)


def median_reach(reaches) -> float:
    """Median of iterations-to-threshold; a run that never reached it counts as infinity."""
    return float(np.median([np.inf if r is None else r for r in reaches]))


def _batch_mean_gradient(model, dataset: Dataset, theta, batch: Batch):
    idx = batch.indices
    grads = model.per_sample_grads(theta, dataset.features[idx], _targets_for(model, dataset)[idx])
    return np.sum(grads, axis=0) / batch.indices.shape[0]


def sgd_step(state: TrainState, model, dataset: Dataset, batch: Batch) -> TrainState:
    """theta <- theta - eta * (batch mean gradient); k <- k + 1."""
    grad = _batch_mean_gradient(model, dataset, state.theta, batch)
    theta = state.theta - state.learning_rate * grad
    if not np.all(np.isfinite(theta)):
        raise NumericError(f"non-finite update at iteration {state.iteration}", iteration=state.iteration)
    return replace(state, theta=theta, iteration=state.iteration + 1)


def adam_step(
    state: TrainState,
    model,
    dataset: Dataset,
    batch: Batch,
    beta_m: float = 0.9,
    beta_v: float = 0.999,
    epsilon: float = 1e-8,
) -> TrainState:
    """Bias-corrected moment update applied to the batch mean gradient."""
    grad = _batch_mean_gradient(model, dataset, state.theta, batch)
    m = state.adam_m if state.adam_m is not None else np.zeros_like(state.theta)
    v = state.adam_v if state.adam_v is not None else np.zeros_like(state.theta)
    t = state.adam_t + 1
    m = beta_m * m + (1.0 - beta_m) * grad
    v = beta_v * v + (1.0 - beta_v) * grad * grad
    m_hat = m / (1.0 - beta_m**t)
    v_hat = v / (1.0 - beta_v**t)
    theta = state.theta - state.learning_rate * m_hat / (np.sqrt(v_hat) + epsilon)
    if not np.all(np.isfinite(theta)):
        raise NumericError(f"non-finite update at iteration {state.iteration}", iteration=state.iteration)
    return replace(state, theta=theta, iteration=state.iteration + 1, adam_m=m, adam_v=v, adam_t=t)


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
    """
    if iterations < 1:
        raise InvalidArgumentError("iterations must be >= 1")
    if eval_every < 1:
        raise InvalidArgumentError("eval_every must be >= 1")
    n = dataset.n_samples
    scheme.strata(n)  # rejects a batch or partition that does not fit the dataset before the first step
    rng = np.random.default_rng(seed)
    theta = np.array(theta0, dtype=np.float64) if theta0 is not None else model.init_theta(dataset, seed)
    state = TrainState(theta=theta, learning_rate=optimizer.eta)
    trace = TrainTrace(
        records=[],
        sampler_kind=scheme.kind,
        optimizer_kind="adam" if isinstance(optimizer, Adam) else "sgd",
        seed=seed,
        eval_every=eval_every,
    )
    batches = []
    start = time.perf_counter()

    def evaluate(st):
        loss = mean_loss(model, dataset, st.theta)
        val = mean_loss(model, val_data, st.theta) if val_data is not None else None
        subopt = None
        if model_spec is not None and model_spec.exact_optimum_value is not None:
            subopt = loss - model_spec.exact_optimum_value
        alpha = None
        if alpha_probe is not None:
            alpha = _alpha_at(model, dataset, st.theta, *alpha_probe)
        trace.records.append(
            TraceRecord(
                iteration=st.iteration,
                train_loss=loss,
                val_loss=val,
                subopt=subopt,
                wall_time=time.perf_counter() - start,
                sampler=trace.sampler_kind,
                alpha=alpha,
            )
        )
        if record_thetas:
            trace.thetas.append((st.iteration, st.theta.copy()))

    for k in range(iterations):
        if k % eval_every == 0:
            evaluate(state)
        batch = draw_batch(scheme, n, rng)
        if batch_log_path is not None:
            batches.append((k, batch))
        if isinstance(optimizer, Adam):
            state = adam_step(state, model, dataset, batch, optimizer.beta_m, optimizer.beta_v, optimizer.epsilon)
        else:
            state = sgd_step(state, model, dataset, batch)
    evaluate(state)
    if batch_log_path is not None:
        save_batch_log(batch_log_path, batches, seed=seed)
    return trace


def _alpha_at(model, dataset, theta, partition, plan):
    # local import: analysis depends on sampling, which this module shares
    from .analysis import srs_error_formula, typicality_error_corrected

    family = gradient_family(model, dataset, theta)
    mse_srs = srs_error_formula(family, plan.m)
    if mse_srs == 0.0:
        return 1.0
    return typicality_error_corrected(family, partition, plan) / mse_srs


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
            index_sets = [draw_batch(scheme, n, rng).indices for _ in range(mc_batches)]
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
        batch = draw_batch(scheme, n, rng)
        state = TrainState(theta=theta, iteration=k, learning_rate=eta)
        theta = sgd_step(state, model, dataset, batch).theta
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

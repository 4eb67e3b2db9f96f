"""Training loops (SGD and Adam) over pluggable batch-selection schemes.

A run is a pure function of (model, dataset, scheme, optimizer, seed): the
batch stream comes from one seeded generator and evaluation happens on a
fixed schedule, so traces are bit-reproducible and paired-seed comparisons
across schemes share their evaluation grid. A trace keeps only what the
run observes (losses, suboptimality and, on request, the parameters and
batch ids); quantities along the path, such as the error ratio alpha, are
derived from the recorded parameters afterwards. A trace on disk reads
back through :func:`load_trace` as the same :class:`TrainTrace`, so the
iterations-to-threshold rule has one home: :func:`first_reach`, which reads
a trace's records or pulls them from the lazy loop :func:`evaluations`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import zip_longest
from typing import ClassVar

import numpy as np

from ._csvio import finite, read_table, write_rows
from .data import Dataset
from .errors import CsvFormatError, InvalidArgumentError, NumericError
from .models import _targets_for, mean_loss
from .sampling import draw_batches, resolve_strata


# Adam's moment decays and denominator guard, read by adam_step at call time
ADAM_BETA_M = 0.9
ADAM_BETA_V = 0.999
ADAM_EPSILON = 1e-8

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
        check_learning_rate(self.eta)

    def init_state(self, theta):
        return None

    def step(self, model, theta, x, y, iteration, state):
        return sgd_step(model, theta, x, y, self.eta, iteration), state


@dataclass(frozen=True)
class Adam:
    """Standard Adam with bias-corrected moments (decays ADAM_BETA_M, ADAM_BETA_V)."""

    eta: float
    kind: ClassVar[str] = "adam"

    def __post_init__(self):
        check_learning_rate(self.eta)

    def init_state(self, theta):
        """First and second moments, zero before the first step."""
        return np.zeros_like(theta), np.zeros_like(theta)

    def step(self, model, theta, x, y, iteration, state):
        theta, m, v = adam_step(model, theta, x, y, self.eta, iteration, *state)
        return theta, (m, v)


@dataclass(frozen=True)
class TraceRecord:
    iteration: int
    train_loss: float
    val_loss: float | None
    subopt: float | None


@dataclass
class TrainTrace:
    records: list[TraceRecord]
    sampler_kind: str
    seed: int
    thetas: list[tuple[int, np.ndarray]] = field(default_factory=list)
    batches: list[tuple[int, np.ndarray]] = field(default_factory=list)  # (iteration, ids) when train logs batches

    def iterations_to_threshold(self, threshold: float):
        """First recorded iteration whose suboptimality is <= threshold, else None."""
        return first_reach(self.records, threshold)


def check_learning_rate(eta: float) -> float:
    """``eta`` as a float; a negative, NaN or infinite learning rate is refused."""
    eta = float(eta)
    if not (np.isfinite(eta) and eta >= 0):
        raise InvalidArgumentError(f"learning rate must be >= 0 and finite, got {eta}")
    return eta


def check_threshold(threshold: float) -> float:
    """``threshold`` as a float; NaN is refused (no run reaches it) and so is an infinite one."""
    threshold = float(threshold)
    if not np.isfinite(threshold):
        raise InvalidArgumentError(f"threshold must be finite, got {threshold}")
    return threshold


def first_reach(records, threshold: float):
    """Iteration of the first record whose suboptimality is <= threshold, else None.

    The one iterations-to-threshold rule. ``records`` may be lazy: no record
    after the first hit is pulled, so a run fed from :func:`evaluations`
    takes no step after its reach.
    """
    threshold = check_threshold(threshold)
    return next((r.iteration for r in records if r.subopt is not None and r.subopt <= threshold), None)


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


def adam_step(model, theta, x, y, eta: float, iteration: int, m, v):
    """Bias-corrected moment update at step ``iteration`` (counted from 0); returns (theta, m, v)."""
    grad = _batch_mean_gradient(model, theta, x, y)
    t = iteration + 1
    m = ADAM_BETA_M * m + (1.0 - ADAM_BETA_M) * grad
    v = ADAM_BETA_V * v + (1.0 - ADAM_BETA_V) * grad * grad
    m_hat = m / (1.0 - ADAM_BETA_M**t)
    v_hat = v / (1.0 - ADAM_BETA_V**t)
    return _check_finite(theta - eta * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON), iteration), m, v


def evaluations(
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
    batch_log: list | None = None,
):
    """The training loop, lazily: yields ``(TraceRecord, theta)`` at each evaluation point.

    The point at iteration k (k = 0, eval_every, 2 * eval_every, ...) is
    yielded before step k runs, and one more after the last step, so a
    consumer that stops pulling stops the run at that point. Suboptimality
    is recorded whenever ``model_spec`` provides the exact optimum value.
    With a ``batch_log`` list, every step's (iteration, ids) pair is
    appended to it.

    The arguments are checked and the strata resolved once, when the first
    point is pulled. The steps read their ids in order from one
    :func:`draw_batches` stream on the run's own generator, so they are the
    batches a per-step draw would give; each step then gathers the rows of
    its ids and updates. Logged ids are rows of a block that is never
    refilled.
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

    def evaluate(iteration, theta):
        loss = mean_loss(model, dataset, theta)
        val = mean_loss(model, val_data, theta) if val_data is not None else None
        subopt = None
        if model_spec is not None and model_spec.exact_optimum_value is not None:
            subopt = loss - model_spec.exact_optimum_value
        return TraceRecord(iteration=iteration, train_loss=loss, val_loss=val, subopt=subopt), theta

    step = optimizer.step
    stream = (ids for block in draw_batches(strata, rng, iterations) for ids in block)
    for k, idx in enumerate(stream):
        if k % eval_every == 0:
            yield evaluate(k, theta)
        if batch_log is not None:
            batch_log.append((k, idx))
        theta, state = step(model, theta, features[idx], targets[idx], k, state)
    yield evaluate(iterations, theta)


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
    log_batches: bool = False,
) -> TrainTrace:
    """Run the whole of :func:`evaluations` and record its trace.

    Every evaluation point becomes a record. With ``record_thetas`` the
    parameters at every evaluation point are kept on ``trace.thetas``; with
    ``log_batches`` every step's (iteration, ids) pair is kept on
    ``trace.batches`` for :func:`save_batch_log`.
    """
    trace = TrainTrace(records=[], sampler_kind=scheme.kind, seed=seed)
    points = evaluations(
        model, dataset, scheme, optimizer, iterations, seed, eval_every, val_data, model_spec, theta0,
        batch_log=trace.batches if log_batches else None,
    )
    for record, theta in points:
        trace.records.append(record)
        if record_thetas:
            trace.thetas.append((record.iteration, theta.copy()))
    return trace


TRACE_COLUMNS = ("iteration", "train_loss", "val_loss", "subopt", "sampler", "seed")


def save_trace(path, trace: TrainTrace, config_digest: str = "none") -> None:
    """Persist 'iteration, train_loss, val_loss, subopt, sampler, seed' rows."""
    rows = [[r.iteration, r.train_loss, r.val_loss, r.subopt, trace.sampler_kind, trace.seed] for r in trace.records]
    write_rows(path, rows, header=TRACE_COLUMNS, config_digest=config_digest, seed=trace.seed)


def loss(cell: str) -> float:
    """A loss cell: a finite number >= 0."""
    value = float(cell)
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(cell)
    return value


def loss_or_empty(cell: str):
    return loss(cell) if cell else None


def finite_or_empty(cell: str):
    return finite(cell) if cell else None


def load_trace(path, iterations: int, eval_every: int) -> TrainTrace:
    """Read a trace that :func:`save_trace` wrote of a run of ``iterations`` steps, evaluated every ``eval_every``.

    Every row must name the same sampler and seed, and the rows must hold
    the iterations :func:`evaluations` yields at, in order: every
    ``eval_every``-th below ``iterations``, then ``iterations``. The losses
    must be finite and >= 0. The suboptimality is given in every row or in
    none; its writer took it as train_loss minus the run's optimal loss, a
    constant >= 0, so train_loss - subopt must be that constant in every
    row, up to the rounding of the two subtractions. Anything else raises
    CsvFormatError naming the row.
    """
    _, rows = read_table(path, (int, loss, loss_or_empty, finite_or_empty, str, int), has_header=True)
    runs = sorted({tuple(row[4:]) for row in rows})
    if len(runs) > 1:
        raise CsvFormatError(f"{path}: the rows name more than one (sampler, seed): {runs}")
    for r, (row, want) in enumerate(zip_longest(rows, [*range(0, iterations, eval_every), iterations])):
        if row is None or row[0] != want:
            got = "no row" if row is None else f"iteration {row[0]}"
            wanted = "no more rows" if want is None else f"iteration {want}"
            raise CsvFormatError(
                f"{path}: row {r}: {got} where the evaluation schedule (every {eval_every} of {iterations} "
                f"steps) has {wanted}", row=r, column=0,
            )
    given = [row[3] is not None for row in rows]
    if not all(given) and any(given):
        r = given.index(not given[0])
        raise CsvFormatError(
            f"{path}: row {r}: subopt is {'empty' if given[0] else 'given'} here but not in row 0", row=r, column=3
        )
    if given[0]:
        eps, first_loss = np.finfo(np.float64).eps, rows[0][1]
        optimum = first_loss - rows[0][3]
        if optimum < -2 * eps * first_loss:
            raise CsvFormatError(
                f"{path}: row 0: train_loss - subopt = {optimum!r}, the run's optimal loss, is negative", row=0, column=3
            )
        for r, (_, train_loss, _, subopt, *_) in enumerate(rows):
            if abs(train_loss - subopt - optimum) > 4 * eps * max(train_loss, first_loss, abs(optimum)):
                raise CsvFormatError(
                    f"{path}: row {r}: train_loss - subopt = {train_loss - subopt!r} is not row 0's {optimum!r}, "
                    "the run's optimal loss", row=r, column=3,
                )
    return TrainTrace(records=[TraceRecord(*row[:4]) for row in rows], sampler_kind=runs[0][0], seed=runs[0][1])

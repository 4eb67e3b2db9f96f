import math
import time
from dataclasses import dataclass, field, replace
from itertools import combinations, product

import numpy as np
import pytest

from typsgd import analysis, optimize, sampling
from typsgd.analysis import RecursionReport, RecursionStep, descent_recursion_check, formula_alpha
from typsgd.data import Dataset, generate_pwl_curves
from typsgd.density import Partition
from typsgd.errors import InvalidArgumentError, NumericError
from typsgd.models import (
    ConvCurveModel,
    GradientFamily,
    MlpModel,
    QuadraticModel,
    _targets_for,
    mean_loss,
    per_sample_gradients,
    quadratic_constants,
)
from typsgd.optimize import (
    Adam,
    Sgd,
    TraceRecord,
    adam_step,
    evaluations,
    first_reach,
    load_trace,
    save_trace,
    sgd_step,
    train,
)
from typsgd.sampling import (
    SrsScheme,
    StratifiedScheme,
    batch_space_size,
    make_plan,
    resolve_strata,
    save_batch_log,
)
from typsgd.verify import leading_scheme, quadratic_instance


def half_partition(n):
    return Partition(h_indices=np.arange(n // 2), l_indices=np.arange(n // 2, n), gamma=0.5)


def full_rows(ds):
    return ds.features, ds.targets[:, 0]


def reference_draw_indices(strata, rng: np.random.Generator) -> np.ndarray:
    """One batch as the loops drew it before draw_batches: one ``rng.choice`` per stratum, concatenated."""
    parts = [members[rng.choice(members.shape[0], size=draws, replace=False)] for members, draws in strata]
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


class TestSgdStep:
    def test_full_batch_contraction(self, small_quadratic, rng):
        # closed-form GD oracle: the J-gap contracts at least as fast as
        # (1 - mu/L)^2 per full-gradient step at eta = 1/L
        ds, spec = small_quadratic
        model = QuadraticModel()
        theta = spec.exact_minimizer + rng.normal(size=2)
        for k in range(5):
            gap = mean_loss(model, ds, theta) - spec.exact_optimum_value
            theta = sgd_step(model, theta, *full_rows(ds), 1.0 / spec.lipschitz_L, k)
            new_gap = mean_loss(model, ds, theta) - spec.exact_optimum_value
            bound = (1.0 - spec.strong_convexity_mu / spec.lipschitz_L) ** 2
            assert new_gap <= bound * gap + 1e-12

    def test_zero_gradient_fixed_point(self, small_quadratic):
        ds, spec = small_quadratic
        after = sgd_step(QuadraticModel(), spec.exact_minimizer, *full_rows(ds), 0.1, 0)
        assert np.allclose(after, spec.exact_minimizer, atol=1e-12)

    def test_zero_learning_rate(self, small_quadratic, rng):
        ds, _ = small_quadratic
        theta = rng.normal(size=2)
        after = sgd_step(QuadraticModel(), theta, *full_rows(ds), 0.0, 0)
        assert np.array_equal(after, theta) and after is not theta

    def test_non_finite_update_names_the_iteration(self, small_quadratic):
        ds, _ = small_quadratic
        with pytest.raises(NumericError, match="non-finite update at iteration 7"):
            sgd_step(QuadraticModel(), np.zeros(2), *full_rows(ds), np.inf, 7)

    def test_protocol_step_is_sgd_step(self, small_quadratic, rng):
        ds, _ = small_quadratic
        theta = rng.normal(size=2)
        opt = Sgd(eta=0.05)
        after, state = opt.step(QuadraticModel(), theta, *full_rows(ds), 3, opt.init_state(theta))
        assert opt.kind == "sgd" and state is None
        assert np.array_equal(after, sgd_step(QuadraticModel(), theta, *full_rows(ds), 0.05, 3))


class TestAdamStep:
    def test_constant_gradient_step_magnitude(self):
        # with a constant gradient the bias-corrected update magnitude is
        # eta * |g| / (|g| + eps), within 1% of eta immediately
        x, y = np.array([[1.0, 0.0]]), np.array([10.0])
        theta = np.array([0.0, 0.0])
        m, v = np.zeros(2), np.zeros(2)
        model = QuadraticModel()
        for k in range(10):
            prev = theta.copy()
            theta, m, v = adam_step(model, theta, x, y, 0.05, k, m, v)
            delta = np.abs(theta - prev)
            assert delta[0] == pytest.approx(0.05, rel=0.01)

    def test_zero_gradient_stationary(self, small_quadratic):
        ds, spec = small_quadratic
        g0 = QuadraticModel().per_sample_grads(spec.exact_minimizer, ds.features, ds.targets[:, 0])
        # exact fixed point only when every per-sample gradient is zero
        y_zero = ds.features @ spec.exact_minimizer
        theta, _, _ = adam_step(
            QuadraticModel(), spec.exact_minimizer.copy(), ds.features, y_zero, 0.05, 0, np.zeros(2), np.zeros(2)
        )
        assert np.allclose(theta, spec.exact_minimizer)
        assert g0.shape == (8, 2)

    def test_protocol_step_threads_the_moments(self, small_quadratic, rng, monkeypatch):
        ds, _ = small_quadratic
        for name, value in (("ADAM_BETA_M", 0.8), ("ADAM_BETA_V", 0.99), ("ADAM_EPSILON", 1e-6)):
            monkeypatch.setattr(optimize, name, value)
        opt = Adam(eta=0.05)
        theta = rng.normal(size=2)
        state = opt.init_state(theta)
        assert opt.kind == "adam" and all(np.array_equal(s, np.zeros(2)) for s in state)
        m, v = state
        expected = theta
        for k in range(3):
            theta, state = opt.step(QuadraticModel(), theta, *full_rows(ds), k, state)
            expected, m, v = adam_step(QuadraticModel(), expected, *full_rows(ds), 0.05, k, m, v)
            assert np.array_equal(theta, expected)
            assert np.array_equal(state[0], m) and np.array_equal(state[1], v)

    def test_deterministic_traces(self, small_quadratic):
        ds, spec = small_quadratic
        runs = [
            train(QuadraticModel(), ds, SrsScheme(m=3), Adam(eta=0.05), 40, seed=5, eval_every=5, model_spec=spec)
            for _ in range(2)
        ]
        assert [r.train_loss for r in runs[0].records] == [r.train_loss for r in runs[1].records]


@pytest.mark.parametrize("optimizer", [Sgd, Adam])
def test_negative_learning_rate_rejected(optimizer):
    with pytest.raises(InvalidArgumentError, match="learning rate must be >= 0"):
        optimizer(eta=-0.05)
    assert optimizer(eta=0.0).eta == 0.0


@pytest.mark.parametrize("optimizer", [Sgd, Adam])
@pytest.mark.parametrize("eta", [float("nan"), float("inf")])
def test_non_finite_learning_rate_rejected(optimizer, eta):
    with pytest.raises(InvalidArgumentError, match="finite"):
        optimizer(eta=eta)


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
        # alpha is derived from trace.thetas: TestMatchesReferenceLoop and the CLI alpha.csv test check it
        ds, spec = small_quadratic
        val = Dataset(features=rng.normal(size=(4, 2)), targets=rng.normal(size=(4, 1)))
        part = half_partition(8)
        plan = make_plan(2, 1, part)
        trace = train(
            QuadraticModel(), ds, StratifiedScheme(part, plan), Sgd(eta=1.0 / spec.lipschitz_L),
            20, seed=1, eval_every=10, model_spec=spec, val_data=val,
        )
        for rec in trace.records:
            assert rec.val_loss is not None and rec.val_loss >= 0.0
            assert rec.subopt is not None

    def test_batch_log_replay(self, small_quadratic, tmp_path):
        from typsgd.sampling import load_batch_log

        ds, spec = small_quadratic
        path = tmp_path / "batches.csv"
        trace = train(QuadraticModel(), ds, SrsScheme(m=3), Sgd(eta=0.01), 10, seed=11,
                      eval_every=5, log_batches=True)
        save_batch_log(path, trace.batches, seed=11)
        logged = load_batch_log(path)
        rng = np.random.default_rng(11)
        for k, idx in logged:
            expected = rng.choice(8, size=3, replace=False)
            assert np.array_equal(idx, expected), k


class TestRecursionCheck:
    def test_full_batch_zero_noise(self, small_quadratic):
        ds, spec = small_quadratic
        report = descent_recursion_check(ds, SrsScheme(m=ds.n_samples), spec, k_steps=10, seed=0)
        assert report.holds_all
        for step in report.steps:
            # e_k = 0: the rhs reduces to the pure contraction term
            assert step.lhs <= step.rhs

    def test_enumerated_srs_holds_every_step(self, small_quadratic):
        ds, spec = small_quadratic
        report = descent_recursion_check(ds, SrsScheme(m=2), spec, k_steps=30, seed=5)
        assert all(s.lhs <= s.rhs for s in report.steps)

    def test_enumerated_typicality_holds(self, small_quadratic):
        ds, spec = small_quadratic
        part = half_partition(8)
        scheme = StratifiedScheme(part, make_plan(2, 1, part))
        report = descent_recursion_check(ds, scheme, spec, k_steps=30, seed=6)
        assert report.holds_all

    @pytest.mark.parametrize("k_steps", [0, -1])
    def test_refuses_an_empty_path(self, small_quadratic, k_steps):
        # a report of no steps would hold vacuously
        ds, spec = small_quadratic
        with pytest.raises(InvalidArgumentError):
            descent_recursion_check(ds, SrsScheme(m=2), spec, k_steps=k_steps, seed=0)


# The recursion check as it was when it enumerated every batch at every state:
# the oracle the closed form is held to.


def reference_enumerate_batches(scheme, n_total: int):
    """Yield every possible batch of the scheme (equal probability each)."""
    per_stratum = [combinations(members.tolist(), draws) for members, draws in scheme.strata(n_total)]
    for parts in product(*per_stratum):
        yield np.array(sum(parts, ()), dtype=np.int64)


def reference_descent_recursion_check(
    dataset: Dataset,
    scheme,
    model_spec,
    k_steps: int,
    seed: int,
    theta0: np.ndarray | None = None,
) -> RecursionReport:
    """Check the one-step descent bound along a least-squares SGD path by enumeration.

    At each visited state the mean next-step optimality gap over every batch
    (lhs) is compared with (1 - mu/L) * gap + mean ||e||^2 / (2L) (rhs), at
    eta = 1/L.
    """
    model = QuadraticModel()
    big_l = model_spec.lipschitz_L
    contraction = 1.0 - model_spec.strong_convexity_mu / big_l
    eta = 1.0 / big_l
    n = dataset.n_samples
    strata = resolve_strata(scheme, n)
    features, targets = dataset.features, _targets_for(model, dataset)
    rng = np.random.default_rng(seed)
    theta = np.array(theta0, dtype=np.float64) if theta0 is not None else model.init_theta(dataset, seed)

    steps = []
    for k in range(k_steps):
        gap = mean_loss(model, dataset, theta) - model_spec.exact_optimum_value
        grads = per_sample_gradients(model, dataset, theta)
        full_grad = np.sum(grads, axis=0) / n
        index_sets = list(reference_enumerate_batches(scheme, n))
        next_gaps = np.empty(len(index_sets))
        err_sqs = np.empty(len(index_sets))
        for b, idx in enumerate(index_sets):
            batch_grad = grads[idx].sum(axis=0) / idx.shape[0]
            next_gaps[b] = mean_loss(model, dataset, theta - eta * batch_grad) - model_spec.exact_optimum_value
            err = batch_grad - full_grad
            err_sqs[b] = err @ err
        lhs = float(np.mean(next_gaps))
        rhs = contraction * gap + float(np.mean(err_sqs)) / (2.0 * big_l)
        steps.append(RecursionStep(iteration=k, lhs=lhs, rhs=rhs, holds=lhs <= rhs))
        # advance the path by one real stochastic step
        idx = reference_draw_indices(strata, rng)
        theta = sgd_step(model, theta, features[idx], targets[idx], eta, k)
    return RecursionReport(steps=tuple(steps), holds_all=all(s.holds for s in steps))


def assert_matches_enumeration(report, reference, rel=1e-9):
    """Every step's lhs and rhs equal the enumerated ones to ``rel``, with the same verdict."""
    assert len(report.steps) == len(reference.steps)
    for step, ref in zip(report.steps, reference.steps):
        assert step.iteration == ref.iteration
        assert step.lhs == pytest.approx(ref.lhs, rel=rel)
        assert step.rhs == pytest.approx(ref.rhs, rel=rel)
        assert step.holds == ref.holds
    assert report.holds_all == reference.holds_all


def stratified_half(m, n1):
    part = half_partition(8)
    return StratifiedScheme(part, make_plan(m, n1, part))


def scheme_id(scheme):
    return scheme.kind + "-" + "+".join(f"{draws}of{members.shape[0]}" for members, draws in scheme.strata(8))


class TestRecursionMatchesReference:
    # on the 8-sample fixture: SRS and H/L plans with C(8, 2) = 28, C(4, 2) * C(4, 1) = 24
    # and C(8, 4) = 70 batches
    CASES = [SrsScheme(m=2), stratified_half(3, 2), SrsScheme(m=4)]

    @staticmethod
    def both(small_quadratic, scheme, seed):
        ds, spec = small_quadratic
        theta0 = spec.exact_minimizer + np.random.default_rng(seed).normal(0.0, 2.0, 2)
        args = (ds, scheme, spec)
        kwargs = dict(k_steps=12, seed=seed, theta0=theta0)
        return descent_recursion_check(*args, **kwargs), reference_descent_recursion_check(*args, **kwargs)

    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("scheme", CASES, ids=scheme_id)
    def test_matches_enumeration(self, small_quadratic, scheme, seed):
        assert_matches_enumeration(*self.both(small_quadratic, scheme, seed))

    @pytest.mark.parametrize(
        "scheme", [SrsScheme(m=3), leading_scheme(4, 8, m=2, n1=1), leading_scheme(3, 8, m=4, n1=2)], ids=scheme_id
    )
    @pytest.mark.parametrize("seed", range(20))
    def test_random_instances_match_enumeration(self, scheme, seed):
        rng = np.random.default_rng(seed)
        ds, spec = quadratic_instance(rng, n=8, d=2)
        args = (ds, scheme, spec)
        kwargs = dict(k_steps=12, seed=seed, theta0=spec.exact_minimizer + rng.normal(0.0, 2.0, 2))
        assert_matches_enumeration(descent_recursion_check(*args, **kwargs),
                                   reference_descent_recursion_check(*args, **kwargs))

    def test_last_stratum_drawn_twice(self, small_quadratic):
        # two draws from each stratum, C(4, 2) * C(4, 2) = 36 batches
        assert_matches_enumeration(*self.both(small_quadratic, stratified_half(4, 2), seed=1), rel=1e-12)


def test_recursion_check_at_paper_size():
    # 2000 samples and m = 50: C(2000, 50) batches, far past any enumeration; the closed-form
    # lhs at step 0 must agree with a mean over 20 000 drawn batches
    rng = np.random.default_rng(2000)
    ds, spec = quadratic_instance(rng, n=2000, d=2)
    theta0 = spec.exact_minimizer + rng.normal(0.0, 2.0, 2)
    eta = 1.0 / spec.lipschitz_L
    model = QuadraticModel()
    grads = per_sample_gradients(model, ds, theta0)
    for scheme in (SrsScheme(m=50), leading_scheme(600, 2000, m=50, n1=40)):
        report = descent_recursion_check(ds, scheme, spec, k_steps=30, seed=1, theta0=theta0)
        assert len(report.steps) == 30 and report.holds_all
        strata = resolve_strata(scheme, ds.n_samples)
        draw_rng = np.random.default_rng(3)
        next_gaps = np.empty(20_000)
        for b in range(next_gaps.shape[0]):
            idx = reference_draw_indices(strata, draw_rng)
            next_gaps[b] = mean_loss(model, ds, theta0 - eta * grads[idx].mean(axis=0)) - spec.exact_optimum_value
        se = np.std(next_gaps, ddof=1) / math.sqrt(next_gaps.shape[0])
        assert abs(report.steps[0].lhs - np.mean(next_gaps)) <= 4.0 * se, scheme.kind


def test_trace_round_trip(tmp_path, small_quadratic):
    ds, spec = small_quadratic
    trace = train(QuadraticModel(), ds, SrsScheme(m=2), Sgd(eta=0.05), 12, seed=4,
                  eval_every=4, model_spec=spec)
    path = tmp_path / "trace.csv"
    save_trace(path, trace, config_digest="abc123")
    loaded = load_trace(path, 12, 4)
    assert loaded.records == trace.records  # exact repr round-trip of every cell
    assert loaded.sampler_kind == "srs" and loaded.seed == 4
    assert loaded.iterations_to_threshold(0.5) == trace.iterations_to_threshold(0.5)
    first_line = path.read_text().splitlines()[0]
    assert first_line.startswith("#") and "config=abc123" in first_line


def test_first_reach_pulls_nothing_after_its_hit():
    pulled = []

    def records():
        for k, subopt in enumerate([3.0, None, 0.5, 0.1]):
            pulled.append(k)
            yield TraceRecord(iteration=k, train_loss=1.0, val_loss=None, subopt=subopt)

    assert first_reach(records(), 0.5) == 2
    assert pulled == [0, 1, 2]
    assert first_reach(records(), 0.01) is None


@pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf])
def test_a_non_finite_threshold_is_refused(small_quadratic, threshold):
    ds, spec = small_quadratic
    trace = train(QuadraticModel(), ds, SrsScheme(m=2), Sgd(eta=0.05), 4, seed=0, eval_every=2, model_spec=spec)
    with pytest.raises(InvalidArgumentError, match="threshold"):
        trace.iterations_to_threshold(threshold)


def test_train_folds_the_lazy_loop(small_quadratic):
    ds, spec = small_quadratic
    args = (QuadraticModel(), ds, SrsScheme(m=2), Adam(eta=0.05), 9, 3, 4)
    trace = train(*args, model_spec=spec, record_thetas=True, log_batches=True)
    log = []
    points = list(evaluations(*args, model_spec=spec, batch_log=log))
    assert [record for record, _ in points] == trace.records
    assert [r.iteration for r in trace.records] == [0, 4, 8, 9]
    assert all(k == r.iteration and np.array_equal(t, theta) for (k, t), (r, theta) in zip(trace.thetas, points))
    assert [k for k, _ in log] == list(range(9))
    assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(log, trace.batches))


# -- the training loop and Monte-Carlo oracle as they were before the lean loop,
# kept as the bit-identity reference (names prefixed, bodies unchanged) -------


@dataclass(frozen=True)
class ReferenceBatch:
    """Selected sample ids, distinct."""

    indices: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64)
        ordered = np.sort(idx)
        if (ordered[1:] == ordered[:-1]).any():  # a repeat sorts next to its twin
            raise InvalidArgumentError("batch indices must be distinct")
        object.__setattr__(self, "indices", idx)


def reference_draw_batch(scheme, n_total: int, rng: np.random.Generator) -> ReferenceBatch:
    """One batch of the scheme, checked for distinct ids by :class:`ReferenceBatch`."""
    return ReferenceBatch(indices=reference_draw_indices(scheme.strata(n_total), rng))


@dataclass(frozen=True)
class ReferenceRecord:
    """A record as the loop kept it, with wall time, sampler and the in-loop alpha."""

    iteration: int
    train_loss: float
    val_loss: float | None
    subopt: float | None
    wall_time: float
    sampler: str
    alpha: float | None = None


@dataclass
class ReferenceTrace:
    records: list[ReferenceRecord]
    sampler_kind: str
    optimizer_kind: str
    seed: int
    eval_every: int
    thetas: list[tuple[int, np.ndarray]] = field(default_factory=list)


@dataclass(frozen=True)
class ReferenceTrainState:
    """Parameters and per-optimizer bookkeeping at iteration k."""

    theta: np.ndarray
    iteration: int = 0
    learning_rate: float = 0.0
    adam_m: np.ndarray | None = None
    adam_v: np.ndarray | None = None
    adam_t: int = 0


def reference_batch_mean_gradient(model, dataset: Dataset, theta, batch: ReferenceBatch):
    idx = batch.indices
    grads = model.per_sample_grads(theta, dataset.features[idx], _targets_for(model, dataset)[idx])
    return np.sum(grads, axis=0) / batch.indices.shape[0]


def reference_sgd_step(state: ReferenceTrainState, model, dataset: Dataset, batch: ReferenceBatch) -> ReferenceTrainState:
    """theta <- theta - eta * (batch mean gradient); k <- k + 1."""
    grad = reference_batch_mean_gradient(model, dataset, state.theta, batch)
    theta = state.theta - state.learning_rate * grad
    if not np.all(np.isfinite(theta)):
        raise NumericError(f"non-finite update at iteration {state.iteration}", iteration=state.iteration)
    return replace(state, theta=theta, iteration=state.iteration + 1)


def reference_adam_step(
    state: ReferenceTrainState,
    model,
    dataset: Dataset,
    batch: ReferenceBatch,
    beta_m: float = 0.9,
    beta_v: float = 0.999,
    epsilon: float = 1e-8,
) -> ReferenceTrainState:
    """Bias-corrected moment update applied to the batch mean gradient."""
    grad = reference_batch_mean_gradient(model, dataset, state.theta, batch)
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


def reference_train(
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
) -> ReferenceTrace:
    if iterations < 1:
        raise InvalidArgumentError("iterations must be >= 1")
    if eval_every < 1:
        raise InvalidArgumentError("eval_every must be >= 1")
    n = dataset.n_samples
    scheme.strata(n)  # rejects a batch or partition that does not fit the dataset before the first step
    rng = np.random.default_rng(seed)
    theta = np.array(theta0, dtype=np.float64) if theta0 is not None else model.init_theta(dataset, seed)
    state = ReferenceTrainState(theta=theta, learning_rate=optimizer.eta)
    trace = ReferenceTrace(
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
            alpha = formula_alpha(model, dataset, st.theta, *alpha_probe)
        trace.records.append(
            ReferenceRecord(
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
        batch = reference_draw_batch(scheme, n, rng)
        if batch_log_path is not None:
            batches.append((k, batch))
        if isinstance(optimizer, Adam):
            state = reference_adam_step(
                state, model, dataset, batch, optimize.ADAM_BETA_M, optimize.ADAM_BETA_V, optimize.ADAM_EPSILON
            )
        else:
            state = reference_sgd_step(state, model, dataset, batch)
    evaluate(state)
    if batch_log_path is not None:
        save_batch_log(batch_log_path, [(k, b.indices) for k, b in batches], seed=seed)
    return trace


def reference_monte_carlo_error(grads: GradientFamily, scheme, draws: int, seed: int) -> tuple[float, float]:
    """Sample mean and standard error of the squared batch-mean error."""
    if draws < 100:
        raise InvalidArgumentError("use at least 100 draws")
    rows = grads.per_sample
    ref = grads.reference
    rng = np.random.default_rng(seed)
    sq_errors = np.empty(draws)
    for t in range(draws):
        diff = rows[reference_draw_batch(scheme, rows.shape[0], rng).indices].mean(axis=0) - ref
        sq_errors[t] = diff @ diff
    se = float(np.std(sq_errors, ddof=1) / math.sqrt(draws))
    return float(np.mean(sq_errors)), se


def quadratic_case(n=40, d=3):
    gen = np.random.default_rng(21)
    x = gen.normal(0.0, 1.0, (n + 10, d)) + 0.2
    y = x @ np.array([1.0, -2.0, 0.5][:d]) + 0.3 * gen.normal(size=n + 10)
    train_ds = Dataset(features=x[:n], targets=y[:n, None])
    val_ds = Dataset(features=x[n:], targets=y[n:, None])
    return QuadraticModel(), train_ds, val_ds, quadratic_constants(train_ds)


def curve_case(model):
    curves = generate_pwl_curves(50, 12, 2, seed=4)
    train_ds = Dataset(features=curves.features[:40], targets=curves.targets[:40])
    val_ds = Dataset(features=curves.features[40:], targets=curves.targets[40:])
    return model, train_ds, val_ds, None


def assert_same_run(run, ref, log, ref_log, alpha_at=None):
    """``alpha_at(theta)`` derives alpha from a recorded theta; the reference computed it in the loop."""
    assert (run.sampler_kind, run.seed) == (ref.sampler_kind, ref.seed)
    assert len(run.records) == len(ref.records)
    for got, want in zip(run.records, ref.records):
        assert (got.iteration, got.train_loss, got.val_loss, got.subopt, run.sampler_kind) == (
            want.iteration, want.train_loss, want.val_loss, want.subopt, want.sampler,
        )
    assert [k for k, _ in run.thetas] == [k for k, _ in ref.thetas] == [r.iteration for r in ref.records]
    assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(run.thetas, ref.thetas))
    derived = [None if alpha_at is None else alpha_at(theta) for _, theta in run.thetas]
    assert derived == [r.alpha for r in ref.records]
    assert log.read_bytes() == ref_log.read_bytes()


class TestMatchesReferenceLoop:
    @pytest.mark.parametrize("sampler", ["srs", "typicality"])
    @pytest.mark.parametrize("optimizer", [Sgd(eta=0.02), Adam(eta=0.05)])
    def test_quadratic_bit_for_bit(self, sampler, optimizer, tmp_path, monkeypatch):
        if optimizer.kind == "adam":  # off-default settings, read by both loops at call time
            monkeypatch.setattr(optimize, "ADAM_BETA_M", 0.85)
            monkeypatch.setattr(optimize, "ADAM_EPSILON", 1e-6)
        model, ds, val, spec = quadratic_case()
        part = half_partition(ds.n_samples)
        plan = make_plan(6, 4, part)
        scheme = SrsScheme(m=6) if sampler == "srs" else StratifiedScheme(part, plan)
        kwargs = dict(
            eval_every=7, val_data=val, model_spec=spec, theta0=np.array([0.3, -0.1, 0.2]), record_thetas=True,
        )
        run = train(model, ds, scheme, optimizer, 53, seed=9, log_batches=True, **kwargs)
        save_batch_log(tmp_path / "new.csv", run.batches, seed=9)
        ref = reference_train(
            model, ds, scheme, optimizer, 53, seed=9, alpha_probe=(part, plan), batch_log_path=tmp_path / "ref.csv",
            **kwargs,
        )
        assert len(run.records) == 9  # k = 0, 7, ..., 49 and the final 53
        assert_same_run(
            run, ref, tmp_path / "new.csv", tmp_path / "ref.csv",
            alpha_at=lambda theta: formula_alpha(model, ds, theta, part, plan),
        )

    @pytest.mark.parametrize(
        "model, optimizer", [(ConvCurveModel(), Sgd(eta=0.001)), (MlpModel(hidden=4), Adam(eta=0.01))]
    )
    def test_multi_target_and_nonlinear_models(self, model, optimizer, tmp_path):
        model, ds, val, _ = curve_case(model)
        part = half_partition(ds.n_samples)
        scheme = StratifiedScheme(part, make_plan(5, 3, part))
        kwargs = dict(eval_every=4, val_data=val, record_thetas=True)
        run = train(model, ds, scheme, optimizer, 30, seed=2, log_batches=True, **kwargs)
        save_batch_log(tmp_path / "new.csv", run.batches, seed=2)
        ref = reference_train(model, ds, scheme, optimizer, 30, seed=2, batch_log_path=tmp_path / "ref.csv", **kwargs)
        assert_same_run(run, ref, tmp_path / "new.csv", tmp_path / "ref.csv")

    def test_monte_carlo_error_matches_reference(self):
        model, ds, _, _ = quadratic_case()
        grads = per_sample_gradients(model, ds, np.array([0.5, 0.5, -0.5]))
        family = GradientFamily(per_sample=grads, reference=grads.mean(axis=0))
        part = half_partition(ds.n_samples)
        for scheme in (SrsScheme(m=6), StratifiedScheme(part, make_plan(6, 4, part))):
            assert analysis.monte_carlo_error(family, scheme, 500, seed=3) == reference_monte_carlo_error(
                family, scheme, 500, seed=3
            )


class TestEvaluationsDrawBlocksAhead:
    # evaluations draws ROWS batches at a time; 53 steps and a reach at step 45 end inside a block
    ROWS = 7

    @pytest.fixture(params=["srs", "typicality"])
    def case(self, request, monkeypatch):
        monkeypatch.setattr(sampling, "block_size", lambda strata, row_bytes: self.ROWS)
        model, ds, val, spec = quadratic_case()
        part = half_partition(ds.n_samples)
        scheme = SrsScheme(m=6) if request.param == "srs" else StratifiedScheme(part, make_plan(6, 4, part))
        return model, ds, val, spec, scheme

    def test_points_and_log_are_the_per_batch_loops(self, case, tmp_path):
        # the log is compared after the last block is drawn: an id array that a later block
        # overwrote would differ here
        model, ds, val, spec, scheme = case
        kwargs = dict(eval_every=5, val_data=val, model_spec=spec, record_thetas=True)
        assert 53 % self.ROWS
        run = train(model, ds, scheme, Sgd(eta=0.02), 53, seed=9, log_batches=True, **kwargs)
        save_batch_log(tmp_path / "new.csv", run.batches, seed=9)
        ref = reference_train(model, ds, scheme, Sgd(eta=0.02), 53, seed=9, batch_log_path=tmp_path / "ref.csv", **kwargs)
        assert_same_run(run, ref, tmp_path / "new.csv", tmp_path / "ref.csv")

    def test_a_run_stopped_at_its_reach_takes_and_logs_only_its_steps(self, case):
        model, ds, val, spec, scheme = case
        ref = reference_train(model, ds, scheme, Sgd(eta=0.02), 200, seed=9, eval_every=5, model_spec=spec)
        reach = first_reach(ref.records, 0.5)
        assert reach == 45 and reach % self.ROWS
        log, pulled = [], []
        points = evaluations(model, ds, scheme, Sgd(eta=0.02), 200, 9, 5, model_spec=spec, batch_log=log)
        assert first_reach((pulled.append(record) or record for record, _ in points), 0.5) == reach
        assert [(r.iteration, r.train_loss, r.subopt) for r in pulled] == [
            (r.iteration, r.train_loss, r.subopt) for r in ref.records[: len(pulled)]
        ]
        rng = np.random.default_rng(9)
        strata = resolve_strata(scheme, ds.n_samples)
        assert [k for k, _ in log] == list(range(reach))
        assert all(np.array_equal(ids, reference_draw_indices(strata, rng)) for _, ids in log)


class OverlappingScheme:
    """A duck-typed scheme whose two strata share sample 3."""

    kind = "overlap"

    def strata(self, n_total):
        return ((np.arange(0, 4), 2), (np.arange(3, n_total), 2))


class OverdrawnScheme:
    """A duck-typed scheme that draws a stratum more often than it has members."""

    kind = "overdrawn"

    def strata(self, n_total):
        return ((np.arange(0, 2), 3), (np.arange(2, n_total), 1))


class AliasingScheme:
    """A duck-typed scheme whose id -1 indexes the same row as id n_total - 1."""

    kind = "aliasing"

    def strata(self, n_total):
        return ((np.arange(0, n_total - 1), 2), (np.array([-1]), 1))


REPEATING_SCHEMES = [OverlappingScheme(), OverdrawnScheme(), AliasingScheme()]


class TestRepeatsRejectedBeforeTheFirstDraw:
    @pytest.fixture
    def no_draws(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a batch was drawn")

        monkeypatch.setattr(optimize, "draw_batches", forbidden)
        monkeypatch.setattr(analysis, "draw_batches", forbidden)

    @pytest.mark.parametrize("scheme", REPEATING_SCHEMES)
    def test_train(self, small_quadratic, scheme, no_draws):
        ds, _ = small_quadratic
        with pytest.raises(InvalidArgumentError):
            train(QuadraticModel(), ds, scheme, Sgd(eta=0.1), 5, seed=0)

    @pytest.mark.parametrize("scheme", REPEATING_SCHEMES)
    def test_monte_carlo_error(self, small_quadratic, scheme, no_draws):
        ds, _ = small_quadratic
        grads = per_sample_gradients(QuadraticModel(), ds, np.zeros(2))
        family = GradientFamily(per_sample=grads, reference=grads.mean(axis=0))
        with pytest.raises(InvalidArgumentError):
            analysis.monte_carlo_error(family, scheme, 100, seed=0)

    @pytest.mark.parametrize("scheme", REPEATING_SCHEMES)
    def test_exact_oracles(self, small_quadratic, scheme, no_draws):
        # the formula and the enumeration it is checked against must not agree on repeating batches
        ds, _ = small_quadratic
        grads = per_sample_gradients(QuadraticModel(), ds, np.zeros(2))
        family = GradientFamily(per_sample=grads, reference=grads.mean(axis=0))
        with pytest.raises(InvalidArgumentError):
            analysis.exact_error(family, scheme)
        with pytest.raises(InvalidArgumentError):
            analysis.enumerate_error(family, scheme)
        with pytest.raises(InvalidArgumentError):
            batch_space_size(scheme, ds.n_samples)

    def test_recursion_check(self, small_quadratic, no_draws):
        ds, spec = small_quadratic
        with pytest.raises(InvalidArgumentError):
            descent_recursion_check(ds, OverlappingScheme(), spec, k_steps=2, seed=0)


def test_one_step_call_per_iteration(small_quadratic, monkeypatch):
    # span tracers bind wrappers to optimize.sgd_step / optimize.adam_step by name
    # and time the per-sample gradients that run inside them
    ds, spec = small_quadratic
    calls = {"sgd_step": 0, "adam_step": 0, "grads_inside": 0}
    inside = []
    per_sample_grads = QuadraticModel.per_sample_grads

    def counting(name):
        original = getattr(optimize, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            inside.append(name)
            try:
                return original(*args, **kwargs)
            finally:
                inside.pop()

        return wrapper

    def grads(self, *args):
        calls["grads_inside"] += bool(inside)
        return per_sample_grads(self, *args)

    monkeypatch.setattr(optimize, "sgd_step", counting("sgd_step"))
    monkeypatch.setattr(optimize, "adam_step", counting("adam_step"))
    monkeypatch.setattr(QuadraticModel, "per_sample_grads", grads)
    train(QuadraticModel(), ds, SrsScheme(m=3), Sgd(eta=0.05), 17, seed=0, eval_every=5)
    assert calls == {"sgd_step": 17, "adam_step": 0, "grads_inside": 17}
    train(QuadraticModel(), ds, SrsScheme(m=3), Adam(eta=0.05), 11, seed=0, eval_every=5)
    assert calls == {"sgd_step": 17, "adam_step": 11, "grads_inside": 28}
    # the recursion check reads 4 states of an Sgd path, so it takes the 3 steps between them
    descent_recursion_check(ds, SrsScheme(m=2), spec, k_steps=4, seed=0)
    assert calls["sgd_step"] == 20 and calls["grads_inside"] == 31

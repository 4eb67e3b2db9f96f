import os
import subprocess
import sys
import threading
from contextlib import ExitStack
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from test_tracer_names import traced_names

import typsgd
from typsgd import embedding
from typsgd.data import generate_clustered
from typsgd.embedding import (
    BISECTION_STEPS,
    PERPLEXITY_TOL,
    PROB_FLOOR,
    conditional_affinities,
    load_embedding_points,
    pairwise_sq_distances,
    save_embedding,
    tsne_embed,
)
from typsgd.errors import InvalidArgumentError, NumericError


def reference_pairwise_sq_distances(x):
    """The distance formula as first written, with the explicit symmetrization."""
    sq = np.sum(x * x, axis=1)
    d = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
    d = np.maximum(d, 0.0)
    d = 0.5 * (d + d.T)
    np.fill_diagonal(d, 0.0)
    return d


def _reference_row_entropy(dist_row, beta):
    # shifted weights keep exp() in range; entropy is shift-invariant
    shifted = dist_row - dist_row.min()
    w = np.exp(-beta * shifted)
    sw = w.sum()
    h = np.log(sw) + beta * float(shifted @ w) / sw
    return h, w / sw


def reference_conditional_affinities(sq_distances, perplexity):
    """The bisection as first written: one row at a time, every step from scratch."""
    n = sq_distances.shape[0]
    p = np.zeros((n, n))
    achieved = np.empty(n)
    log_target = np.log(perplexity)
    others = np.arange(n)
    for i in range(n):
        mask = others != i
        row = sq_distances[i, mask]
        beta, beta_min, beta_max = 1.0, -np.inf, np.inf
        h, probs = _reference_row_entropy(row, beta)
        for _ in range(BISECTION_STEPS):
            if abs(np.exp(h) - perplexity) <= PERPLEXITY_TOL:
                break
            if h > log_target:  # too flat: sharpen
                beta_min = beta
                beta = beta * 2.0 if beta_max == np.inf else 0.5 * (beta + beta_max)
            else:
                beta_max = beta
                beta = beta / 2.0 if beta_min == -np.inf else 0.5 * (beta + beta_min)
            h, probs = _reference_row_entropy(row, beta)
        p[i, mask] = probs
        achieved[i] = np.exp(h)
    return p, achieved


def row_blocks(n, rows, workers):
    """Split the N x N buffers into blocks of ``rows`` rows (the module's size if None) on ``workers`` threads."""
    stack = ExitStack()
    stack.enter_context(mock.patch.object(embedding, "_usable_cpus", lambda: workers))
    if rows is not None:
        stack.enter_context(mock.patch.object(embedding, "BLOCK_BYTES", 8 * n * rows))
    return stack


def reference_kl_divergence(p_sym, q):
    mask = p_sym > 0
    pm = p_sym[mask]
    return float(np.sum(pm * (np.log(np.maximum(pm, PROB_FLOOR)) - np.log(np.maximum(q[mask], PROB_FLOOR)))))


def reference_tsne(x, perplexity, iterations, seed, learning_rate=200.0, early_exaggeration=12.0,
                   exaggeration_iters=100, momentum_early=0.5, momentum_late=0.8, momentum_switch=250):
    """The t-SNE loop as first written: fresh N x N arrays and a full KL every iteration."""
    n = x.shape[0]
    distances = reference_pairwise_sq_distances(x)
    cond, _ = reference_conditional_affinities(distances, perplexity)
    p_sym = (cond + cond.T) / (2.0 * n)

    rng = np.random.default_rng(seed)
    y = rng.normal(0.0, 1e-4, size=(n, 2))
    velocity = np.zeros_like(y)
    kl_trace = []
    for it in range(iterations):
        p_eff = p_sym * early_exaggeration if it < exaggeration_iters else p_sym
        dist_y = reference_pairwise_sq_distances(y)
        num = 1.0 / (1.0 + dist_y)
        np.fill_diagonal(num, 0.0)
        q = num / num.sum()
        pq = (p_eff - q) * num
        grad = 4.0 * (pq.sum(axis=1)[:, None] * y - pq @ y)
        momentum = momentum_early if it < momentum_switch else momentum_late
        velocity = momentum * velocity - learning_rate * grad
        y = y + velocity
        y = y - y.mean(axis=0)
        kl_trace.append((it, reference_kl_divergence(p_sym, q)))
    return y, tuple(kl_trace)


@st.composite
def laid_out_points(draw):
    """Points as a C-ordered, F-ordered, row-strided or column-strided array."""
    n = draw(st.integers(2, 12))
    d = draw(st.integers(1, 4))
    layout = draw(st.sampled_from(["C", "F", "rows", "columns"]))
    base = draw(arrays(np.float64, (2 * n, 2 * d), elements=st.floats(-1e3, 1e3)))
    if layout == "rows":
        return base[::2, :d]
    if layout == "columns":
        return base[:n, ::2]
    return np.asarray(base[:n, :d], order=layout)


class TestPairwiseDistances:
    def test_hand_example(self):
        assert np.array_equal(pairwise_sq_distances(np.array([[0.0], [3.0]])), [[0.0, 9.0], [9.0, 0.0]])

    def test_identical_rows(self):
        points = np.tile([1.0, 2.0, 3.0], (4, 1))
        assert np.all(pairwise_sq_distances(points) == 0.0)

    @given(arrays(np.float64, (5, 3), elements=st.floats(-10, 10)))
    @settings(max_examples=50, deadline=None)
    def test_matches_double_loop(self, points):
        got = pairwise_sq_distances(points)
        for i in range(5):
            for j in range(5):
                want = float(np.sum((points[i] - points[j]) ** 2))
                assert abs(got[i, j] - want) <= 1e-12 * max(1.0, want)
        assert np.array_equal(got, got.T)
        assert np.all(np.diag(got) == 0.0)

    @given(laid_out_points())
    @settings(max_examples=100, deadline=None)
    def test_symmetric_without_averaging(self, points):
        # x @ x.T is exactly symmetric for every memory layout, so averaging
        # d with its transpose changes no bit
        assert np.array_equal(pairwise_sq_distances(points), reference_pairwise_sq_distances(points))


class TestAffinities:
    def test_row_sums_and_achieved_perplexity(self, rng):
        points = rng.normal(size=(50, 4))
        cond, achieved = conditional_affinities(pairwise_sq_distances(points), 12.0)
        assert np.allclose(cond.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(np.diag(cond) == 0.0)
        assert np.max(np.abs(achieved - 12.0)) <= 1e-4

    def test_symmetrized_distribution_sums_to_one(self, rng):
        points = rng.normal(size=(30, 3))
        cond, _ = conditional_affinities(pairwise_sq_distances(points), 8.0)
        p_sym = (cond + cond.T) / (2 * 30)
        assert abs(p_sym.sum() - 1.0) <= 1e-9

    @given(
        points=st.integers(4, 40).flatmap(
            lambda n: arrays(np.float64, (n, 2), elements=st.sampled_from([0.0, 0.5, 1.0, -2.0, 3.25, 1e-3]))
        ),
        perplexity=st.floats(1.5, 30.0),
        rows=st.integers(1, 40),
        workers=st.integers(1, 3),
    )
    # every point the same: no row reaches the target, so each takes all BISECTION_STEPS steps
    @example(points=np.ones((12, 2)), perplexity=4.0, rows=5, workers=2)
    @settings(max_examples=60, deadline=None)
    def test_blocked_bisection_matches_reference_bit_for_bit(self, points, perplexity, rows, workers):
        # the few coordinate values make duplicate points, hence zero distances, likely
        distances = pairwise_sq_distances(points)
        want_p, want_achieved = reference_conditional_affinities(distances, perplexity)
        with row_blocks(len(points), rows, workers):
            p, achieved = conditional_affinities(distances, perplexity)
        assert p.tobytes() == want_p.tobytes()
        assert achieved.tobytes() == want_achieved.tobytes()
        if np.all(points == points[0]) and abs(len(points) - 1 - perplexity) > 1e-3:
            # every row's perplexity is N - 1 whatever its precision: none converges
            assert np.all(np.abs(achieved - perplexity) > PERPLEXITY_TOL)


class TestTsne:
    def test_perplexity_preconditions(self):
        # N = 4 admits no perplexity: [3, (N-1)/3] = [3, 1] is empty
        pair = np.array([[0.0, 0.0], [0.01, 0.0], [100.0, 0.0], [100.01, 0.0]])
        with pytest.raises(InvalidArgumentError):
            tsne_embed(pair, perplexity=1.0, iterations=10)
        with pytest.raises(InvalidArgumentError):
            tsne_embed(np.random.default_rng(0).normal(size=(30, 2)), perplexity=20.0, iterations=10)

    def test_separates_two_far_clusters(self):
        # 20-sigma separated clusters stay linearly separable after embedding;
        # oracle: exhaustive direction search over 360 angles
        data = generate_clustered(60, 3, [[0.0] * 3, [10.0] * 3], [0.5, 0.5], 0.5, seed=4)
        emb = tsne_embed(data, perplexity=10.0, iterations=400, seed=1)
        labels = data.targets[:, 0]
        best_margin = -np.inf
        for angle in np.linspace(0.0, np.pi, 360, endpoint=False):
            proj = emb.points @ np.array([np.cos(angle), np.sin(angle)])
            # separable along this direction if either cluster sits wholly
            # above the other
            margin = max(proj[labels == 0].min() - proj[labels == 1].max(),
                         proj[labels == 1].min() - proj[labels == 0].max())
            best_margin = max(best_margin, margin)
        assert best_margin > 0.0

    def test_kl_trace_tail_non_increasing(self):
        # converged-descent property: run long enough for the momentum
        # transient to die out
        data = generate_clustered(50, 2, [[0.0, 0.0], [4.0, 4.0]], [0.5, 0.5], 0.8, seed=3)
        emb = tsne_embed(data, perplexity=8.0, iterations=800, seed=2)
        kls = [kl for _, kl in emb.kl_trace]
        assert all(k >= 0.0 and np.isfinite(k) for k in kls)
        tail = kls[-100:]
        for before, after in zip(tail, tail[1:]):
            assert after <= before + 1e-3

    def test_output_recentred(self, rng):
        emb = tsne_embed(rng.normal(size=(25, 3)), perplexity=5.0, iterations=60, seed=0)
        assert np.linalg.norm(emb.points.mean(axis=0)) <= 1e-9

    def test_bit_identical_reruns(self, rng):
        data = rng.normal(size=(20, 3))
        a = tsne_embed(data, perplexity=4.0, iterations=50, seed=9)
        b = tsne_embed(data, perplexity=4.0, iterations=50, seed=9)
        assert np.array_equal(a.points, b.points)
        assert a.kl_trace == b.kl_trace

    @pytest.mark.parametrize(
        "n, perplexity, iterations, switches, rows, workers",
        [
            pytest.param(*case, rows, workers, id=f"{case_id}-{rows}rows-{workers}workers" if rows else case_id)
            for case_id, case in [
                ("40-8.0-260-switches0", (40, 8.0, 260, {})),
                ("25-5.0-30-switches1", (25, 5.0, 30, {"exaggeration_iters": 10, "momentum_switch": 20})),
                ("120-20.0-110-switches2", (120, 20.0, 110, {"exaggeration_iters": 40, "momentum_switch": 90})),
            ]
            for rows, workers in [(None, 1), (7, 1), (7, 2), (7, 3)]
        ],
    )
    def test_matches_reference_loop_bit_for_bit(self, n, perplexity, iterations, switches, rows, workers):
        # two clusters 60 sigma apart; at N = 120 the affinities between them
        # underflow to 0, so the KL sums over a strict subset of the entries.
        # 7-row blocks leave a ragged last block at every N here
        data = generate_clustered(n, 3, [[0.0] * 3, [30.0] * 3], [0.7, 0.3], 0.5, seed=n)
        with ExitStack() as stack:
            # the schedule is module constants; the reference takes the same values as arguments
            for name, value in switches.items():
                stack.enter_context(mock.patch.object(embedding, name.upper(), value))
            stack.enter_context(row_blocks(n, rows, workers))
            emb = tsne_embed(data, perplexity=perplexity, iterations=iterations, seed=3)
        points, kl_trace = reference_tsne(data.features, perplexity, iterations, seed=3, **switches)
        assert np.array_equal(emb.points, points)
        assert emb.kl_trace == kl_trace

    def test_same_points_at_one_and_two_blas_threads(self):
        # N = 600 splits into several row blocks, run on two worker threads
        script = "\n".join([
            "import hashlib, numpy as np",
            "from typsgd import embedding",
            "embedding._usable_cpus = lambda: 2",
            "with embedding._RowBlocks(600) as blocks:",
            "    print(len(blocks.bounds), blocks.workers)",
            "x = np.random.default_rng(5).normal(size=(600, 4))",
            "emb = embedding.tsne_embed(x, perplexity=30.0, iterations=60, seed=1)",
            "print(hashlib.sha256(emb.points.tobytes()).hexdigest())",
        ])
        src = os.path.dirname(os.path.dirname(typsgd.__file__))
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
            run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300)
            assert run.returncode == 0, run.stderr
            block_count, workers, digest = run.stdout.split()
            assert int(block_count) > 1 and int(workers) == 2
            digests.append(digest)
        assert digests[0] == digests[1]

    def test_traced_names_run_on_the_main_thread(self, monkeypatch):
        # the span tracer keeps one stack, so every name it wraps must be entered
        # from the calling thread; only private helpers may run on the workers
        calls = []
        for name in traced_names()["embedding"]:
            def spy(*args, _name=name, _fn=getattr(embedding, name), **kwargs):
                calls.append((_name, threading.current_thread() is threading.main_thread()))
                return _fn(*args, **kwargs)
            monkeypatch.setattr(embedding, name, spy)
        helper_threads = set()
        for helper in ("_bisect_rows", "_sq_distances_rows"):
            def record(*args, _fn=getattr(embedding, helper), **kwargs):
                helper_threads.add(threading.get_ident())
                return _fn(*args, **kwargs)
            monkeypatch.setattr(embedding, helper, record)
        data = generate_clustered(60, 3, [[0.0] * 3, [5.0] * 3], [0.5, 0.5], 0.5, seed=1)
        with row_blocks(60, 7, 2):
            embedding.tsne_embed(data, perplexity=8.0, iterations=20, seed=0)
        assert all(on_main for _, on_main in calls)
        names = [name for name, _ in calls]
        assert {name: names.count(name) for name in set(names)} == {
            "tsne_embed": 1, "conditional_affinities": 1, "pairwise_sq_distances": 1,
        }
        assert helper_threads - {threading.get_ident()}, "no block ran on a worker thread"

    @pytest.mark.parametrize("where", ["loop", "worker"])
    def test_error_mid_run_propagates_and_stops_the_workers(self, monkeypatch, where):
        data = generate_clustered(60, 3, [[0.0] * 3, [5.0] * 3], [0.5, 0.5], 0.5, seed=1)
        learning_rate = 200.0
        if where == "loop":
            # an infinite step makes the coordinates non-finite after the first iteration
            learning_rate = np.inf
        else:
            bisect_rows = embedding._bisect_rows

            def fail_late_block(sq_distances, perplexity, start, stop, p, achieved):
                if start > 0:
                    raise NumericError("injected failure in a row block")
                bisect_rows(sq_distances, perplexity, start, stop, p, achieved)

            monkeypatch.setattr(embedding, "_bisect_rows", fail_late_block)
        before = threading.active_count()
        with row_blocks(60, 7, 2), np.errstate(all="ignore"), pytest.raises(NumericError):
            tsne_embed(data, perplexity=8.0, iterations=20, learning_rate=learning_rate, seed=0)
        assert threading.active_count() == before

    def test_embedding_round_trip(self, tmp_path, rng):
        emb = tsne_embed(rng.normal(size=(15, 2)), perplexity=3.0, iterations=30, seed=1)
        path = tmp_path / "embedding.csv"
        save_embedding(path, emb)
        assert np.array_equal(load_embedding_points(path), emb.points)

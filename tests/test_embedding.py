import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import typsgd
from typsgd.data import generate_clustered
from typsgd.embedding import (
    PROB_FLOOR,
    conditional_affinities,
    load_embedding_points,
    pairwise_sq_distances,
    save_embedding,
    tsne_embed,
)
from typsgd.errors import InvalidArgumentError


def reference_pairwise_sq_distances(x):
    """The distance formula as first written, with the explicit symmetrization."""
    sq = np.sum(x * x, axis=1)
    d = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
    d = np.maximum(d, 0.0)
    d = 0.5 * (d + d.T)
    np.fill_diagonal(d, 0.0)
    return d


def reference_kl_divergence(p_sym, q):
    mask = p_sym > 0
    pm = p_sym[mask]
    return float(np.sum(pm * (np.log(np.maximum(pm, PROB_FLOOR)) - np.log(np.maximum(q[mask], PROB_FLOOR)))))


def reference_tsne(x, perplexity, iterations, seed, learning_rate=200.0, early_exaggeration=12.0,
                   exaggeration_iters=100, momentum_early=0.5, momentum_late=0.8, momentum_switch=250):
    """The t-SNE loop as first written: fresh N x N arrays and a full KL every iteration."""
    n = x.shape[0]
    distances = reference_pairwise_sq_distances(x)
    cond, _ = conditional_affinities(distances, perplexity)
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
        "n, perplexity, iterations, switches",
        [
            (40, 8.0, 260, {}),
            (25, 5.0, 30, {"exaggeration_iters": 10, "momentum_switch": 20}),
            (120, 20.0, 110, {"exaggeration_iters": 40, "momentum_switch": 90}),
        ],
    )
    def test_matches_reference_loop_bit_for_bit(self, n, perplexity, iterations, switches):
        # two clusters 60 sigma apart; at N = 120 the affinities between them
        # underflow to 0, so the KL sums over a strict subset of the entries
        data = generate_clustered(n, 3, [[0.0] * 3, [30.0] * 3], [0.7, 0.3], 0.5, seed=n)
        emb = tsne_embed(data, perplexity=perplexity, iterations=iterations, seed=3, **switches)
        points, kl_trace = reference_tsne(data.features, perplexity, iterations, seed=3, **switches)
        assert np.array_equal(emb.points, points)
        assert emb.kl_trace == kl_trace

    def test_same_points_at_one_and_two_blas_threads(self):
        script = (
            "import hashlib, numpy as np; from typsgd.embedding import tsne_embed; "
            "x = np.random.default_rng(5).normal(size=(300, 4)); "
            "print(hashlib.sha256(tsne_embed(x, perplexity=30.0, iterations=60, seed=1).points.tobytes()).hexdigest())"
        )
        src = os.path.dirname(os.path.dirname(typsgd.__file__))
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
            run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300)
            assert run.returncode == 0, run.stderr
            digests.append(run.stdout.strip())
        assert digests[0] == digests[1]

    def test_embedding_round_trip(self, tmp_path, rng):
        emb = tsne_embed(rng.normal(size=(15, 2)), perplexity=3.0, iterations=30, seed=1)
        path = tmp_path / "embedding.csv"
        save_embedding(path, emb)
        assert np.array_equal(load_embedding_points(path), emb.points)

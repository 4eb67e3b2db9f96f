"""Exact (quadratic-cost) t-SNE embedding to two dimensions.

Per-point Gaussian precisions are found by bisection so every conditional
distribution hits the target perplexity; affinities are symmetrized and the
Student-t low-dimensional layout is optimized by gradient descent with the
usual momentum schedule and early exaggeration. Everything is plain numpy
in a fixed evaluation order, so a (data, config, seed) triple maps to a
bit-identical embedding.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._csvio import format_number, read_rows, write_rows
from .errors import InvalidArgumentError, NumericError

PROB_FLOOR = 1e-12
PERPLEXITY_TOL = 1e-5
BISECTION_STEPS = 50


@dataclass(frozen=True)
class EmbedConfig:
    perplexity: float = 30.0
    iterations: int = 1000
    learning_rate: float = 200.0
    early_exaggeration: float = 12.0
    exaggeration_iters: int = 100
    momentum_early: float = 0.5
    momentum_late: float = 0.8
    momentum_switch: int = 250
    seed: int = 0


@dataclass(frozen=True)
class Embedding:
    """2-D layout plus the KL-divergence trace of its optimization."""

    points: np.ndarray
    kl_trace: tuple[tuple[int, float], ...]
    config: EmbedConfig
    achieved_perplexity: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise InvalidArgumentError("embedding points must be N x 2")
        kl_values = np.array([kl for _, kl in self.kl_trace])
        if kl_values.size and (not np.all(np.isfinite(kl_values)) or np.any(kl_values < 0)):
            raise InvalidArgumentError("KL trace must be finite and nonnegative")
        object.__setattr__(self, "points", pts)


def _sq_distances_into(x: np.ndarray, out: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances of the rows of ``x``, clipped at 0, written into ``out``.

    ``gram`` receives 2 x x^T. numpy evaluates ``x @ x.T`` with syrk (or, for
    inputs BLAS cannot take, as the same dot products in the same order), so
    the result is exactly symmetric without averaging it with its transpose.
    The diagonal is left as computed.
    """
    sq = np.sum(x * x, axis=1)
    np.matmul(x, x.T, out=gram)
    np.multiply(gram, 2.0, out=gram)
    # the outer sum comes first: (sq_i + sq_j) - 2 x_i.x_j, in that order
    np.add(sq[:, None], sq[None, :], out=out)
    np.subtract(out, gram, out=out)
    return np.maximum(out, 0.0, out=out)


def pairwise_sq_distances(points: np.ndarray) -> np.ndarray:
    """Symmetric matrix of squared Euclidean distances with a zero diagonal."""
    x = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if not np.all(np.isfinite(x)):
        raise NumericError("non-finite coordinates in distance computation")
    n = x.shape[0]
    d = _sq_distances_into(x, np.empty((n, n)), np.empty((n, n)))
    np.fill_diagonal(d, 0.0)
    return d


def _row_entropy(dist_row: np.ndarray, beta: float):
    # shifted weights keep exp() in range; entropy is shift-invariant
    shifted = dist_row - dist_row.min()
    w = np.exp(-beta * shifted)
    sw = w.sum()
    h = np.log(sw) + beta * float(shifted @ w) / sw
    return h, w / sw


def conditional_affinities(sq_distances: np.ndarray, perplexity: float):
    """Per-point conditional distributions matched to a target perplexity.

    Returns (P, achieved) where P is N x N with zero diagonal and unit row
    sums, and ``achieved`` holds the realized perplexity of each row after
    at most 50 bisection steps (tolerance 1e-5 in perplexity units).
    """
    n = sq_distances.shape[0]
    p = np.zeros((n, n))
    achieved = np.empty(n)
    log_target = np.log(perplexity)
    others = np.arange(n)
    for i in range(n):
        mask = others != i
        row = sq_distances[i, mask]
        beta, beta_min, beta_max = 1.0, -np.inf, np.inf
        h, probs = _row_entropy(row, beta)
        for _ in range(BISECTION_STEPS):
            if abs(np.exp(h) - perplexity) <= PERPLEXITY_TOL:
                break
            if h > log_target:  # too flat: sharpen
                beta_min = beta
                beta = beta * 2.0 if beta_max == np.inf else 0.5 * (beta + beta_max)
            else:
                beta_max = beta
                beta = beta / 2.0 if beta_min == -np.inf else 0.5 * (beta + beta_min)
            h, probs = _row_entropy(row, beta)
        p[i, mask] = probs
        achieved[i] = np.exp(h)
    return p, achieved


def tsne_embed(
    data,
    perplexity: float = 30.0,
    iterations: int = 1000,
    learning_rate: float = 200.0,
    seed: int = 0,
    early_exaggeration: float = 12.0,
    exaggeration_iters: int = 100,
    momentum_early: float = 0.5,
    momentum_late: float = 0.8,
    momentum_switch: int = 250,
) -> Embedding:
    """Embed a dataset into 2 dimensions with exact t-SNE.

    ``data`` is a Dataset or a bare N x D array. Requires N >= 4 and
    3 <= perplexity <= (N - 1) / 3. Points are recentered to zero mean every
    iteration; the KL divergence against the (unexaggerated) affinities is
    recorded each iteration.
    """
    x = np.atleast_2d(np.asarray(getattr(data, "features", data), dtype=np.float64))
    n = x.shape[0]
    if n < 4:
        raise InvalidArgumentError("t-SNE needs at least 4 points")
    if iterations < 1:
        raise InvalidArgumentError("iterations must be >= 1")
    if learning_rate <= 0:
        raise InvalidArgumentError("learning rate must be positive")
    if not 3.0 <= perplexity <= (n - 1) / 3.0:
        raise InvalidArgumentError(
            f"perplexity must lie in [3, (N-1)/3] = [3, {(n - 1) / 3:.2f}]; got {perplexity}"
        )
    config = EmbedConfig(
        perplexity=perplexity,
        iterations=iterations,
        learning_rate=learning_rate,
        early_exaggeration=early_exaggeration,
        exaggeration_iters=exaggeration_iters,
        momentum_early=momentum_early,
        momentum_late=momentum_late,
        momentum_switch=momentum_switch,
        seed=seed,
    )

    cond, achieved = conditional_affinities(pairwise_sq_distances(x), perplexity)
    p_sym = (cond + cond.T) / (2.0 * n)
    del cond
    p_exaggerated = p_sym * early_exaggeration
    # KL(P || Q) reads only the entries where P > 0; their P terms never change
    kl_index = np.flatnonzero(p_sym > 0)
    p_pos = np.take(p_sym, kl_index)
    log_p_pos = np.log(np.maximum(p_pos, PROB_FLOOR))
    kl_terms = np.empty_like(p_pos)
    # the N x N work buffers, reused by every iteration
    num = np.empty((n, n))
    q = np.empty((n, n))

    rng = np.random.default_rng(seed)
    y = rng.normal(0.0, 1e-4, size=(n, 2))
    velocity = np.zeros_like(y)
    kl_trace = []
    for it in range(iterations):
        if not np.all(np.isfinite(y)):
            raise NumericError("non-finite coordinates in distance computation")
        # Student-t kernel 1 / (1 + |y_i - y_j|^2) with a zero diagonal; q holds the Gram matrix first
        _sq_distances_into(y, num, q)
        np.add(num, 1.0, out=num)
        np.divide(1.0, num, out=num)
        np.fill_diagonal(num, 0.0)
        np.divide(num, num.sum(), out=q)
        np.take(q, kl_index, out=kl_terms, mode="clip")  # "raise" would buffer out; the indices are in range
        np.maximum(kl_terms, PROB_FLOOR, out=kl_terms)
        np.log(kl_terms, out=kl_terms)
        np.subtract(log_p_pos, kl_terms, out=kl_terms)
        np.multiply(p_pos, kl_terms, out=kl_terms)
        kl = float(np.sum(kl_terms))
        # q becomes (P - Q) * num, the gradient's pairwise weights
        np.subtract(p_exaggerated if it < exaggeration_iters else p_sym, q, out=q)
        np.multiply(q, num, out=q)
        grad = 4.0 * (q.sum(axis=1)[:, None] * y - q @ y)
        if not np.all(np.isfinite(grad)):
            raise NumericError(f"non-finite t-SNE gradient at iteration {it}", iteration=it)
        momentum = momentum_early if it < momentum_switch else momentum_late
        velocity = momentum * velocity - learning_rate * grad
        y = y + velocity
        y = y - y.mean(axis=0)
        kl_trace.append((it, kl))
    return Embedding(points=y, kl_trace=tuple(kl_trace), config=config, achieved_perplexity=achieved)


def save_embedding(path, embedding: Embedding, config_digest: str = "none", seed=None) -> None:
    """Persist as one 'x,y' row per sample, in sample-id order."""
    rows = [[format_number(px), format_number(py)] for px, py in embedding.points]
    write_rows(path, rows, header=["x", "y"], config_digest=config_digest, seed=seed)


def load_embedding_points(path) -> np.ndarray:
    _, rows = read_rows(path, has_header=True)
    return np.array([[float(r[0]), float(r[1])] for r in rows])

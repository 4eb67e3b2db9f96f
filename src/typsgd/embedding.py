"""Exact (quadratic-cost) t-SNE embedding to two dimensions.

Per-point Gaussian precisions are found by bisection so every conditional
distribution hits the target perplexity; affinities are symmetrized and the
Student-t low-dimensional layout is optimized by gradient descent with the
usual momentum schedule and early exaggeration. Everything is plain numpy
in a fixed evaluation order, so a (data, config, seed) triple maps to a
bit-identical embedding.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import _parallel
from ._csvio import read_table, write_rows
from .errors import InvalidArgumentError, NumericError

PROB_FLOOR = 1e-12
# the optimization schedule of van der Maaten & Hinton (2008): P is multiplied
# by EARLY_EXAGGERATION for the first EXAGGERATION_ITERS iterations, the
# momentum steps from MOMENTUM_EARLY to MOMENTUM_LATE at iteration
# MOMENTUM_SWITCH, and every step scales the gradient by LEARNING_RATE. As in
# van der Maaten's reference code, the KL divergence is taken only every
# KL_EVERY iterations and at the last one
LEARNING_RATE = 200.0
EARLY_EXAGGERATION = 12.0
EXAGGERATION_ITERS = 100
MOMENTUM_EARLY = 0.5
MOMENTUM_LATE = 0.8
MOMENTUM_SWITCH = 250
KL_EVERY = 50
PERPLEXITY_TOL = 1e-5
BISECTION_STEPS = 50


@dataclass(frozen=True)
class EmbedConfig:
    perplexity: float = 30.0
    seed: int = 0


@dataclass(frozen=True)
class Embedding:
    """2-D layout plus the KL-divergence trace of its optimization.

    ``kl_trace`` holds (iteration, KL) pairs for the iterations at which the
    KL was taken, in increasing order; it may skip iterations.
    """

    points: np.ndarray
    kl_trace: tuple[tuple[int, float], ...]
    config: EmbedConfig
    achieved_perplexity: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise InvalidArgumentError("embedding points must be N x 2")
        # a trace may skip iterations, so its labels must say which ones it holds
        labels = [it for it, _ in self.kl_trace]
        integral = all(isinstance(it, (int, np.integer)) for it in labels)
        if not integral or any(after <= before for before, after in zip([-1] + labels, labels)):
            raise InvalidArgumentError("KL trace iterations must be non-negative integers in increasing order")
        kl_values = np.array([kl for _, kl in self.kl_trace])
        if kl_values.size and (not np.all(np.isfinite(kl_values)) or np.any(kl_values < 0)):
            raise InvalidArgumentError("KL trace must be finite and nonnegative")
        object.__setattr__(self, "points", pts)


def _sq_distances_rows(sq: np.ndarray, gram: np.ndarray, start: int, stop: int, scratch: np.ndarray) -> np.ndarray:
    """Rows ``start:stop`` of the squared distances of the rows of x, clipped at 0, written over those rows of ``gram``.

    ``sq`` holds x's squared row norms, ``gram`` those rows of x @ x.T and
    ``scratch`` at least as many rows. The diagonal is left as computed.
    """
    block = np.multiply(gram[start:stop], 2.0, out=gram[start:stop])
    # the outer sum comes first: (sq_i + sq_j) - 2 x_i.x_j, in that order
    outer = np.add(sq[start:stop, None], sq[None, :], out=scratch[:stop - start])
    np.subtract(outer, block, out=block)
    return np.maximum(block, 0.0, out=block)


def pairwise_sq_distances(points: np.ndarray) -> np.ndarray:
    """Matrix of squared Euclidean distances with a zero diagonal.

    In one row block (see ``_RowBlocks``) the Gram matrix is one syrk
    ``x @ x.T``, which is exactly symmetric, so the distances are not
    averaged with their transpose. Past one block each block's rows of it
    are their own gemm, run on the block threads; the distances may then
    differ from their transpose in the last bits, which nothing downstream
    relies on.
    """
    x = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if not np.all(np.isfinite(x)):
        raise NumericError("non-finite coordinates in distance computation")
    n = x.shape[0]
    sq, d = np.sum(x * x, axis=1), np.empty((n, n))

    def rows(start, stop):
        # in one block this is x @ x.T itself, which numpy hands to syrk
        np.matmul(x[start:stop], x.T, out=d[start:stop])
        _sq_distances_rows(sq, d, start, stop, blocks.scratch(start, stop)[0])

    with _RowBlocks(n) as blocks:
        blocks.run(rows)
    np.fill_diagonal(d, 0.0)
    return d


class _RowBlocks:
    """The rows of an N x N matrix in blocks of at most ``_parallel.BLOCK_BYTES``, and the threads that run them.

    numpy releases the GIL inside its ufunc and BLAS loops, so threads that
    work on disjoint row blocks run in parallel. ``_parallel.pool_size``
    sizes the pool; with one worker the tasks run inline and no thread is
    started. Each worker runs every ``workers``-th task, so a pass costs one
    submission per worker. The pool is shut down when the ``with`` block
    exits, on error too.
    """

    def __init__(self, n: int):
        rows = max(1, _parallel.BLOCK_BYTES // (8 * max(n, 1)))
        self.bounds = [(s, min(s + rows, n)) for s in range(0, n, rows)]
        self.workers = _parallel.pool_size(len(self.bounds))
        self._pool = ThreadPoolExecutor(self.workers) if self.workers > 1 else None
        self._shape = (min(rows, n), n)
        self._local = threading.local()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        if self._pool is not None:
            self._pool.shutdown(wait=True)

    def run(self, fn) -> list:
        """Call ``fn(start, stop)`` for every block; return the results in block order."""
        def share(w):
            return [fn(*bounds) for bounds in self.bounds[w::self.workers]]

        if self._pool is None:
            return share(0)
        results = [None] * len(self.bounds)
        for w, part in enumerate(self._pool.map(share, range(self.workers))):
            results[w::self.workers] = part
        return results

    def scratch(self, start: int, stop: int) -> np.ndarray:
        """Two (stop - start, N) arrays the calling thread reuses for every block, sparing fresh ones' page faults."""
        if not hasattr(self._local, "buffers"):
            self._local.buffers = np.empty((2,) + self._shape)
        return self._local.buffers[:, :stop - start]


def _kl_terms(p: np.ndarray, num: np.ndarray, total: float) -> float:
    """The sum of P * (log P - log Q) over the entries where P > 0, with Q = num / total, both floored at PROB_FLOOR."""
    positive = p > 0
    p, q = p[positive], np.maximum(num[positive] / total, PROB_FLOOR)
    return (p * (np.log(np.maximum(p, PROB_FLOOR)) - np.log(q))).sum()


def _whole_step(p: np.ndarray, blocks: _RowBlocks, y: np.ndarray, exaggeration: float, take_kl: bool):
    """The t-SNE gradient at ``y``, and the KL if ``take_kl``, by whole-matrix products in one block's buffers.

    The arithmetic of a plain numpy loop: the syrk Gram, the Student-t
    kernel num = 1 / (1 + |y_i - y_j|^2) with a zero diagonal, its total by
    one ``.sum()``, and the pairwise weights (exaggeration * P - num / total) * num.
    """
    n = y.shape[0]
    work, scratch = blocks.scratch(0, n)
    np.matmul(y, y.T, out=work)
    _sq_distances_rows(np.sum(y * y, axis=1), work, 0, n, scratch)
    np.add(work, 1.0, out=work)
    np.divide(1.0, work, out=work)
    np.fill_diagonal(work, 0.0)
    total = work.sum()
    kl = _kl_terms(p, work, total) if take_kl else None
    weights = np.multiply(p, exaggeration, out=scratch)
    np.subtract(weights, work / total, out=weights)
    np.multiply(weights, work, out=weights)
    return 4.0 * (weights.sum(axis=1)[:, None] * y - weights @ y), kl


def _blocked_step(p: np.ndarray, blocks: _RowBlocks, y: np.ndarray, exaggeration: float, take_kl: bool):
    """``_whole_step``'s gradient and KL by one pass over the row blocks (two with the KL), keeping no N x N array.

    A block's kernel rows are one small gemm of [1 + |y_i|^2, 1, -2 y_i]
    against [1, |y_j|^2, y_j]^T, floored at 1 (that is 1 + max(d, 0)) and
    inverted. The block returns its kernel sum, A = (P * num) @ [y, 1] and
    B = (num * num) @ [y, 1]; with total the block sums in block order,
    [W y | rowsum W] = exaggeration * A - B / total. The KL's pass
    recomputes the kernel rows once the total is known.
    """
    n = y.shape[0]
    sq, ones = np.sum(y * y, axis=1)[:, None], np.ones((n, 1))
    left = np.hstack([1.0 + sq, ones, -2.0 * y])
    right = np.ascontiguousarray(np.hstack([ones, sq, y]).T)
    y1 = np.hstack([y, ones])

    def kernel(start, stop, num):
        np.maximum(np.matmul(left[start:stop], right, out=num), 1.0, out=num)
        np.divide(1.0, num, out=num)
        # row r of the block holds the diagonal entry at flat offset start + r * (n + 1)
        num.reshape(-1)[start::n + 1] = 0.0
        return num

    def products(start, stop):
        num, weighted = blocks.scratch(start, stop)
        kernel(start, stop, num)
        a = np.multiply(p[start:stop], num, out=weighted) @ y1
        return num.sum(), a, np.multiply(num, num, out=weighted) @ y1

    def kl_terms(start, stop):
        return _kl_terms(p[start:stop], kernel(start, stop, blocks.scratch(start, stop)[0]), total)

    sums, a, b = zip(*blocks.run(products))
    total = sum(sums)
    w = exaggeration * np.concatenate(a) - np.concatenate(b) / total
    kl = sum(blocks.run(kl_terms)) if take_kl else None
    return 4.0 * (w[:, 2:] * y - w[:, :2]), kl


def _entropies(shifted: np.ndarray, beta: np.ndarray):
    """Entropy of each row's weights exp(-beta * shifted), with the weights and their sums.

    Row by row this is the arithmetic of a one-row evaluation: the row sums
    are numpy's pairwise sums of each row, and the dot products stay BLAS ddot.
    """
    w = np.exp(-beta[:, None] * shifted)
    sw = w.sum(axis=1)
    dot = np.matmul(shifted[:, None, :], w[:, :, None])[:, 0, 0]
    return np.log(sw) + beta * dot / sw, w, sw


def _bisect_rows(sq_distances: np.ndarray, perplexity: float, start: int, stop: int, p: np.ndarray,
                 achieved: np.ndarray) -> None:
    """Bisect the precisions of rows ``start:stop`` together and write their rows of P and perplexities.

    Each row takes the same steps as a bisection of that row alone and stops
    changing once it converges.
    """
    n = sq_distances.shape[0]
    off_diagonal = np.arange(n) != np.arange(start, stop)[:, None]
    rows = sq_distances[start:stop][off_diagonal].reshape(stop - start, n - 1)
    # shifted weights keep exp() in range; entropy is shift-invariant
    shifted = rows - rows.min(axis=1, keepdims=True)
    log_target = np.log(perplexity)
    beta = np.ones(stop - start)
    beta_min = np.full(stop - start, -np.inf)
    beta_max = np.full(stop - start, np.inf)
    h = _entropies(shifted, beta)[0]
    live = np.arange(stop - start)
    for _ in range(BISECTION_STEPS):
        live = live[~(np.abs(np.exp(h[live]) - perplexity) <= PERPLEXITY_TOL)]
        if live.size == 0:
            break
        b, lo, hi = beta[live], beta_min[live], beta_max[live]
        flat = h[live] > log_target  # too flat: sharpen
        beta_min[live] = np.where(flat, b, lo)
        beta_max[live] = np.where(flat, hi, b)
        beta[live] = np.where(
            flat,
            np.where(hi == np.inf, b * 2.0, 0.5 * (b + hi)),
            np.where(lo == -np.inf, b / 2.0, 0.5 * (b + lo)),
        )
        h[live] = _entropies(shifted[live], beta[live])[0]
    _, w, sw = _entropies(shifted, beta)
    p[start:stop][off_diagonal] = np.divide(w, sw[:, None], out=w).ravel()
    achieved[start:stop] = np.exp(h)


def conditional_affinities(sq_distances: np.ndarray, perplexity: float):
    """Per-point conditional distributions matched to a target perplexity.

    Returns (P, achieved) where P is N x N with zero diagonal and unit row
    sums, and ``achieved`` holds the realized perplexity of each row after
    at most 50 bisection steps (tolerance 1e-5 in perplexity units). Blocks of
    rows are bisected at once, in parallel when there are several.
    """
    n = sq_distances.shape[0]
    p = np.zeros((n, n))
    achieved = np.empty(n)
    with _RowBlocks(n) as blocks:
        blocks.run(lambda start, stop: _bisect_rows(sq_distances, perplexity, start, stop, p, achieved))
    return p, achieved


def tsne_embed(
    data,
    perplexity: float = 30.0,
    iterations: int = 1000,
    seed: int = 0,
) -> Embedding:
    """Embed a dataset into 2 dimensions with exact t-SNE.

    ``data`` is a Dataset or a bare N x D array. Requires N >= 4 and
    3 <= perplexity <= (N - 1) / 3. Points are recentered to zero mean every
    iteration; the KL divergence against the (unexaggerated) affinities is
    recorded every KL_EVERY iterations and at the last one.

    Each iteration takes its gradient one of two ways. While an N x N
    matrix is one row block (N < 363 with 1 MiB blocks: every pipeline and
    verify embedding), ``_whole_step`` keeps the whole-matrix arithmetic of
    a plain numpy loop bit for bit; the descent is chaotic, so a last-bit
    change would move the points and the artifacts that record them. Past
    one block, ``_blocked_step`` makes one pass over the row blocks and
    keeps no N x N array besides P. Its points agree with the whole-matrix
    arithmetic's to rounding, do not depend on the pool size and, with
    OpenBLAS, are the same at one and two BLAS threads.
    """
    x = np.atleast_2d(np.asarray(getattr(data, "features", data), dtype=np.float64))
    n = x.shape[0]
    if n < 4:
        raise InvalidArgumentError("t-SNE needs at least 4 points")
    if iterations < 1:
        raise InvalidArgumentError("iterations must be >= 1")
    if not 3.0 <= perplexity <= (n - 1) / 3.0:
        raise InvalidArgumentError(
            f"perplexity must lie in [3, (N-1)/3] = [3, {(n - 1) / 3:.2f}]; got {perplexity}"
        )
    config = EmbedConfig(perplexity=perplexity, seed=seed)

    cond, achieved = conditional_affinities(pairwise_sq_distances(x), perplexity)
    p_sym = np.add(cond, cond.T)
    del cond
    np.divide(p_sym, 2.0 * n, out=p_sym)
    rng = np.random.default_rng(seed)
    y = rng.normal(0.0, 1e-4, size=(n, 2))
    velocity = np.zeros_like(y)
    kl_trace = []
    with _RowBlocks(n) as blocks:
        step = _whole_step if len(blocks.bounds) == 1 else _blocked_step
        for it in range(iterations):
            if not np.all(np.isfinite(y)):
                raise NumericError("non-finite coordinates in distance computation")
            take_kl = it % KL_EVERY == 0 or it == iterations - 1
            grad, kl = step(p_sym, blocks, y, EARLY_EXAGGERATION if it < EXAGGERATION_ITERS else 1.0, take_kl)
            if take_kl:
                kl_trace.append((it, float(kl)))
            if not np.all(np.isfinite(grad)):
                raise NumericError(f"non-finite t-SNE gradient at iteration {it}", iteration=it)
            momentum = MOMENTUM_EARLY if it < MOMENTUM_SWITCH else MOMENTUM_LATE
            velocity = momentum * velocity - LEARNING_RATE * grad
            y = y + velocity
            y = y - y.mean(axis=0)
    return Embedding(points=y, kl_trace=tuple(kl_trace), config=config, achieved_perplexity=achieved)


def save_embedding(path, embedding: Embedding, config_digest: str = "none", seed=None) -> None:
    """Persist as one 'x,y' row per sample, in sample-id order."""
    write_rows(path, embedding.points.tolist(), header=["x", "y"], config_digest=config_digest, seed=seed)


def load_embedding_points(path) -> np.ndarray:
    _, rows = read_table(path, (float, float), has_header=True)
    return np.array(rows)

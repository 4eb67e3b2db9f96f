"""Exact (quadratic-cost) t-SNE embedding to two dimensions.

Per-point Gaussian precisions are found by bisection so every conditional
distribution hits the target perplexity; affinities are symmetrized and the
Student-t low-dimensional layout is optimized by gradient descent with the
usual momentum schedule and early exaggeration. Everything is plain numpy
in a fixed evaluation order, so a (data, config, seed) triple maps to a
bit-identical embedding.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field

import numpy as np

from ._csvio import format_number, read_rows, write_rows
from .errors import InvalidArgumentError, NumericError

PROB_FLOOR = 1e-12
# the optimization schedule of van der Maaten & Hinton (2008): P is multiplied
# by EARLY_EXAGGERATION for the first EXAGGERATION_ITERS iterations, and the
# momentum steps from MOMENTUM_EARLY to MOMENTUM_LATE at iteration MOMENTUM_SWITCH
EARLY_EXAGGERATION = 12.0
EXAGGERATION_ITERS = 100
MOMENTUM_EARLY = 0.5
MOMENTUM_LATE = 0.8
MOMENTUM_SWITCH = 250
PERPLEXITY_TOL = 1e-5
BISECTION_STEPS = 50
# bytes of one row block of an N x N float64 buffer: a pass over a block touches
# up to four such buffers, which then fit a 4 MiB L2 cache
BLOCK_BYTES = 1 << 20


@dataclass(frozen=True)
class EmbedConfig:
    perplexity: float = 30.0
    iterations: int = 1000
    learning_rate: float = 200.0
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


def _sq_distances_rows(sq: np.ndarray, gram: np.ndarray, start: int, stop: int, out: np.ndarray) -> np.ndarray:
    """Rows ``start:stop`` of the squared distances of the rows of x, clipped at 0, written into ``out``.

    ``sq`` holds the squared row norms of x and ``gram`` holds x @ x.T; its rows
    ``start:stop`` are doubled in place. numpy evaluates ``x @ x.T`` with syrk
    (or, for inputs BLAS cannot take, as the same dot products in the same
    order), so the result is exactly symmetric without averaging it with its
    transpose. A row block of it computed alone with gemm does not have the
    same bits at every N, so callers form the Gram matrix in one call. The
    diagonal is left as computed.
    """
    gram = np.multiply(gram[start:stop], 2.0, out=gram[start:stop])
    # the outer sum comes first: (sq_i + sq_j) - 2 x_i.x_j, in that order
    out = np.add(sq[start:stop, None], sq[None, :], out=out[start:stop])
    np.subtract(out, gram, out=out)
    return np.maximum(out, 0.0, out=out)


def pairwise_sq_distances(points: np.ndarray) -> np.ndarray:
    """Symmetric matrix of squared Euclidean distances with a zero diagonal."""
    x = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if not np.all(np.isfinite(x)):
        raise NumericError("non-finite coordinates in distance computation")
    n = x.shape[0]
    d = _sq_distances_rows(np.sum(x * x, axis=1), x @ x.T, 0, n, np.empty((n, n)))
    np.fill_diagonal(d, 0.0)
    return d


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


class _RowBlocks:
    """The rows of an N x N buffer in blocks of at most BLOCK_BYTES, and the threads that run them.

    numpy releases the GIL inside its ufunc and BLAS loops, so threads that
    fill disjoint row blocks work in parallel. With one block or one usable
    CPU the blocks run inline and no thread is started. Each worker runs
    every ``workers``-th block, so a pass costs one task per worker. The pool
    is shut down when the ``with`` block exits, on error too.
    """

    def __init__(self, n: int):
        rows = max(1, BLOCK_BYTES // (8 * max(n, 1)))
        self.bounds = [(s, min(s + rows, n)) for s in range(0, n, rows)]
        self.workers = max(1, min(len(self.bounds), _usable_cpus()))
        self._pool = ThreadPoolExecutor(self.workers) if self.workers > 1 else None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        if self._pool is not None:
            self._pool.shutdown(wait=True)

    def run(self, fn) -> None:
        """Call ``fn(start, stop)`` for every block; return once all are done."""
        if self._pool is None:
            self._share(fn, 0)
            return
        futures = [self._pool.submit(self._share, fn, w) for w in range(self.workers)]
        wait(futures)
        for future in futures:
            future.result()

    def _share(self, fn, worker: int) -> None:
        for start, stop in self.bounds[worker::self.workers]:
            fn(start, stop)


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
    learning_rate: float = 200.0,
    seed: int = 0,
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
    config = EmbedConfig(perplexity=perplexity, iterations=iterations, learning_rate=learning_rate, seed=seed)

    cond, achieved = conditional_affinities(pairwise_sq_distances(x), perplexity)
    p_sym = (cond + cond.T) / (2.0 * n)
    del cond
    # KL(P || Q) reads only the entries where P > 0; their P terms never change
    kl_index = np.flatnonzero(p_sym > 0)
    p_pos = np.take(p_sym, kl_index)
    log_p_pos = np.log(np.maximum(p_pos, PROB_FLOOR))
    kl_terms = np.empty_like(p_pos)
    # p_sym holds the exaggerated P until the loop puts P back from p_pos
    np.multiply(p_sym, EARLY_EXAGGERATION, out=p_sym)
    # kl_index is row-major, so row i's entries are kl_index[row_cut[i]:row_cut[i + 1]]
    row_cut = np.searchsorted(kl_index, np.arange(n + 1) * n)
    # the N x N work buffers, reused by every iteration
    num = np.empty((n, n))
    q = np.empty((n, n))
    row_sums = np.empty(n)

    def kernel_rows(start, stop):
        # Student-t kernel 1 / (1 + |y_i - y_j|^2); q holds the Gram matrix first
        block = _sq_distances_rows(sq, q, start, stop, num)
        np.add(block, 1.0, out=block)
        np.divide(1.0, block, out=block)

    def weight_rows(start, stop):
        q_block, num_block = q[start:stop], num[start:stop]
        np.divide(num_block, total, out=q_block)
        first, last = row_cut[start], row_cut[stop]
        kl_block = kl_terms[first:last]
        # "raise" would buffer out; the indices are in range
        np.take(q, kl_index[first:last], out=kl_block, mode="clip")
        np.maximum(kl_block, PROB_FLOOR, out=kl_block)
        np.log(kl_block, out=kl_block)
        np.subtract(log_p_pos[first:last], kl_block, out=kl_block)
        np.multiply(p_pos[first:last], kl_block, out=kl_block)
        # q becomes (P - Q) * num, the gradient's pairwise weights
        np.subtract(p_sym[start:stop], q_block, out=q_block)
        np.multiply(q_block, num_block, out=q_block)
        q_block.sum(axis=1, out=row_sums[start:stop])

    rng = np.random.default_rng(seed)
    y = rng.normal(0.0, 1e-4, size=(n, 2))
    velocity = np.zeros_like(y)
    kl_trace = []
    # the passes read sq and total as this loop last bound them
    with _RowBlocks(n) as blocks:
        for it in range(iterations):
            if not np.all(np.isfinite(y)):
                raise NumericError("non-finite coordinates in distance computation")
            sq = np.sum(y * y, axis=1)
            np.matmul(y, y.T, out=q)
            blocks.run(kernel_rows)
            np.fill_diagonal(num, 0.0)
            total = num.sum()
            if it == EXAGGERATION_ITERS:
                p_sym.fill(0.0)
                np.put(p_sym, kl_index, p_pos)
            blocks.run(weight_rows)
            kl = float(np.sum(kl_terms))
            grad = 4.0 * (row_sums[:, None] * y - q @ y)
            if not np.all(np.isfinite(grad)):
                raise NumericError(f"non-finite t-SNE gradient at iteration {it}", iteration=it)
            momentum = MOMENTUM_EARLY if it < MOMENTUM_SWITCH else MOMENTUM_LATE
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

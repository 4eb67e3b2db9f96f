"""Exact (quadratic-cost) t-SNE embedding to two dimensions.

Per-point Gaussian precisions are found by bisection so every conditional
distribution hits the target perplexity; affinities are symmetrized and the
Student-t low-dimensional layout is optimized by gradient descent with the
usual momentum schedule and early exaggeration. Everything is plain numpy
in a fixed evaluation order, so a (data, config, seed) triple maps to a
bit-identical embedding.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor, wait
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
# numpy adds at most this many contiguous float64 elements in one unrolled loop
PAIRWISE_BLOCK = 128


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

    ``sq`` holds the squared row norms of x and ``gram`` holds x @ x.T;
    ``scratch`` holds at least ``stop - start`` rows. Callers form the Gram
    matrix in one call, since a row block of it computed alone takes gemm,
    or gemv for a single row, and its bits then depend on the block layout.
    numpy evaluates ``x @ x.T`` with syrk (or, for inputs BLAS cannot take,
    as the same dot products in the same order), which is exactly symmetric,
    so the distances are not averaged with their transpose.
    ``tsne_embed`` forms it by one whole-matrix gemm against a contiguous
    copy of x.T once its work buffer spans several row blocks; with
    OpenBLAS's Haswell kernels that equals syrk bit for bit when
    N mod 8 < 4, and otherwise may differ in the last bits and need not be
    exactly symmetric (it is not at N = 1004, 1999 or 2005), which nothing
    downstream relies on. The diagonal is left as computed.
    """
    block = np.multiply(gram[start:stop], 2.0, out=gram[start:stop])
    # the outer sum comes first: (sq_i + sq_j) - 2 x_i.x_j, in that order
    outer = np.add(sq[start:stop, None], sq[None, :], out=scratch[:stop - start])
    np.subtract(outer, block, out=block)
    return np.maximum(block, 0.0, out=block)


def pairwise_sq_distances(points: np.ndarray) -> np.ndarray:
    """Symmetric matrix of squared Euclidean distances with a zero diagonal."""
    x = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if not np.all(np.isfinite(x)):
        raise NumericError("non-finite coordinates in distance computation")
    n = x.shape[0]
    d = _sq_distances_rows(np.sum(x * x, axis=1), x @ x.T, 0, n, np.empty((n, n)))
    np.fill_diagonal(d, 0.0)
    return d


def _pairwise_tree(n: int, size: int):
    """numpy's pairwise summation tree over n elements, cut into leaves of at most ``size`` elements.

    numpy sums a contiguous float64 array of more than PAIRWISE_BLOCK
    elements as the sum of its two halves, split at half its length rounded
    down to a multiple of 8, and shorter ones in one unrolled loop. A leaf's
    own ``.sum()`` is the sum of its subtree, so adding the leaves' sums in
    tree order gives the bits of the whole array's ``.sum()``. That rule is
    numpy's code, not its API; a test compares the two. Returns the leaves'
    (start, stop) bounds in order and a function that adds their sums in
    tree order.
    """
    leaves = []

    def split(start, stop):
        if stop - start <= max(size, PAIRWISE_BLOCK):
            leaves.append((start, stop))
            return len(leaves) - 1
        half = (stop - start) // 2
        half -= half % 8
        return split(start, start + half), split(start + half, stop)

    root = split(0, n)

    def fold(sums, node=root):
        if isinstance(node, tuple):
            return fold(sums, node[0]) + fold(sums, node[1])
        return sums[node]

    return leaves, fold


class _RowBlocks:
    """The rows of an N x N buffer in blocks of at most ``_parallel.BLOCK_BYTES``, and the threads that run them.

    numpy releases the GIL inside its ufunc and BLAS loops, so threads that
    fill disjoint row blocks, or sum disjoint leaves of a pairwise tree, work
    in parallel. ``_parallel.pool_size`` sizes the pool; with one worker the
    tasks run inline and no thread is started. Each worker runs every
    ``workers``-th task, so a pass costs one submission per worker. The pool
    is shut down when the ``with`` block exits, on error too.
    """

    def __init__(self, n: int):
        rows = max(1, _parallel.BLOCK_BYTES // (8 * max(n, 1)))
        self.bounds = [(s, min(s + rows, n)) for s in range(0, n, rows)]
        self.workers = _parallel.pool_size(len(self.bounds))
        self._pool = ThreadPoolExecutor(self.workers) if self.workers > 1 else None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        if self._pool is not None:
            self._pool.shutdown(wait=True)

    def run(self, fn, tasks=None) -> list:
        """Call ``fn(*task)`` for every task, by default every block's (start, stop); return the results in order."""
        tasks = self.bounds if tasks is None else tasks
        if self._pool is None:
            return self._share(fn, tasks)
        futures = [self._pool.submit(self._share, fn, tasks[w::self.workers]) for w in range(self.workers)]
        wait(futures)
        results = [None] * len(tasks)
        for w, future in enumerate(futures):
            results[w::self.workers] = future.result()
        return results

    @staticmethod
    def _share(fn, tasks) -> list:
        return [fn(*task) for task in tasks]


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

    The descent keeps two N x N-sized arrays: P, and one work buffer that
    holds the Gram matrix, then the Student-t kernel, then the gradient's
    pairwise weights. P is never changed: the weight pass multiplies its
    rows by EARLY_EXAGGERATION while exaggeration lasts. Row-block passes
    over the work buffer, and the whole-matrix sums (the kernel's total and
    the KL, computed from the kernel and its total before the weights
    overwrite it) as leaves of numpy's pairwise summation tree, run on one
    thread pool when the buffer spans several blocks. The leaves are added
    in tree order, so every bit matches a one-call ``.sum()``.

    The Gram matrix y @ y.T is one BLAS call per iteration. While the work
    buffer is one row block (N < 363 with 1 MiB blocks) it is syrk, as
    in ``pairwise_sq_distances``; numpy then mirrors syrk's triangle on one
    thread, which at that size costs next to nothing. Once the buffer spans
    several blocks it is gemm against a contiguous copy of y.T, which has no
    such copy and takes about a third of syrk's time at N = 2000 on one BLAS
    thread. The two products agree bit for bit when N mod 8 < 4;
    ``_sq_distances_rows`` says where they do not.
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
    np.divide(p_sym, 2.0 * n, out=p_sym)
    # cond's memory becomes the one N x N work buffer every iteration refills
    work = cond
    del cond
    p_flat, num_flat = p_sym.reshape(-1), work.reshape(-1)
    # KL(P || Q) reads only the entries where P > 0, in row-major order. Each
    # leaf of the pairwise tree over them covers one flat range of P, whose
    # bounds come from the rows' counts of positive entries
    leaf_size = _parallel.BLOCK_BYTES // 8
    positive_ends = np.cumsum(np.count_nonzero(p_sym > 0, axis=1))

    def flat_offset(k):
        # where P's k-th positive entry lies in p_flat
        row = int(np.searchsorted(positive_ends, k, side="right"))
        before = int(positive_ends[row - 1]) if row else 0
        return row * n + int(np.flatnonzero(p_sym[row] > 0)[k - before])

    kl_leaves, kl_fold = _pairwise_tree(int(positive_ends[-1]), leaf_size)
    kl_leaves = [(flat_offset(a), flat_offset(b - 1) + 1) for a, b in kl_leaves]
    sum_leaves, sum_fold = _pairwise_tree(n * n, leaf_size)
    row_sums = np.empty(n)

    def kernel_rows(start, stop):
        # Student-t kernel 1 / (1 + |y_i - y_j|^2) over the Gram matrix's rows, zero on the diagonal
        block = _sq_distances_rows(sq, work, start, stop, np.empty((stop - start, n)))
        np.add(block, 1.0, out=block)
        np.divide(1.0, block, out=block)
        # row r of the block holds the diagonal entry at flat offset start + r * (n + 1)
        block.reshape(-1)[start::n + 1] = 0.0

    def sum_leaf(start, stop):
        return num_flat[start:stop].sum()

    def kl_leaf(lo, hi):
        # this leaf's terms P * (log P - log Q), with Q = num / total
        positive = p_flat[lo:hi] > 0
        p, q = p_flat[lo:hi][positive], num_flat[lo:hi][positive]
        np.divide(q, total, out=q)
        np.maximum(q, PROB_FLOOR, out=q)
        np.log(q, out=q)
        log_p = np.maximum(p, PROB_FLOOR)
        np.log(log_p, out=log_p)
        np.subtract(log_p, q, out=q)
        np.multiply(p, q, out=q)
        return q.sum()

    def weight_rows(start, stop):
        # num becomes (P - Q) * num, the gradient's pairwise weights, with P exaggerated early on
        num_block = work[start:stop]
        q_block = num_block / total
        p_block = p_sym[start:stop]
        if it < EXAGGERATION_ITERS:
            p_block = p_block * EARLY_EXAGGERATION
        np.subtract(p_block, q_block, out=q_block)
        np.multiply(q_block, num_block, out=num_block)
        num_block.sum(axis=1, out=row_sums[start:stop])

    rng = np.random.default_rng(seed)
    y = rng.normal(0.0, 1e-4, size=(n, 2))
    velocity = np.zeros_like(y)
    kl_trace = []
    # the passes read it, sq and total as this loop last bound them
    with _RowBlocks(n) as blocks:
        # gemm skips syrk's serial triangle copy, which costs next to nothing in one block
        gemm_gram = len(blocks.bounds) > 1
        for it in range(iterations):
            if not np.all(np.isfinite(y)):
                raise NumericError("non-finite coordinates in distance computation")
            sq = np.sum(y * y, axis=1)
            np.matmul(y, np.ascontiguousarray(y.T) if gemm_gram else y.T, out=work)
            blocks.run(kernel_rows)
            total = sum_fold(blocks.run(sum_leaf, sum_leaves))
            if it % KL_EVERY == 0 or it == iterations - 1:
                # the KL is taken before the weight pass overwrites num
                kl_trace.append((it, float(kl_fold(blocks.run(kl_leaf, kl_leaves)))))
            blocks.run(weight_rows)
            grad = 4.0 * (row_sums[:, None] * y - work @ y)
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

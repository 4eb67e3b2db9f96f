"""Exact (quadratic-cost) t-SNE embedding to two dimensions.

Per-point Gaussian precisions are found by bisection so every conditional
distribution hits the target perplexity. The bisection is replayed, not run:
its decisions compare each precision with three roots of the row's entropy
that bracketed Newton finds, a precision within a rounding-error margin of a
root (or every precision of a row without trustworthy roots) is decided by
the bisection's own arithmetic, and the last evaluation is the bisection's,
so the affinities are its bits (see ``_bisect_rows``). Affinities are
symmetrized and the Student-t low-dimensional layout is optimized by
gradient descent with the usual momentum schedule and early exaggeration.
Everything is plain numpy in a fixed evaluation order, so a (data, config,
seed) triple maps to a bit-identical embedding. The symmetric P is held as its upper-triangle
tiles of ``_parallel.BLOCK_BYTES`` only (at small N one tile, the whole
matrix), and each descent iteration visits those tiles once, each standing
for its mirror too.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import _parallel
from ._csvio import finite, read_table, write_rows
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
        _sq_distances_rows(sq, d, start, stop, blocks.scratch(stop - start, n)[0])

    with _RowBlocks(n) as blocks:
        blocks.run(rows)
    np.fill_diagonal(d, 0.0)
    return d


class _RowBlocks:
    """The rows of an N x N matrix in blocks, its upper-triangle tiles, and the threads that run them.

    A row block is at most ``_parallel.BLOCK_BYTES``; a tile is s x s with
    s = floor(sqrt(BLOCK_BYTES / 8)), so there is one tile exactly when
    there is one row block. ``tiles`` lists the (rows, cols) pairs of
    index slices with rows <= cols, row by row. numpy releases the GIL
    inside its ufunc and BLAS loops, so threads that work on disjoint
    blocks or tiles run in parallel. ``_parallel.pool_size`` sizes the
    pool by the longer of the two task lists; with one worker the tasks run
    inline and no thread is started. Otherwise a free thread takes the next
    task from the executor's queue. The pool is shut down when the ``with``
    block exits, and on error the tasks still queued are cancelled.
    """

    def __init__(self, n: int):
        rows = max(1, _parallel.BLOCK_BYTES // (8 * max(n, 1)))
        side = max(1, math.isqrt(_parallel.BLOCK_BYTES // 8))
        self.bounds = [(s, min(s + rows, n)) for s in range(0, n, rows)]
        edges = [slice(s, min(s + side, n)) for s in range(0, n, side)]
        self.tiles = [(a, b) for i, a in enumerate(edges) for b in edges[i:]]
        self.workers = _parallel.pool_size(max(len(self.bounds), len(self.tiles)))
        self._pool = ThreadPoolExecutor(self.workers) if self.workers > 1 else None
        self._size = max(min(rows, n) * n, min(side, n) ** 2)
        self._local = threading.local()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)

    def run(self, fn, tasks=None) -> list:
        """Call ``fn(*task)`` for every task (by default every block's bounds); return the results in task order."""
        tasks = self.bounds if tasks is None else tasks
        if self._pool is None:
            return [fn(*task) for task in tasks]
        return list(self._pool.map(lambda task: fn(*task), tasks))

    def scratch(self, rows: int, cols: int) -> np.ndarray:
        """Two (rows, cols) arrays of at most a block or a tile that the calling thread reuses, sparing their page faults."""
        if not hasattr(self._local, "buffers"):
            self._local.buffers = np.empty((2, self._size))
        return self._local.buffers[:, :rows * cols].reshape(2, rows, cols)


def _upper_tiles(cond: np.ndarray, blocks: _RowBlocks):
    """P = (cond + cond^T) / 2N as its upper tiles, each its own array, and P's sum of P log P.

    Returns the (rows, cols, P[rows, cols]) triples in ``blocks.tiles``
    order and the sum of P * log(max(P, PROB_FLOOR)) over all of P, each
    off-diagonal tile counted twice. An entry is the bits of np.add(cond,
    cond.T) / 2N, as addition commutes; one tile is that whole matrix.
    """
    n = cond.shape[0]
    packed, p_log_p = [], []
    for rows, cols in blocks.tiles:
        tile = np.add(cond[rows, cols], cond[cols, rows].T)
        np.divide(tile, 2.0 * n, out=tile)
        logs = blocks.scratch(*tile.shape)[0]
        np.log(np.maximum(tile, PROB_FLOOR, out=logs), out=logs)
        p_log_p.append(np.multiply(tile, logs, out=logs).sum())
        packed.append((rows, cols, tile))
    return packed, _fold(p_log_p, packed)


def _fold(values, packed) -> float:
    """The sum of per-tile values over all of an N x N matrix, in tile order: each off-diagonal tile counts twice."""
    return sum(value if rows == cols else 2.0 * value for value, (rows, cols, _) in zip(values, packed))


def _tiled_step(packed, p_log_p: float, blocks: _RowBlocks, y: np.ndarray, exaggeration: float, take_kl: bool):
    """The t-SNE gradient at ``y``, and the KL if ``take_kl``, by one pass over P's upper tiles (two with the KL).

    ``packed`` and ``p_log_p`` are ``_upper_tiles``' P; no N x N array is
    formed besides it. The Student-t kernel is num = 1 / (1 + |y_i - y_j|^2)
    with a zero diagonal, and the pairwise weights are
    W = (exaggeration * P - num / total) * num. A tile's kernel is
    one small gemm of [1 + |y_i|^2, 1, -2 y_i] against [1, |y_j|^2, y_j]^T,
    floored at 1 (that is 1 + max(d, 0)) and inverted, with a zero diagonal
    on a diagonal tile; both P and the kernel are symmetric, so the tile
    stands for its mirror too. It returns its kernel sum, (P * num) @ [y, 1]
    and (num * num) @ [y, 1] for its rows and, off the diagonal, the
    transposed products against [y_rows, 1] for its columns. The main
    thread folds them in tile order into the total (off-diagonal sums
    doubled), A and B, and [W y | rowsum W] = exaggeration * A - B / total.
    The KL's pass recomputes the kernel once the total is known and takes
    only the P log Q terms: KL = p_log_p - sum P log max(Q, PROB_FLOOR),
    where entries with P = 0 add nothing.
    """
    n = y.shape[0]
    sq, ones = np.sum(y * y, axis=1)[:, None], np.ones((n, 1))
    left = np.hstack([1.0 + sq, ones, -2.0 * y])
    right = np.ascontiguousarray(np.hstack([ones, sq, y]).T)
    y1 = np.hstack([y, ones])

    def kernel(rows, cols, num):
        np.maximum(np.matmul(left[rows], right[:, cols], out=num), 1.0, out=num)
        np.divide(1.0, num, out=num)
        if rows == cols:
            np.fill_diagonal(num, 0.0)
        return num

    def products(rows, cols, p):
        num, weighted = blocks.scratch(*p.shape)
        kernel(rows, cols, num)
        y_rows, y_cols = y1[rows], y1[cols]
        pn = np.multiply(p, num, out=weighted)
        a, a_mirror = pn @ y_cols, None if rows == cols else pn.T @ y_rows
        squared = np.multiply(num, num, out=weighted)
        return num.sum(), a, a_mirror, squared @ y_cols, None if rows == cols else squared.T @ y_rows

    def log_q(rows, cols, p):
        q = kernel(rows, cols, blocks.scratch(*p.shape)[0])
        np.log(np.maximum(np.divide(q, total, out=q), PROB_FLOOR, out=q), out=q)
        return np.multiply(p, q, out=q).sum()

    results = blocks.run(products, packed)
    total = _fold([sums for sums, *_ in results], packed)
    a, b = np.zeros((n, 3)), np.zeros((n, 3))
    for (rows, cols, _), (_, a_tile, a_mirror, b_tile, b_mirror) in zip(packed, results):
        a[rows] += a_tile
        b[rows] += b_tile
        if rows != cols:
            a[cols] += a_mirror
            b[cols] += b_mirror
    w = exaggeration * a - b / total
    kl = p_log_p - _fold(blocks.run(log_q, packed), packed) if take_kl else None
    return 4.0 * (w[:, 2:] * y - w[:, :2]), kl


# Newton's method for the precisions at which the bisection's decisions flip
# (see _bisect_rows): the iterations a row may take before it falls back to
# the exact loop, the largest step in u = log(beta), the step under which an
# iterate counts as converged, and the drift beta * max(d) * |u - u_k| up to
# which the weights' moments at u_k stand for those at u
_NEWTON_ITERATIONS = 60
_NEWTON_MAX_STEP = 4.0
_NEWTON_TOL = 1e-5
_DRIFT = 0.1
# the |log beta| that BISECTION_STEPS doublings or halvings of beta = 1 reach
_BETA_REACH = BISECTION_STEPS * math.log(2.0)
# Newton takes exp(max(-beta * d, _EXP_FLOOR)): exp is many times slower where
# it underflows, and the floor adds under n * 1e-304 to a sum of weights >= 1
_EXP_FLOOR = -700.0
_EPS = np.finfo(np.float64).eps  # 2^-52


def _entropies(shifted: np.ndarray, beta: np.ndarray):
    """Entropy of each row's weights exp(-beta * shifted), with the weights and their sums.

    Row by row this is the arithmetic of a one-row evaluation: the row sums
    are numpy's pairwise sums of each row, and the dot products stay BLAS ddot.
    """
    w = np.exp(-beta[:, None] * shifted)
    sw = w.sum(axis=1)
    dot = np.matmul(shifted[:, None, :], w[:, :, None])[:, 0, 0]
    return np.log(sw) + beta * dot / sw, w, sw


def _newton_roots(shifted: np.ndarray, targets: np.ndarray):
    """Per row, the u = log(beta) at which the entropy crosses each of ``targets``, and the margin of each.

    Bracketed Newton on h(u) = targets[0] from u = 0, with h and
    dh/du = -beta^2 Var_w(d) taken from the row sum of w = exp(-beta d) and
    one batched product (einsum) of w with d, d^2 and d^3 (the third moment
    is the margin's). A step that leaves the bracket or is not finite
    becomes the bracket's midpoint or, while the bracket is open on its
    side, a step of _NEWTON_MAX_STEP. Once a step is at most
    _NEWTON_TOL, and moves the weights by at most _DRIFT / 2, each root is
    linearised from that iterate u_k, u_r = u_k + (targets[r] - h_k) / h'_k,
    with no further evaluation. Returns (roots, margins), each
    (rows, len(targets)); a row with no trustworthy root (see
    ``_bisect_rows``) has NaN roots.
    """
    m, n = shifted.shape
    roots = np.full((m, targets.size), np.nan)
    margins = np.full((m, targets.size), np.nan)
    live = np.flatnonzero(shifted.max(axis=1) > 0.0)  # all distances equal: zero variance
    powers = np.empty((live.size, 3, n))
    powers[:, 0] = shifted[live]
    np.multiply(powers[:, 0], powers[:, 0], out=powers[:, 1])
    np.multiply(powers[:, 1], powers[:, 0], out=powers[:, 2])
    dmax = powers[:, 0].max(axis=1)
    scratch = np.empty((live.size, n))
    u, lo, hi = np.zeros(live.size), np.full(live.size, -np.inf), np.full(live.size, np.inf)
    for _ in range(_NEWTON_ITERATIONS):
        if live.size == 0:
            break
        beta = np.exp(u)
        w = np.multiply(powers[:, 0], -beta[:, None], out=scratch[:live.size])
        np.exp(np.maximum(w, _EXP_FLOOR, out=w), out=w)
        s0 = w.sum(axis=1)
        # einsum, not a stacked matmul, which holds the GIL through its per-row products
        a1, a2, a3 = (np.einsum("kpn,kn->kp", powers, w) / s0[:, None]).T
        var = a2 - a1 * a1
        h = np.log(s0) + beta * a1
        slope = -beta * beta * var
        flat = h > targets[0]
        lo, hi = np.where(flat, u, lo), np.where(flat, hi, u)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = (targets[0] - h) / slope
        nxt = u + np.clip(step, -_NEWTON_MAX_STEP, _NEWTON_MAX_STEP)
        newton = (lo < nxt) & (nxt < hi)
        done = newton & (np.abs(step) <= _NEWTON_TOL) & (beta * dmax * np.abs(step) <= 0.5 * _DRIFT)
        if done.any():
            b = beta[done]
            t, m2 = b * a1[done], b * b * a2[done]
            error = _EPS * ((n + 6 + t) * (1.0 + 2.0 * t) + m2 + np.abs(np.log(s0[done])) + np.abs(h[done]))
            curvature = 1.0 + b * (a3[done] - a1[done] * a2[done]) / (2.0 * var[done])
            offsets = (targets - h[done, None]) / slope[done, None]
            found = u[done, None] + offsets
            margin = 8.0 * ((2.0 * error / np.abs(slope[done]))[:, None] + curvature[:, None] * offsets ** 2)
            margin += _EPS * (1.0 + np.abs(found))
            drift = (b * dmax[done])[:, None] * (np.abs(offsets) + margin)
            trusted = np.all(np.isfinite(margin) & (np.abs(found) <= _BETA_REACH) & (drift <= _DRIFT), axis=1)
            rows = live[done][trusted]
            roots[rows], margins[rows] = found[trusted], margin[trusted]
        both = np.isfinite(lo) & np.isfinite(hi)
        bracketed = np.where(both, 0.5 * (lo + hi), u + np.where(flat, _NEWTON_MAX_STEP, -_NEWTON_MAX_STEP))
        u = np.where(newton, nxt, bracketed)
        # done, or the bracket holds no root the bisection reaches
        keep = ~done & (lo <= _BETA_REACH) & (hi >= -_BETA_REACH)
        if not keep.all():
            kept = np.flatnonzero(keep)
            for row, old in enumerate(kept):  # in place: rows only move up
                powers[row] = powers[old]
            powers = powers[:kept.size]
            live, dmax, u, lo, hi = live[kept], dmax[kept], u[kept], lo[kept], hi[kept]
    return roots, margins


def _bisect_rows(sq_distances: np.ndarray, perplexity: float, start: int, stop: int, p: np.ndarray,
                 achieved: np.ndarray) -> None:
    """Bisect the precisions of rows ``start:stop`` and write their rows of P and perplexities.

    Each row ends at the precision that a bisection of that row alone
    reaches, bit for bit, but evaluates few of its steps. With d a row's
    distances less their minimum and n their count, the entropy h of the
    weights w = exp(-beta d) falls as beta grows, so each decision of the
    bisection compares beta with a root: "too flat" (h > log perp) holds iff
    beta < beta*, where h = log perp, and "stop" (|exp h - perp| <= tol)
    iff b- <= beta <= b+, where h = log(perp + tol) and log(perp - tol).
    ``_newton_roots`` finds the three in u = log beta. The loop replays the
    bisection's own float operations on beta (b * 2, b / 2, 0.5 * (b + hi),
    0.5 * (b + lo)) and takes each decision from the roots, except that it
    evaluates h by the exact ``_entropies`` arithmetic when log beta lies
    within a margin of a root u_r:

        M_r = 8 * (2 * eps_h / |h'| + C * (u_r - u_k)^2) + 2^-52 * (1 + |u_r|)

    - eps_h = 2^-52 * ((n + 6 + t)(1 + 2t) + m2 + |log sum w| + |h|), with
      t = beta E_w[d] and m2 = beta^2 E_w[d^2], is twice the first-order
      bound on the rounding error of h, Newton's or ``_entropies``': with
      u = 2^-53, weight j within relative (beta d_j + 4) u (exp within 4 u
      of exp of an argument rounded once), n - 1 roundings per sum or dot
      product, one for each of log, the product, the quotient and the last
      sum. One eps_h moves the computed root, the other the evaluation at
      beta; divided by the slope h' = -beta^2 Var_w(d) they are distances
      in u.
    - C = 1 + beta (E_w[d^3] - E_w[d] E_w[d^2]) / (2 Var_w(d)) bounds
      |h''| / (2 |h'|), as h'' = -2 beta^2 Var_w(d) + beta^3 mu_3 and
      |mu_3| <= E_w[(d + E_w d)(d - E_w d)^2]; C (u_r - u_k)^2 then bounds the
      error of a root linearised from the last Newton iterate u_k, Newton's
      own error included.
    - the factor 8 covers the moments' drift between u_k and beta: the roots
      are used only if beta * max d * (|u_r - u_k| + M_r) <= _DRIFT, so no
      ratio of two weights moves by more than e^0.1.
    - the last term covers the rounding of log beta and of u_r.

    A row with no trustworthy root takes every decision from ``_entropies``,
    which is the exact loop: all distances equal (zero variance), a root
    that is not finite or not found in _NEWTON_ITERATIONS, one beyond the
    |log beta| <= 50 log 2 that the bisection reaches, or a drift past
    _DRIFT. The last ``_entropies`` call is the bisection's own, so P and the
    achieved perplexities are its bits.
    """
    n = sq_distances.shape[0]
    off_diagonal = np.arange(n) != np.arange(start, stop)[:, None]
    shifted = sq_distances[start:stop][off_diagonal].reshape(stop - start, n - 1)
    # shifted weights keep exp() in range; entropy is shift-invariant
    shifted -= shifted.min(axis=1, keepdims=True)
    log_target = np.log(perplexity)
    targets = np.log([perplexity, perplexity + PERPLEXITY_TOL, perplexity - PERPLEXITY_TOL])
    roots, margins = _newton_roots(shifted, targets)
    beta = np.ones(stop - start)
    beta_min = np.full(stop - start, -np.inf)
    beta_max = np.full(stop - start, np.inf)
    live = np.arange(stop - start)
    for _ in range(BISECTION_STEPS):
        b, u = beta[live], np.log(beta[live])
        root, low, high = roots[live].T  # beta*, b- and b+ in log beta
        converged, flat = (low < u) & (u < high), u < root
        exact = np.isnan(root) | np.any(np.abs(u[:, None] - roots[live]) <= margins[live], axis=1)
        if exact.any():
            h = _entropies(shifted[live[exact]], b[exact])[0]
            converged[exact] = np.abs(np.exp(h) - perplexity) <= PERPLEXITY_TOL
            flat[exact] = h > log_target
        live, b, flat = live[~converged], b[~converged], flat[~converged]
        if live.size == 0:
            break
        lo, hi = beta_min[live], beta_max[live]
        beta_min[live] = np.where(flat, b, lo)  # flat: too flat, sharpen
        beta_max[live] = np.where(flat, hi, b)
        beta[live] = np.where(
            flat,
            np.where(hi == np.inf, b * 2.0, 0.5 * (b + hi)),
            np.where(lo == -np.inf, b / 2.0, 0.5 * (b + lo)),
        )
    h, w, sw = _entropies(shifted, beta)
    p[start:stop][off_diagonal] = np.divide(w, sw[:, None], out=w).ravel()
    achieved[start:stop] = np.exp(h)


def conditional_affinities(sq_distances: np.ndarray, perplexity: float):
    """Per-point conditional distributions matched to a target perplexity.

    Returns (P, achieved) where P is N x N with zero diagonal and unit row
    sums, and ``achieved`` holds the realized perplexity of each row after
    at most 50 bisection steps (tolerance 1e-5 in perplexity units). Blocks of
    rows are bisected at once, in parallel when there are several. Each
    block finds per row the precisions where the bisection's decisions flip
    by Newton and replays the bisection's steps from them, evaluating a step
    only within a rounding margin of a root or on a row without trustworthy
    roots; P and ``achieved`` are the bits of a bisection of each row alone
    (``_bisect_rows`` gives the margin).
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

    P is packed as its upper-triangle tiles (``_upper_tiles``; one tile
    while N < 363 with 1 MiB blocks) and the conditional affinities are
    freed. Each iteration is one ``_tiled_step``: one pass over the upper
    tiles (I <= J), so it forms about half the kernel and reads about half
    of P, and keeps no other N x N array. A step agrees with the
    whole-matrix arithmetic of a plain numpy loop to rounding, not bit for
    bit; the descent is chaotic, so after many iterations the points may
    differ from that loop's by much more. The points do not depend on the
    pool size and, with OpenBLAS, are the same at one and two BLAS threads.
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
    rng = np.random.default_rng(seed)
    y = rng.normal(0.0, 1e-4, size=(n, 2))
    velocity = np.zeros_like(y)
    kl_trace = []
    with _RowBlocks(n) as blocks:
        packed, p_log_p = _upper_tiles(cond, blocks)
        del cond
        for it in range(iterations):
            if not np.all(np.isfinite(y)):
                raise NumericError("non-finite coordinates in distance computation")
            take_kl = it % KL_EVERY == 0 or it == iterations - 1
            exaggeration = EARLY_EXAGGERATION if it < EXAGGERATION_ITERS else 1.0
            grad, kl = _tiled_step(packed, p_log_p, blocks, y, exaggeration, take_kl)
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
    _, rows = read_table(path, (finite, finite), has_header=True)
    return np.array(rows)

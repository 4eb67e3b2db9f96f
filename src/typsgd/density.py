"""Gaussian kernel density estimation on the 2-D embedding and the H/L split.

The pipeline ranks samples by their KDE density in the embedded space and
demarcates the densest ceil(N * gamma) samples as the high-representative
stratum H; the rest form L.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import _parallel
from ._csvio import read_table, write_rows
from .errors import CsvFormatError, InvalidArgumentError

FALLBACK_BANDWIDTH = 1e-3


@dataclass(frozen=True)
class DensityMap:
    """Per-sample density values and the kernel covariance that produced them."""

    densities: np.ndarray
    bandwidth: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.densities, dtype=np.float64)
        b = np.atleast_2d(np.asarray(self.bandwidth, dtype=np.float64))
        if not np.all(np.isfinite(d)) or np.any(d <= 0):
            raise InvalidArgumentError("densities must be positive and finite")
        _kernel_variances(b, b.shape[0])
        object.__setattr__(self, "densities", d)
        object.__setattr__(self, "bandwidth", b)


@dataclass(frozen=True)
class Partition:
    """Index split into the high-representative stratum H and remainder L."""

    h_indices: np.ndarray
    l_indices: np.ndarray
    gamma: float

    def __post_init__(self):
        h = np.asarray(self.h_indices, dtype=np.int64)
        l = np.asarray(self.l_indices, dtype=np.int64)
        if h.shape[0] < 1 or l.shape[0] < 1:
            raise InvalidArgumentError("both strata must be non-empty")
        if np.any(np.diff(h) <= 0) or np.any(np.diff(l) <= 0):
            raise InvalidArgumentError("stratum indices must be strictly ascending")
        n = h.shape[0] + l.shape[0]
        merged = np.concatenate([h, l])
        if not np.array_equal(np.sort(merged), np.arange(n)):
            raise InvalidArgumentError("strata must partition 0..N-1 disjointly")
        check_gamma(self.gamma)
        object.__setattr__(self, "h_indices", h)
        object.__setattr__(self, "l_indices", l)

    @property
    def n1(self) -> int:
        return self.h_indices.shape[0]

    @property
    def n2(self) -> int:
        return self.l_indices.shape[0]

    @property
    def n_total(self) -> int:
        return self.n1 + self.n2


def _kernel_variances(covariance, d: int) -> np.ndarray:
    """The diagonal of a kernel covariance, which must be d x d and diagonal with a positive finite diagonal."""
    covariance = np.asarray(covariance, dtype=np.float64)
    if covariance.shape != (d, d):
        raise InvalidArgumentError(f"kernel covariance must be {d} x {d}; got shape {covariance.shape}")
    var = np.diag(covariance)
    if np.any(covariance != np.diag(var)) or not np.all(np.isfinite(var) & (var > 0)):
        raise InvalidArgumentError("kernel covariance must be diagonal with a positive finite diagonal")
    return var


def check_gamma(gamma: float) -> float:
    """``gamma``, the share of samples in H, if it lies in (0, 0.8); anything else, NaN included, is refused."""
    if not 0.0 < gamma < 0.8:
        raise InvalidArgumentError(f"gamma must lie in (0, 0.8); got {gamma}")
    return gamma


def check_bandwidth(bandwidth_rule):
    """``bandwidth_rule`` if it is 'scott' or a positive finite number; anything else is refused."""
    if isinstance(bandwidth_rule, (int, float)):
        if not (math.isfinite(bandwidth_rule) and bandwidth_rule > 0):
            raise InvalidArgumentError(f"fixed bandwidth must be positive and finite; got {bandwidth_rule}")
    elif bandwidth_rule != "scott":
        raise InvalidArgumentError(f"unknown bandwidth rule {bandwidth_rule!r}")
    return bandwidth_rule


def _kernel_covariance(points: np.ndarray, bandwidth_rule) -> np.ndarray:
    """Resolve a bandwidth rule to a diagonal 2x2 kernel covariance matrix.

    'scott' is sigma_hat * N^(-1/(d+4)) per axis; a float selects a fixed
    isotropic kernel with that standard deviation.
    """
    n, d = points.shape
    if check_bandwidth(bandwidth_rule) != "scott":
        return float(bandwidth_rule) ** 2 * np.eye(d)
    sigma = np.std(points, axis=0, ddof=1)
    if np.any(sigma <= 0):
        warnings.warn(
            f"zero variance along an axis; falling back to fixed bandwidth {FALLBACK_BANDWIDTH}",
            stacklevel=3,
        )
        return FALLBACK_BANDWIDTH**2 * np.eye(d)
    factor = n ** (-1.0 / (d + 4))
    return np.diag((sigma * factor) ** 2)


def kde_evaluate(points: np.ndarray, queries: np.ndarray, covariance: np.ndarray) -> np.ndarray:
    """Gaussian KDE of ``points`` evaluated at ``queries`` (diagonal kernel).

    The covariance must be diagonal with a positive finite diagonal, and the
    point set must not be empty. Queries are taken in blocks so that one
    (q, n) array holds at most ``_parallel.BLOCK_BYTES``; a query's density
    does not depend on the block it falls in. The scaled squared distance is
    summed over the coordinates left to right, one (q, n) pass each, which
    for d <= 7 gives the same bits as ``((q - p) ** 2 / var).sum(axis=-1)``
    on the whole difference array (numpy sums 8 or more terms pairwise).
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    n, d = points.shape
    if points.size == 0:
        raise InvalidArgumentError("kernel density needs at least one point")
    if queries.shape[1] != d:
        raise InvalidArgumentError(f"queries have {queries.shape[1]} coordinates, points have {d}")
    var = _kernel_variances(covariance, d)
    norm = 1.0 / ((2.0 * np.pi) ** (d / 2.0) * np.sqrt(np.prod(var)))
    out = np.empty(queries.shape[0])
    step = max(1, _parallel.BLOCK_BYTES // (8 * n))
    for start in range(0, queries.shape[0], step):
        q = queries[start : start + step]
        for k in range(d):
            t = q[:, k, None] - points[:, k]
            np.square(t, out=t)
            t /= var[k]
            sq = t if k == 0 else np.add(sq, t, out=sq)
        sq *= -0.5
        out[start : start + step] = norm * np.exp(sq, out=sq).mean(axis=1)
    return out


def kde_densities(embedding, bandwidth_rule="scott") -> DensityMap:
    """Density of every embedded sample, self-term included.

    ``embedding`` may be an Embedding object or a bare N x 2 array.
    """
    points = np.asarray(getattr(embedding, "points", embedding), dtype=np.float64)
    if points.ndim != 2 or points.shape[0] < 2:
        raise InvalidArgumentError("density estimation needs at least 2 points")
    if not np.all(np.isfinite(points)):
        raise InvalidArgumentError("embedding contains non-finite values")
    cov = _kernel_covariance(points, bandwidth_rule)
    return DensityMap(densities=kde_evaluate(points, points, cov), bandwidth=cov)


def h_size(n: int, gamma: float) -> int:
    """N1, the size of H among ``n`` samples: ceil(N * gamma)."""
    return math.ceil(n * gamma)


def build_partition(densities: DensityMap, gamma: float) -> Partition:
    """Top ceil(N * gamma) densities become H; ties broken by smaller index."""
    check_gamma(gamma)
    values = densities.densities
    n = values.shape[0]
    n1 = h_size(n, gamma)
    if not 1 <= n1 <= n - 1:
        raise InvalidArgumentError(f"gamma={gamma} leaves an empty stratum for N={n}")
    # lexsort: primary key -density, ties resolved by ascending index
    order = np.lexsort((np.arange(n), -values))
    h = np.sort(order[:n1])
    l = np.sort(order[n1:])
    if n1 > n - n1:
        warnings.warn(
            f"N1={n1} exceeds N2={n - n1}; the oversampling constraint narrows the feasible batch plans",
            stacklevel=2,
        )
    return Partition(h_indices=h, l_indices=l, gamma=gamma)


def save_partition(path, partition: Partition, densities: DensityMap, config_digest: str = "none") -> None:
    """Persist as 'sample id, stratum label, density' rows."""
    n = partition.n_total
    labels = np.empty(n, dtype="<U1")
    labels[partition.h_indices] = "H"
    labels[partition.l_indices] = "L"
    rows = list(zip(range(n), labels.tolist(), densities.densities.tolist()))
    write_rows(path, rows, header=["id", "stratum", "density"], config_digest=config_digest)


def stratum(cell: str) -> str:
    if cell not in ("H", "L"):
        raise ValueError(cell)
    return cell


def density(cell: str) -> float:
    value = float(cell)
    if not (math.isfinite(value) and value > 0):
        raise ValueError(cell)
    return value


def load_partition(path, gamma: float) -> Partition:
    """The partition saved at ``path``, which must have been built at ``gamma``: N1 = ceil(N * gamma).

    A density that is not positive and finite, or an H whose lowest density is below L's highest, is malformed.
    """
    _, rows = read_table(path, (int, stratum, density), has_header=True)
    h = sorted(i for i, label, _ in rows if label == "H")
    l = sorted(i for i, label, _ in rows if label == "L")
    partition = Partition(h_indices=np.array(h), l_indices=np.array(l), gamma=gamma)
    low, at = min((value, r) for r, (_, label, value) in enumerate(rows) if label == "H")
    high, high_at = max((value, r) for r, (_, label, value) in enumerate(rows) if label == "L")
    if low < high:
        raise CsvFormatError(
            f"{path}: row {at}: H's lowest density {low!r} lies below L's highest, {high!r} in row {high_at}",
            row=at, column=2,
        )
    expected = h_size(partition.n_total, gamma)
    if partition.n1 != expected:
        raise InvalidArgumentError(
            f"{path} has N1={partition.n1} of N={partition.n_total}, but [partition] gamma = {gamma} "
            f"gives N1 = ceil(N * gamma) = {expected}; run partition again"
        )
    return partition

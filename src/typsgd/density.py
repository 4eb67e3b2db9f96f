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

from ._csvio import format_number, read_rows, write_rows
from .errors import InvalidArgumentError

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
        if b.shape[0] != b.shape[1] or np.any(np.linalg.eigvalsh(b) <= 0):
            raise InvalidArgumentError("bandwidth must be symmetric positive-definite")
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
        if not 0.0 < self.gamma < 0.8:
            raise InvalidArgumentError(f"gamma must lie in (0, 0.8); got {self.gamma}")
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


def _kernel_covariance(points: np.ndarray, bandwidth_rule) -> np.ndarray:
    """Resolve a bandwidth rule to a diagonal 2x2 kernel covariance matrix.

    'scott' and 'silverman' both reduce to sigma_hat * N^(-1/6) per axis in
    two dimensions; a float selects a fixed isotropic kernel with that
    standard deviation.
    """
    n, d = points.shape
    if isinstance(bandwidth_rule, (int, float)):
        if bandwidth_rule <= 0:
            raise InvalidArgumentError("fixed bandwidth must be positive")
        return float(bandwidth_rule) ** 2 * np.eye(d)
    if bandwidth_rule not in ("scott", "silverman"):
        raise InvalidArgumentError(f"unknown bandwidth rule {bandwidth_rule!r}")
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
    """Gaussian KDE of ``points`` evaluated at ``queries`` (diagonal kernel)."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    var = np.diag(covariance)
    norm = 1.0 / ((2.0 * np.pi) ** (points.shape[1] / 2.0) * np.sqrt(np.prod(var)))
    # chunk queries so the (q, n) distance block stays small
    out = np.empty(queries.shape[0])
    step = max(1, int(4e6 // max(points.shape[0], 1)))
    for start in range(0, queries.shape[0], step):
        q = queries[start : start + step]
        sq = ((q[:, None, :] - points[None, :, :]) ** 2 / var).sum(axis=2)
        out[start : start + step] = norm * np.exp(-0.5 * sq).mean(axis=1)
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


def build_partition(densities: DensityMap, gamma: float) -> Partition:
    """Top ceil(N * gamma) densities become H; ties broken by smaller index."""
    if not 0.0 < gamma < 0.8:
        raise InvalidArgumentError(f"gamma must lie in (0, 0.8); got {gamma}")
    values = densities.densities
    n = values.shape[0]
    n1 = math.ceil(n * gamma)
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


def save_partition(path, partition: Partition, densities: DensityMap | None = None, config_digest: str = "none", seed=None) -> None:
    """Persist as 'sample id, stratum label, density' rows."""
    n = partition.n_total
    labels = np.empty(n, dtype="<U1")
    labels[partition.h_indices] = "H"
    labels[partition.l_indices] = "L"
    dens = densities.densities if densities is not None else np.full(n, np.nan)
    rows = [[i, labels[i], format_number(dens[i])] for i in range(n)]
    write_rows(path, rows, header=["id", "stratum", "density"], config_digest=config_digest, seed=seed)


def load_partition(path, gamma: float) -> Partition:
    _, rows = read_rows(path, has_header=True)
    h = [int(r[0]) for r in rows if r[1] == "H"]
    l = [int(r[0]) for r in rows if r[1] == "L"]
    return Partition(h_indices=np.array(sorted(h)), l_indices=np.array(sorted(l)), gamma=gamma)

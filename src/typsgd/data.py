"""Synthetic dataset generators and CSV ingestion.

Two generators are provided: one-dimensional piecewise-linear curves (the
curve-encoding regression task) and clustered Gaussian mixtures (which give
the density-based partition something to find). Both are pure functions of
their arguments including the seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._csvio import finite, read_table, write_rows
from .errors import InvalidArgumentError

# the uniform ranges of a curve's bias and of each segment's slope
BIAS_RANGE = (-1.0, 1.0)
SLOPE_RANGE = (-1.0, 1.0)


@dataclass(frozen=True)
class Dataset:
    """An immutable feature matrix with optional targets.

    ``features`` is N x D and ``targets`` is N x T or None; a sample's id is
    its row index 0..N-1.
    """

    features: np.ndarray
    targets: np.ndarray | None = None

    def __post_init__(self):
        feats = np.atleast_2d(np.asarray(self.features, dtype=np.float64))
        if feats.ndim != 2 or feats.shape[0] < 1 or feats.shape[1] < 1:
            raise InvalidArgumentError("features must be a non-empty N x D matrix")
        if not np.all(np.isfinite(feats)):
            raise InvalidArgumentError("features contain non-finite values")
        targs = self.targets
        if targs is not None:
            targs = np.asarray(targs, dtype=np.float64)
            if targs.ndim == 1:
                targs = targs[:, None]
            if targs.shape[0] != feats.shape[0]:
                raise InvalidArgumentError("targets row count must match features")
            if not np.all(np.isfinite(targs)):
                raise InvalidArgumentError("targets contain non-finite values")
            targs = targs.copy()
            targs.flags.writeable = False
        feats = feats.copy()
        feats.flags.writeable = False
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "targets", targs)

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]


def generate_pwl_curves(
    count: int,
    curve_length: int,
    segment_count: int,
    seed: int,
) -> Dataset:
    """Generate 1-D piecewise-linear curves sampled at integer positions.

    Each row of ``features`` is a curve of ``curve_length`` points made of
    ``segment_count`` linear pieces, with a bias uniform on BIAS_RANGE and
    slopes uniform on SLOPE_RANGE. Slope changes happen at breakpoints
    drawn uniformly without replacement from the interior indices, so ties
    are impossible. ``targets`` stores the full generating parameters
    (bias, per-segment slopes, breakpoint indices) from which the curve can
    be rebuilt exactly.

    Parameters
    ----------
    count : number of curves.
    curve_length : points per curve; must allow segment_count - 1 interior
        breakpoints, i.e. curve_length >= segment_count + 1 unless
        segment_count == 1.
    segment_count : number of linear pieces, >= 1.
    seed : RNG seed; output is a pure function of the arguments.
    """
    if count < 1:
        raise InvalidArgumentError("count must be >= 1")
    if segment_count < 1:
        raise InvalidArgumentError("segment_count must be >= 1")
    if curve_length < segment_count:
        raise InvalidArgumentError("curve_length must be >= segment_count")
    n_breaks = segment_count - 1
    interior = curve_length - 2  # indices 1..curve_length-2
    if n_breaks > max(interior, 0):
        raise InvalidArgumentError(
            f"cannot place {n_breaks} distinct interior breakpoints on a "
            f"curve of length {curve_length}"
        )
    rng = np.random.default_rng(seed)
    curves = np.empty((count, curve_length), dtype=np.float64)
    targets = np.empty((count, 1 + segment_count + n_breaks), dtype=np.float64)
    for i in range(count):
        bias = rng.uniform(*BIAS_RANGE)
        slopes = rng.uniform(*SLOPE_RANGE, size=segment_count)
        if n_breaks:
            breaks = np.sort(rng.choice(np.arange(1, curve_length - 1), size=n_breaks, replace=False))
        else:
            breaks = np.empty(0, dtype=np.int64)
        curves[i] = _build_curve(bias, slopes, breaks, curve_length)
        targets[i] = np.concatenate(([bias], slopes, breaks.astype(np.float64)))
    return Dataset(features=curves, targets=targets)


def _build_curve(bias, slopes, breaks, length):
    # step t (=x[t]-x[t-1]) uses the slope of the segment containing t;
    # a breakpoint at index b means steps t > b switch to the next slope
    diffs = np.empty(length, dtype=np.float64)
    diffs[0] = 0.0
    seg = np.searchsorted(breaks, np.arange(1, length), side="left")
    diffs[1:] = np.asarray(slopes)[seg]
    return bias + np.cumsum(diffs)


def generate_clustered(
    count: int,
    dims: int,
    centers,
    weights,
    noise_sigma: float,
    seed: int,
) -> Dataset:
    """Sample a Gaussian mixture; targets record the generating center index."""
    if count < 1 or dims < 1:
        raise InvalidArgumentError("count and dims must be >= 1")
    centers = np.atleast_2d(np.asarray(centers, dtype=np.float64))
    weights = np.asarray(weights, dtype=np.float64)
    if centers.shape[0] != weights.shape[0]:
        raise InvalidArgumentError(
            f"{centers.shape[0]} centers but {weights.shape[0]} weights"
        )
    if centers.shape[1] != dims:
        raise InvalidArgumentError("center dimensionality must equal dims")
    # every comparison with a NaN is False, so a NaN weight or sigma is refused
    if not (np.all(weights >= 0) and abs(weights.sum() - 1.0) <= 1e-12):
        raise InvalidArgumentError("weights must be a simplex vector (sum 1)")
    if not 0 <= noise_sigma < np.inf:
        raise InvalidArgumentError("noise_sigma must be finite and >= 0")
    rng = np.random.default_rng(seed)
    assignment = rng.choice(len(weights), size=count, p=weights)
    noise = rng.standard_normal((count, dims)) * noise_sigma
    features = centers[assignment] + noise
    return Dataset(features=features, targets=assignment.astype(np.float64)[:, None])


def split_dataset(dataset: Dataset, val_fraction: float, seed: int) -> tuple[Dataset, Dataset | None]:
    """Seed-determined holdout split; returns (train, validation or None)."""
    if not 0.0 <= val_fraction < 1.0:
        raise InvalidArgumentError("val_fraction must be in [0, 1)")
    n = dataset.n_samples
    n_val = int(round(n * val_fraction))
    if n_val == 0:
        return dataset, None
    if n_val >= n:
        raise InvalidArgumentError("validation split would consume every sample")
    perm = np.random.default_rng(seed).permutation(n)
    val_idx = np.sort(perm[:n_val])
    train_idx = np.sort(perm[n_val:])

    def take(idx):
        t = dataset.targets[idx] if dataset.targets is not None else None
        return Dataset(features=dataset.features[idx], targets=t)

    return take(train_idx), take(val_idx)


def save_csv(dataset: Dataset, path, config_digest: str = "none", seed=None) -> None:
    """Write a dataset as CSV under the header ``f<j>`` ... ``t<j>``: feature columns first, then target columns."""
    d, t = dataset.n_features, 0 if dataset.targets is None else dataset.targets.shape[1]
    names = [f"f{j}" for j in range(d)] + [f"t{j}" for j in range(t)]
    values = np.hstack((dataset.features, dataset.targets)) if t else dataset.features
    write_rows(path, values.tolist(), header=names, config_digest=config_digest, seed=seed)


def load_csv(path, has_header: bool = False, target_columns=()) -> Dataset:
    """Load a numeric CSV as a Dataset.

    ``target_columns`` are 0-based column positions that become targets;
    all remaining columns become features.
    """
    _, rows = read_table(path, finite, has_header=has_header)
    return _dataset_from_rows(rows, target_columns)


def load_dataset_file(path) -> Dataset:
    """Load a file written by :func:`save_csv`: its header names the target columns ``t<j>``."""
    header, rows = read_table(path, finite, has_header=True)
    return _dataset_from_rows(rows, [j for j, name in enumerate(header) if name.startswith("t")])


def _dataset_from_rows(rows, target_columns) -> Dataset:
    values = np.array(rows, dtype=np.float64)
    target_columns = sorted(set(int(c) for c in target_columns))
    if any(c < 0 or c >= values.shape[1] for c in target_columns):
        raise InvalidArgumentError("target column index out of range")
    feature_cols = [j for j in range(values.shape[1]) if j not in target_columns]
    if not feature_cols:
        raise InvalidArgumentError("at least one feature column is required")
    targets = values[:, target_columns] if target_columns else None
    return Dataset(features=values[:, feature_cols], targets=targets)

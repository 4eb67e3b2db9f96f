import tracemalloc
import warnings
from dataclasses import dataclass
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from typsgd import _parallel
from typsgd.data import generate_clustered
from typsgd.density import (
    DensityMap,
    Partition,
    build_partition,
    kde_densities,
    kde_evaluate,
    load_partition,
    save_partition,
)
from typsgd.errors import CapabilityError, InvalidArgumentError
from typsgd.models import GradientFamily

# kernel covariances that kde_evaluate and DensityMap both refuse
NOT_POSITIVE_FINITE_DIAGONAL = [
    [[1.0, 0.5], [0.5, 1.0]], [[1.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, -2.0]],
    [[np.nan, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, np.inf]], [[np.inf, 0.0], [0.0, 1.0]],
]
NOT_POSITIVE_FINITE_DIAGONAL_IDS = ["off-diagonal", "zero", "negative", "nan", "inf", "inf-first"]


@dataclass(frozen=True)
class SubsetSearchResult:
    """Best subset found by exhaustive search and its residual norm."""

    h_indices: np.ndarray
    residual: float


def build_partition_oracle(grads, tolerance: float = 0.0, subset_size: int | None = None, reading: str = "total"):
    """Exhaustively search the subset H whose gradient sum best matches the reference.

    The reference sum is the total per-sample gradient (reading='total') or
    the mean (reading='mean'); see the two ways the representativeness
    assumption can be normalized. Only feasible for N <= 20.
    """
    per_sample = np.asarray(grads.per_sample, dtype=np.float64)
    n = per_sample.shape[0]
    if n > 20:
        raise CapabilityError(f"exhaustive subset search refused for N={n} > 20")
    if reading == "total":
        target = per_sample.sum(axis=0)
    elif reading == "mean":
        target = per_sample.sum(axis=0) / n
    else:
        raise InvalidArgumentError(f"unknown reading {reading!r}")
    sizes = range(1, n + 1) if subset_size is None else [subset_size]
    best: tuple[float, tuple[int, ...]] | None = None
    for size in sizes:
        if not 1 <= size <= n:
            raise InvalidArgumentError(f"subset size {size} out of range for N={n}")
        for combo in combinations(range(n), size):
            residual = float(np.linalg.norm(per_sample[list(combo)].sum(axis=0) - target))
            if best is None or residual < best[0]:
                best = (residual, combo)
                if residual <= tolerance:
                    return SubsetSearchResult(
                        h_indices=np.array(combo, dtype=np.int64), residual=residual
                    )
    assert best is not None
    return SubsetSearchResult(h_indices=np.array(best[1], dtype=np.int64), residual=best[0])


class TestKde:
    def test_coincident_points_unit_bandwidth(self):
        points = np.zeros((2, 2))
        dm = kde_densities(points, 1.0)
        assert np.allclose(dm.densities, 1.0 / (2.0 * np.pi), atol=1e-15)

    def test_permutation_equivariance(self, rng):
        points = rng.normal(size=(30, 2))
        perm = rng.permutation(30)
        a = kde_densities(points, "scott").densities
        b = kde_densities(points[perm], "scott").densities
        assert np.allclose(a[perm], b, atol=1e-12)

    def test_translation_invariance(self, rng):
        points = rng.normal(size=(40, 2))
        a = kde_densities(points, "scott").densities
        b = kde_densities(points + np.array([17.0, -4.0]), "scott").densities
        assert np.max(np.abs(a - b)) <= 1e-12

    def test_integral_close_to_one(self, rng):
        # grid quadrature oracle over [-6, 6]^2 at step 0.05
        points = rng.standard_normal((100, 2))
        dm = kde_densities(points, "scott")
        axis = np.arange(-6.0, 6.0 + 0.025, 0.05)
        grid = np.stack(np.meshgrid(axis, axis), axis=-1).reshape(-1, 2)
        integral = float(np.sum(kde_evaluate(points, grid, dm.bandwidth)) * 0.05**2)
        assert abs(integral - 1.0) <= 0.02

    def test_zero_variance_falls_back(self):
        points = np.column_stack([np.zeros(10), np.linspace(0, 1, 10)])
        with pytest.warns(UserWarning, match="fall"):
            dm = kde_densities(points, "scott")
        assert np.allclose(np.diag(dm.bandwidth), 1e-6)

    @pytest.mark.parametrize("bandwidth", [0.0, -1.0, float("nan"), float("inf"), "silverman"])
    def test_rejects_a_bandwidth_that_is_not_scott_or_positive_finite(self, bandwidth):
        with pytest.raises(InvalidArgumentError, match="bandwidth"):
            kde_densities(np.eye(3, 2), bandwidth)

    def test_density_map_validation(self):
        with pytest.raises(InvalidArgumentError):
            DensityMap(densities=np.array([0.0, 1.0]), bandwidth=np.eye(2))
        with pytest.raises(InvalidArgumentError):
            DensityMap(densities=np.array([1.0]), bandwidth=-np.eye(2))

    @pytest.mark.parametrize("covariance", NOT_POSITIVE_FINITE_DIAGONAL, ids=NOT_POSITIVE_FINITE_DIAGONAL_IDS)
    def test_density_map_refuses_a_bandwidth_kde_evaluate_refuses(self, covariance):
        with pytest.raises(InvalidArgumentError, match="diagonal"):
            DensityMap(densities=np.ones(3), bandwidth=np.array(covariance))


class TestKdeBlocks:
    @pytest.mark.parametrize("block_bytes", [1, 8 * 40 * 7, 1 << 30], ids=["one-query", "ragged", "single"])
    def test_densities_do_not_depend_on_the_block(self, monkeypatch, rng, block_bytes):
        points = rng.normal(size=(40, 2))
        queries = rng.normal(size=(50, 2))  # 7 queries a block leave a ragged last block of 1
        cov = kde_densities(points, "scott").bandwidth
        want = kde_evaluate(points, queries, cov)
        monkeypatch.setattr(_parallel, "BLOCK_BYTES", block_bytes)
        assert kde_evaluate(points, queries, cov).tobytes() == want.tobytes()

    def test_grid_peak_memory_is_bounded_by_the_block(self):
        # the grid quadrature case of test_integral_close_to_one: 100 points, 58 081 queries
        points = np.random.default_rng(5).standard_normal((100, 2))
        axis = np.arange(-6.0, 6.0 + 0.025, 0.05)
        grid = np.stack(np.meshgrid(axis, axis), axis=-1).reshape(-1, 2)
        cov = kde_densities(points, "scott").bandwidth
        tracemalloc.start()
        try:
            out = kde_evaluate(points, grid, cov)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * _parallel.BLOCK_BYTES + out.nbytes

    def test_rejects_queries_of_another_width(self):
        with pytest.raises(InvalidArgumentError, match="coordinates"):
            kde_evaluate(np.zeros((4, 2)), np.zeros((3, 1)), np.eye(2))

    def test_rejects_covariance_of_another_size(self):
        with pytest.raises(InvalidArgumentError, match="covariance"):
            kde_evaluate(np.zeros((4, 2)), np.zeros((3, 2)), np.eye(1))

    @pytest.mark.parametrize("covariance", NOT_POSITIVE_FINITE_DIAGONAL, ids=NOT_POSITIVE_FINITE_DIAGONAL_IDS)
    def test_rejects_a_covariance_that_is_not_a_positive_finite_diagonal(self, covariance):
        with pytest.raises(InvalidArgumentError, match="diagonal"):
            kde_evaluate(np.zeros((4, 2)), np.zeros((3, 2)), np.array(covariance))

    def test_rejects_an_empty_point_set(self):
        with pytest.raises(InvalidArgumentError, match="at least one point"):
            kde_evaluate(np.zeros((0, 2)), np.zeros((3, 2)), np.eye(2))


def whole_array_kde(points, queries, covariance):
    """The KDE as one (q, n, d) difference array summed over its last axis."""
    var = np.diag(covariance)
    norm = 1.0 / ((2.0 * np.pi) ** (points.shape[1] / 2.0) * np.sqrt(np.prod(var)))
    sq = ((queries[:, None, :] - points[None, :, :]) ** 2 / var).sum(axis=2)
    return norm * np.exp(-0.5 * sq).mean(axis=1)


@given(
    st.integers(1, 7), st.integers(1, 40), st.integers(1, 60), st.integers(1, 4000), st.integers(0, 2**32 - 1)
)
@settings(max_examples=80, deadline=None)
def test_coordinate_passes_have_the_bits_of_the_whole_array(d, n, q, block_bytes, seed):
    # blocks from one query up to every query at once, ragged last blocks included
    gen = np.random.default_rng(seed)
    points = gen.normal(0.0, gen.uniform(0.1, 10.0), (n, d))
    queries = gen.normal(0.0, 3.0, (q, d))
    covariance = np.diag(gen.uniform(0.01, 5.0, d))
    kept = _parallel.BLOCK_BYTES
    _parallel.BLOCK_BYTES = block_bytes
    try:
        got = kde_evaluate(points, queries, covariance)
    finally:
        _parallel.BLOCK_BYTES = kept
    assert got.tobytes() == whole_array_kde(points, queries, covariance).tobytes()


class TestBuildPartition:
    def test_top_two_by_value(self):
        dm = DensityMap(densities=np.array([5.0, 1.0, 4.0, 2.0]), bandwidth=np.eye(2))
        part = build_partition(dm, 0.5)
        assert part.h_indices.tolist() == [0, 2]
        assert part.l_indices.tolist() == [1, 3]

    def test_tie_break_by_index(self):
        dm = DensityMap(densities=np.ones(4), bandwidth=np.eye(2))
        part = build_partition(dm, 0.25)
        assert part.h_indices.tolist() == [0]

    def test_threshold_property(self, rng):
        values = rng.uniform(0.1, 5.0, size=37)
        dm = DensityMap(densities=values, bandwidth=np.eye(2))
        for gamma in (0.1, 0.3, 0.5, 0.7):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # gamma > 0.5 legitimately warns
                part = build_partition(dm, gamma)
            assert values[part.h_indices].min() >= values[part.l_indices].max()
            assert part.n1 == int(np.ceil(37 * gamma))

    @pytest.mark.parametrize("gamma", [0.0, 0.8, 0.9, -0.1])
    def test_gamma_range(self, gamma):
        dm = DensityMap(densities=np.ones(10), bandwidth=np.eye(2))
        with pytest.raises(InvalidArgumentError):
            build_partition(dm, gamma)

    def test_warns_when_h_larger_than_l(self):
        dm = DensityMap(densities=np.arange(1.0, 11.0), bandwidth=np.eye(2))
        with pytest.warns(UserWarning, match="N1"):
            build_partition(dm, 0.65)

    def test_partition_with_h_larger_than_l_does_not_warn(self):
        # the warning belongs where gamma is chosen; a partition read back or built by hand is silent
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            part = Partition(h_indices=np.arange(7), l_indices=np.arange(7, 10), gamma=0.65)
        assert (part.n1, part.n2) == (7, 3)

    def test_partition_validation(self):
        with pytest.raises(InvalidArgumentError):
            Partition(h_indices=np.array([0, 3]), l_indices=np.array([1]), gamma=0.5)
        with pytest.raises(InvalidArgumentError):
            Partition(h_indices=np.array([0, 1]), l_indices=np.array([1, 2]), gamma=0.5)
        with pytest.raises(InvalidArgumentError):
            Partition(h_indices=np.array([0, 1]), l_indices=np.array([2, 3]), gamma=0.9)


class TestSubsetOracle:
    def test_exact_match_size_two(self):
        grads = GradientFamily(
            per_sample=np.array([[1.0], [1.0], [3.0], [-3.0]]), reference=np.array([2.0])
        )
        result = build_partition_oracle(grads, subset_size=2)
        assert result.h_indices.tolist() == [0, 1]
        assert result.residual == pytest.approx(0.0)

    def test_full_subset_matches_total(self, rng):
        rows = rng.normal(size=(6, 2))
        grads = GradientFamily(per_sample=rows, reference=rows.mean(axis=0))
        result = build_partition_oracle(grads, subset_size=6)
        assert result.h_indices.tolist() == list(range(6))
        assert result.residual == pytest.approx(0.0, abs=1e-12)

    def test_refuses_large_population(self, rng):
        grads = GradientFamily(per_sample=rng.normal(size=(21, 1)), reference=np.zeros(1))
        with pytest.raises(CapabilityError):
            build_partition_oracle(grads)

    def test_mean_reading(self):
        rows = np.array([[2.0], [6.0], [-4.0]])
        grads = GradientFamily(per_sample=rows, reference=rows.mean(axis=0))
        # mean reading targets 4/3; the single row [2] comes closest
        result = build_partition_oracle(grads, subset_size=1, reading="mean")
        assert result.h_indices.tolist() == [0]
        assert isinstance(result, SubsetSearchResult)


def test_two_cluster_density_ranking(rng):
    data = generate_clustered(300, 2, [[0.0, 0.0], [7.0, 7.0]], [0.9, 0.1], 0.6, seed=2)
    dm = kde_densities(data.features, "scott")
    part = build_partition(dm, 0.3)
    majority = data.targets[:, 0] == 0
    assert np.mean(majority[part.h_indices]) >= 0.95


def test_partition_round_trip(tmp_path, rng):
    dm = DensityMap(densities=rng.uniform(0.5, 2.0, size=12), bandwidth=np.eye(2))
    part = build_partition(dm, 0.4)
    path = tmp_path / "partition.csv"
    save_partition(path, part, dm)
    loaded = load_partition(path, 0.4)
    assert np.array_equal(loaded.h_indices, part.h_indices)
    assert np.array_equal(loaded.l_indices, part.l_indices)

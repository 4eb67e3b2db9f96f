import numpy as np
import pytest

from typsgd.data import (
    Dataset,
    generate_clustered,
    generate_pwl_curves,
    load_csv,
    save_csv,
    split_dataset,
)
from typsgd.errors import CsvFormatError, InvalidArgumentError


def rebuild_pwl_curve(target_row: np.ndarray, curve_length: int, segment_count: int) -> np.ndarray:
    """Reconstruct a curve from its stored generating parameters (bias, slopes, breakpoints).

    Step t (x[t] - x[t-1]) takes the slope of the segment containing t: a
    breakpoint at index b switches steps t > b to the next slope.
    """
    bias = target_row[0]
    slopes = target_row[1 : 1 + segment_count]
    breaks = target_row[1 + segment_count :].astype(np.int64)
    curve = np.empty(curve_length)
    curve[0] = bias
    for t in range(1, curve_length):
        curve[t] = curve[t - 1] + slopes[int(np.sum(breaks < t))]
    return curve


class TestPwlCurves:
    def test_single_segment_is_affine(self):
        ds = generate_pwl_curves(1, 4, 1, seed=5)
        diffs = np.diff(ds.features[0])
        assert np.allclose(diffs, diffs[0], atol=1e-12)

    def test_deterministic_in_seed(self):
        a = generate_pwl_curves(3, 64, 4, seed=7)
        b = generate_pwl_curves(3, 64, 4, seed=7)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.targets, b.targets)

    def test_slope_count_bounded_by_segments(self):
        # oracle: count distinct consecutive differences, rounded to 1e-9
        ds = generate_pwl_curves(100, 32, 3, seed=1)
        for row in ds.features:
            slopes = np.unique(np.round(np.diff(row), 9))
            assert len(slopes) <= 3

    def test_reconstruction_from_targets(self):
        ds = generate_pwl_curves(20, 40, 5, seed=11)
        for row, params in zip(ds.features, ds.targets):
            rebuilt = rebuild_pwl_curve(params, 40, 5)
            assert np.max(np.abs(rebuilt - row)) <= 1e-9

    @pytest.mark.parametrize("count,length,segments", [(0, 8, 1), (4, 0, 1), (4, 8, 0)])
    def test_invalid_sizes(self, count, length, segments):
        with pytest.raises(InvalidArgumentError):
            generate_pwl_curves(count, length, segments, seed=0)

    def test_infeasible_breakpoints(self):
        # length == segments >= 2 leaves no room for distinct interior breaks
        with pytest.raises(InvalidArgumentError):
            generate_pwl_curves(1, 4, 4, seed=0)


class TestClustered:
    def test_degenerate_mixture(self):
        ds = generate_clustered(10, 2, [[0.0, 0.0]], [1.0], 0.0, seed=3)
        assert np.array_equal(ds.features, np.zeros((10, 2)))

    def test_component_frequencies(self):
        # binomial 3-sigma interval around 0.9 for n = 1000
        ds = generate_clustered(1000, 2, [[-5.0, 0.0], [5.0, 0.0]], [0.9, 0.1], 0.5, seed=3)
        frac = np.mean(ds.targets[:, 0] == 0)
        assert 0.87 <= frac <= 0.93

    def test_deterministic(self):
        kwargs = dict(count=50, dims=3, centers=[[0, 0, 0], [1, 1, 1]], weights=[0.5, 0.5], noise_sigma=1.0, seed=9)
        a, b = generate_clustered(**kwargs), generate_clustered(**kwargs)
        assert np.array_equal(a.features, b.features)

    def test_mismatched_centers_and_weights(self):
        with pytest.raises(InvalidArgumentError):
            generate_clustered(10, 2, [[0, 0]], [0.5, 0.5], 1.0, seed=0)

    def test_weights_must_be_simplex(self):
        with pytest.raises(InvalidArgumentError):
            generate_clustered(10, 2, [[0, 0], [1, 1]], [0.6, 0.6], 1.0, seed=0)


class TestCsv:
    def test_plain_numeric(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,2\n3,4\n")
        ds = load_csv(path)
        assert np.array_equal(ds.features, [[1.0, 2.0], [3.0, 4.0]])
        assert ds.targets is None

    def test_target_column_split(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n1,2\n3,4\n")
        ds = load_csv(path, has_header=True, target_columns={1})
        assert np.array_equal(ds.features, [[1.0], [3.0]])
        assert np.array_equal(ds.targets, [[2.0], [4.0]])

    def test_parse_error_location(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,x\n")
        with pytest.raises(CsvFormatError) as err:
            load_csv(path)
        assert err.value.row == 0 and err.value.column == 1
        assert "row 0" in str(err.value) and "column 1" in str(err.value)

    def test_ragged_rows(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(CsvFormatError):
            load_csv(path)

    def test_round_trip_exact(self, tmp_path, rng):
        ds = Dataset(features=rng.normal(size=(6, 3)) * 1e-7, targets=rng.normal(size=(6, 2)))
        path = tmp_path / "rt.csv"
        save_csv(ds, path)
        back = load_csv(path, has_header=True, target_columns={3, 4})
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.targets, ds.targets)


class TestDataset:
    def test_rejects_non_finite(self):
        with pytest.raises(InvalidArgumentError):
            Dataset(features=np.array([[np.nan, 1.0]]))

    def test_immutable(self, rng):
        ds = Dataset(features=rng.normal(size=(4, 2)))
        with pytest.raises(ValueError):
            ds.features[0, 0] = 99.0

    def test_split(self, rng):
        ds = Dataset(features=rng.normal(size=(20, 2)), targets=rng.normal(size=(20, 1)))
        train, val = split_dataset(ds, 0.25, seed=3)
        assert train.n_samples == 15 and val.n_samples == 5
        same_train, _ = split_dataset(ds, 0.25, seed=3)
        assert np.array_equal(train.features, same_train.features)
        full, none = split_dataset(ds, 0.0, seed=3)
        assert none is None and full.n_samples == 20

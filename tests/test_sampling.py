import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from typsgd.density import Partition
from typsgd.errors import InvalidArgumentError
from typsgd.sampling import (
    Batch,
    BatchPlan,
    SrsScheme,
    StratifiedScheme,
    batch_space_size,
    default_plan,
    enumerate_batches,
    load_batch_log,
    make_plan,
    plan_beta,
    save_batch_log,
    srs_batch,
    typicality_batch,
)


def partition_of(n1, n2, scatter_seed=None):
    n = n1 + n2
    if scatter_seed is None:
        h = np.arange(n1)
    else:
        h = np.sort(np.random.default_rng(scatter_seed).choice(n, size=n1, replace=False))
    l = np.setdiff1d(np.arange(n), h)
    return Partition(h_indices=h, l_indices=l, gamma=n1 / n)


class TestSrs:
    def test_full_draw_is_permutation(self, rng):
        batch = srs_batch(5, 5, rng)
        assert sorted(batch.indices.tolist()) == [0, 1, 2, 3, 4]

    def test_pair_frequencies(self):
        # every C(4,2) pair should appear with frequency 1/6 +- 3 sigma
        rng = np.random.default_rng(99)
        draws = 60_000
        counts = dict.fromkeys(itertools.combinations(range(4), 2), 0)
        for _ in range(draws):
            counts[tuple(sorted(srs_batch(4, 2, rng).indices))] += 1
        sigma = np.sqrt((1 / 6) * (5 / 6) / draws)
        for pair, count in counts.items():
            assert abs(count / draws - 1 / 6) <= 3 * sigma, pair

    def test_deterministic_sequence(self):
        seqs = []
        for _ in range(2):
            rng = np.random.default_rng(42)
            seqs.append([srs_batch(10, 3, rng).indices.tolist() for _ in range(20)])
        assert seqs[0] == seqs[1]

    def test_oversized_batch(self, rng):
        with pytest.raises(InvalidArgumentError):
            srs_batch(4, 5, rng)


class TestPlans:
    def test_default_plan_splits(self):
        part = partition_of(300, 700)
        plan = default_plan(50, part)
        assert (plan.n1, plan.n2) == (40, 10)
        assert plan_beta(plan, part) == (40 * 1000) / (50 * 300)
        small = default_plan(5, partition_of(10, 10))
        assert (small.n1, small.n2) == (4, 1)

    def test_default_plan_advises_on_infeasible(self):
        part = partition_of(3, 97)
        with pytest.raises(InvalidArgumentError, match="gamma"):
            default_plan(50, part)

    def test_oversampling_constraint(self):
        part = partition_of(4, 4)
        with pytest.raises(InvalidArgumentError, match="oversampling"):
            make_plan(4, 1, part)  # 1/4 < 3/4

    def test_plan_shape_validation(self):
        with pytest.raises(InvalidArgumentError):
            BatchPlan(m=1, n1=1)
        with pytest.raises(InvalidArgumentError):
            BatchPlan(m=4, n1=0)
        with pytest.raises(InvalidArgumentError):
            BatchPlan(m=4, n1=4)
        assert BatchPlan(m=4, n1=3).n2 == 1

    def test_plan_must_match_partition(self):
        plan = make_plan(4, 2, partition_of(4, 4))
        with pytest.raises(InvalidArgumentError):
            typicality_batch(partition_of(5, 3), plan, np.random.default_rng(0))


class TestTypicality:
    def test_structural_counts(self, rng):
        part = partition_of(2, 2)
        plan = make_plan(2, 1, part)
        for _ in range(20):
            batch = typicality_batch(part, plan, rng)
            assert batch.indices[0] in part.h_indices
            assert batch.indices[1] in part.l_indices

    def test_inclusion_frequencies(self):
        # H members included with probability 2/3, L members with 1/6
        part = partition_of(3, 6, scatter_seed=5)
        plan = make_plan(3, 2, part)
        rng = np.random.default_rng(17)
        draws = 90_000
        counts = np.zeros(9)
        for _ in range(draws):
            counts[typicality_batch(part, plan, rng).indices] += 1
        freq = counts / draws
        for target, members in ((2 / 3, part.h_indices), (1 / 6, part.l_indices)):
            sigma = np.sqrt(target * (1 - target) / draws)
            assert np.all(np.abs(freq[members] - target) <= 3 * sigma)

    def test_no_duplicates_and_exact_counts(self, rng):
        part = partition_of(5, 9, scatter_seed=3)
        plan = make_plan(6, 4, part)
        for _ in range(200):
            batch = typicality_batch(part, plan, rng)
            assert len(set(batch.indices.tolist())) == 6
            assert np.isin(batch.indices, part.h_indices).sum() == 4
            assert np.isin(batch.indices, part.l_indices).sum() == 2


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_typicality_batch_counts_property(data):
    n1_pop = data.draw(st.integers(2, 6))
    n2_pop = data.draw(st.integers(n1_pop, 8))
    part = partition_of(n1_pop, n2_pop)
    feasible = [
        (m, k)
        for m in range(2, n1_pop + n2_pop + 1)
        for k in range(max(1, m - n2_pop), min(n1_pop, m - 1) + 1)
        if k * n2_pop >= (m - k) * n1_pop
    ]
    m, k = data.draw(st.sampled_from(feasible))
    plan = make_plan(m, k, part)
    batch = typicality_batch(part, plan, np.random.default_rng(data.draw(st.integers(0, 2**32))))
    assert len(batch.indices) == m
    # the first k indices are the H draws
    assert np.isin(batch.indices[:k], part.h_indices).all()
    assert not np.isin(batch.indices[k:], part.h_indices).any()


class TestSchemes:
    def test_space_sizes(self):
        part = partition_of(3, 4)
        plan = make_plan(3, 2, part)
        assert batch_space_size(SrsScheme(m=2), 7) == 21
        assert batch_space_size(StratifiedScheme(part, plan), 7) == 3 * 4

    def test_enumerate_batches_cover_space(self):
        part = partition_of(3, 4, scatter_seed=11)
        plan = make_plan(3, 2, part)
        batches = [tuple(sorted(b.tolist())) for b in enumerate_batches(StratifiedScheme(part, plan), 7)]
        assert len(batches) == 12
        assert len(set(batches)) == 12
        for b in batches:
            assert len(set(b) & set(part.h_indices.tolist())) == 2


def test_batch_log_round_trip(tmp_path, rng):
    part = partition_of(4, 6)
    plan = make_plan(4, 3, part)
    batches = [(k, typicality_batch(part, plan, rng)) for k in range(5)]
    path = tmp_path / "batches.csv"
    save_batch_log(path, batches)
    loaded = load_batch_log(path)
    assert [(k, b.indices.tolist()) for k, b in batches] == [(k, idx.tolist()) for k, idx in loaded]


ids = st.integers(-(2**63), 2**63 - 1)


@given(arrays(np.int64, st.integers(0, 60), elements=ids, unique=True))
@settings(max_examples=60, deadline=None)
def test_batch_accepts_distinct_ids_unchanged(indices):
    batch = Batch(indices=indices)
    assert batch.indices.dtype == np.int64
    assert np.array_equal(batch.indices, indices)


@given(arrays(np.int64, st.integers(1, 60), elements=ids), st.data())
@settings(max_examples=60, deadline=None)
def test_batch_rejects_any_repeat(indices, data):
    src = data.draw(st.integers(0, indices.shape[0] - 1))
    dst = data.draw(st.integers(0, indices.shape[0]))
    repeated = np.insert(indices, dst, indices[src])
    with pytest.raises(InvalidArgumentError, match="distinct"):
        Batch(indices=repeated)

import itertools
import tracemalloc
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from typsgd import _parallel, sampling
from typsgd.analysis import enumerated_means
from typsgd.density import Partition
from typsgd.errors import InvalidArgumentError
from typsgd.sampling import (
    BatchPlan,
    SrsScheme,
    StratifiedScheme,
    batch_space_size,
    block_size,
    default_plan,
    draw_batches,
    load_batch_log,
    make_plan,
    plan_beta,
    resolve_strata,
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
        assert sorted(srs_batch(5, 5, rng).tolist()) == [0, 1, 2, 3, 4]

    def test_pair_frequencies(self):
        # every C(4,2) pair should appear with frequency 1/6 +- 3 sigma
        rng = np.random.default_rng(99)
        draws = 60_000
        batches = np.sort(np.concatenate(list(draw_batches(resolve_strata(SrsScheme(m=2), 4), rng, draws))), axis=1)
        sigma = np.sqrt((1 / 6) * (5 / 6) / draws)
        for pair in itertools.combinations(range(4), 2):
            count = np.all(batches == pair, axis=1).sum()
            assert abs(count / draws - 1 / 6) <= 3 * sigma, pair

    def test_deterministic_sequence(self):
        seqs = []
        for _ in range(2):
            rng = np.random.default_rng(42)
            seqs.append([srs_batch(10, 3, rng).tolist() for _ in range(20)])
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
            assert batch[0] in part.h_indices
            assert batch[1] in part.l_indices

    def test_inclusion_frequencies(self):
        # H members included with probability 2/3, L members with 1/6
        part = partition_of(3, 6, scatter_seed=5)
        plan = make_plan(3, 2, part)
        rng = np.random.default_rng(17)
        draws = 90_000
        batches = np.concatenate(list(draw_batches(resolve_strata(StratifiedScheme(part, plan), 9), rng, draws)))
        freq = np.bincount(batches.ravel(), minlength=9) / draws
        for target, members in ((2 / 3, part.h_indices), (1 / 6, part.l_indices)):
            sigma = np.sqrt(target * (1 - target) / draws)
            assert np.all(np.abs(freq[members] - target) <= 3 * sigma)

    def test_no_duplicates_and_exact_counts(self, rng):
        part = partition_of(5, 9, scatter_seed=3)
        plan = make_plan(6, 4, part)
        for _ in range(200):
            batch = typicality_batch(part, plan, rng)
            assert len(set(batch.tolist())) == 6
            assert np.isin(batch, part.h_indices).sum() == 4
            assert np.isin(batch, part.l_indices).sum() == 2


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
    assert len(batch) == m
    # the first k indices are the H draws
    assert np.isin(batch[:k], part.h_indices).all()
    assert not np.isin(batch[k:], part.h_indices).any()


class TestSchemes:
    def test_space_sizes(self):
        part = partition_of(3, 4)
        plan = make_plan(3, 2, part)
        assert batch_space_size(SrsScheme(m=2), 7) == 21
        assert batch_space_size(StratifiedScheme(part, plan), 7) == 3 * 4

    def test_enumerate_batches_cover_space(self):
        part = partition_of(3, 4, scatter_seed=11)
        plan = make_plan(3, 2, part)
        # with one-hot rows, m times a batch mean is that batch's 0/1 indicator
        means = np.concatenate(list(enumerated_means(np.eye(7), StratifiedScheme(part, plan).strata(7))))
        indicators = np.rint(means * plan.m).astype(int)
        assert set(indicators.ravel().tolist()) == {0, 1} and (indicators.sum(axis=1) == plan.m).all()
        batches = [tuple(np.flatnonzero(row).tolist()) for row in indicators]
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
    assert [(k, ids.tolist()) for k, ids in batches] == [(k, ids.tolist()) for k, ids in loaded]


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_samplers_are_one_row_of_draw_batches(data):
    # the inclusion checks and training draw through draw_batches; the samplers are its one-row case
    n1_pop = data.draw(st.integers(1, 6))
    n2_pop = data.draw(st.integers(n1_pop, 8))
    part = partition_of(n1_pop, n2_pop, scatter_seed=data.draw(st.integers(0, 99)))
    n = part.n_total
    feasible = [
        (m, k)
        for m in range(2, n + 1)
        for k in range(max(1, m - n2_pop), min(n1_pop, m - 1) + 1)
        if k * n2_pop >= (m - k) * n1_pop
    ]
    seed = data.draw(st.integers(0, 2**32))
    m = data.draw(st.integers(1, n))
    got = srs_batch(n, m, np.random.default_rng(seed))
    want = next(draw_batches(resolve_strata(SrsScheme(m=m), n), np.random.default_rng(seed), 1))[0]
    assert got.dtype == np.int64 and np.array_equal(got, want)
    m, k = data.draw(st.sampled_from(feasible))  # m = 2, k = 1 always fits, as N2 >= N1
    plan = make_plan(m, k, part)
    got = typicality_batch(part, plan, np.random.default_rng(seed))
    want = next(draw_batches(resolve_strata(StratifiedScheme(part, plan), n), np.random.default_rng(seed), 1))[0]
    assert got.dtype == np.int64 and np.array_equal(got, want)


# -- draw_batches against numpy's own per-batch draws -------------------------


def choice_batches(strata, rng, count):
    """The per-batch loop that draw_batches replaces: one ``rng.choice`` per stratum and batch."""
    rows = [
        np.concatenate([members[rng.choice(members.shape[0], size=draws, replace=False)] for members, draws in strata])
        for _ in range(count)
    ]
    return np.array(rows, dtype=np.int64).reshape(count, sum(draws for _, draws in strata))


def assert_same_stream(strata, count, rng_at):
    """draw_batches and the per-batch loop give equal batches and leave equal generators."""
    got_rng, want_rng = rng_at(), rng_at()
    empty = np.empty((0, sum(draws for _, draws in strata)), dtype=np.int64)  # the stream of count = 0
    got = np.concatenate(list(draw_batches(strata, got_rng, count)) or [empty])
    want = choice_batches(strata, want_rng, count)
    assert got.dtype == np.int64 and got.shape == want.shape
    assert np.array_equal(got, want)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


def seeded(seed, half_used=False):
    """A generator factory; ``half_used`` leaves half of a 64-bit output buffered for the next 32-bit draw."""

    def make():
        rng = np.random.default_rng(seed)
        if half_used:
            rng.integers(0, 7)
        return rng

    return make


class TestDrawBatchesIsNumpysChoice:
    # the rule is numpy's code, not its API: if a release changes it, this fails

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_random_one_and_two_strata(self, data):
        sizes = data.draw(st.lists(st.integers(0, 40), min_size=1, max_size=2))
        if sum(sizes) == 0:
            sizes = [1]
        ids = np.random.default_rng(data.draw(st.integers(0, 99))).permutation(sum(sizes) + 5)
        cuts = np.cumsum([0] + sizes)
        strata = tuple(
            (ids[cuts[h] : cuts[h + 1]], data.draw(st.integers(0, sizes[h]))) for h in range(len(sizes))
        )
        seed = data.draw(st.integers(0, 2**32))
        assert_same_stream(strata, data.draw(st.integers(0, 30)), seeded(seed, data.draw(st.booleans())))

    @pytest.mark.parametrize(
        "size, draws",
        [
            (10_001, 200),  # draws = size // 50: Floyd
            (10_001, 201),  # tail shuffle
            (10_000, 5_000),  # size not above 10 000: Floyd
            (12_000, 1),
            (12_000, 11_999),
            (12_000, 12_000),  # the tail shuffle stops at column 1, not 0
            (12_000, 0),
        ],
    )
    def test_both_branches_and_their_boundary(self, size, draws):
        assert sampling._tail_shuffled(size, draws) == (size > 10_000 and draws > size // 50)
        assert_same_stream(((np.arange(size), draws),), 3, seeded(size + draws))
        assert_same_stream(((np.arange(size)[::-1], draws), (np.arange(size, size + 9), 4)), 2, seeded(draws, True))

    @pytest.mark.parametrize("rows_per_block", [1, 3, 7])
    @pytest.mark.parametrize("count", [1, 20, 22])
    def test_a_count_split_across_blocks(self, monkeypatch, rows_per_block, count):
        strata = ((np.arange(4, 13), 5), (np.array([1, 0, 3]), 2))
        monkeypatch.setattr(sampling, "block_size", lambda strata, row_bytes=0: rows_per_block)
        assert_same_stream(strata, count, seeded(count, True))
        # and as successive streams on one generator
        got_rng, want_rng = np.random.default_rng(8), np.random.default_rng(8)
        streams = [draw_batches(strata, got_rng, rows) for rows in (rows_per_block, 2, 5)]
        got = np.concatenate([block for stream in streams for block in stream])
        assert np.array_equal(got, choice_batches(strata, want_rng, rows_per_block + 7))
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_empty_strata_and_no_batches(self):
        assert_same_stream(((np.arange(0), 0), (np.arange(5), 5)), 4, seeded(3))
        assert_same_stream(((np.arange(6), 0),), 4, seeded(3))
        assert_same_stream(((np.arange(6), 3),), 0, seeded(3))


@pytest.mark.parametrize(
    "strata",
    [((np.arange(2000), 50),), ((np.arange(600), 40), (np.arange(600, 2000), 10)), ((np.arange(12_000), 300),)],
    ids=["floyd", "two_strata", "tail_shuffle"],
)
def test_blocks_bound_the_draw_temporaries(strata):
    # pulled one block at a time and kept by no one, the stream holds one block and its temporaries
    # near the block budget however many batches are drawn
    count, rng = 30 * block_size(strata), np.random.default_rng(0)  # numpy.random's lazy imports stay untraced
    tracemalloc.start()
    try:
        largest = max(map(attrgetter("nbytes"), draw_batches(strata, rng, count)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - largest <= 1.25 * _parallel.BLOCK_BYTES

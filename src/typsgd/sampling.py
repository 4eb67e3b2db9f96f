"""Batch selection: simple random sampling and stratified typicality sampling.

Both schemes are stratified sampling: ``strata(n_total)`` returns
(members, draws) pairs, one pair for SRS (the whole population, m draws)
and two for typicality sampling ((H, n1), (L, n2)). Every batch is drawn
by one routine, :func:`draw_batches`, which yields the stream a block of
batches at a time as rows of int64 ids and alone sizes the blocks;
counting batches is written once over the same pairs and ``analysis``
enumerates them. Ids are distinct by construction, checked
once where the strata are made: by ``Partition``, :func:`validate_plan`
and ``SrsScheme.strata`` for the built-in schemes, and by
:func:`resolve_strata` for any scheme handed to a loop or an oracle. No
drawn batch is checked again.

A :class:`BatchPlan` fixes how a batch of size m is split across the
high-representative stratum H (n1 draws) and the remainder L (n2 draws).
Plans must satisfy the oversampling constraint n1/N1 >= n2/N2, which is
checked with exact integer arithmetic. Samplers draw without replacement
through a seeded ``numpy.random.Generator`` and are reproducible from
(seed, call order).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import _parallel
from ._csvio import read_table, write_rows
from .density import Partition
from .errors import InvalidArgumentError

# numpy's choice(N, n, replace=False) shuffles the tail of arange(N) when N > 10 000 and n > N // 50
TAIL_SHUFFLE_SIZE = 10_000
TAIL_SHUFFLE_CUTOFF = 50


@dataclass(frozen=True)
class BatchPlan:
    """Stratified batch layout: m draws, n1 of them from H and n2 = m - n1 from L."""

    m: int
    n1: int

    def __post_init__(self):
        if self.m < 2:
            raise InvalidArgumentError("batch size m must be >= 2")
        if not 0 < self.n1 < self.m:
            raise InvalidArgumentError(f"n1 must lie strictly inside (0, m); got n1={self.n1}, m={self.m}")

    @property
    def n2(self) -> int:
        return self.m - self.n1


def make_plan(m: int, n1: int, partition: Partition) -> BatchPlan:
    """Build and validate a batch plan against a partition."""
    plan = BatchPlan(m=m, n1=n1)
    validate_plan(plan, partition)
    return plan


def validate_plan(plan: BatchPlan, partition: Partition) -> None:
    """Check a plan is feasible for a partition and satisfies n1/N1 >= n2/N2."""
    N1, N2 = partition.n1, partition.n2
    if plan.n1 > N1:
        raise InvalidArgumentError(f"plan draws n1={plan.n1} from stratum H of size {N1}")
    if plan.n2 > N2:
        raise InvalidArgumentError(f"plan draws n2={plan.n2} from stratum L of size {N2}")
    # integer cross-multiplication avoids float equality traps
    if plan.n1 * N2 < plan.n2 * N1:
        raise InvalidArgumentError(
            f"oversampling constraint violated: n1/N1 = {plan.n1}/{N1} < n2/N2 = {plan.n2}/{N2}"
        )


def plan_beta(plan: BatchPlan, partition: Partition) -> float:
    """The bias factor beta = (n1 N) / (m N1) of the unweighted stratified mean.

    beta = 1 recovers proportional weighting of H.
    """
    return (plan.n1 * partition.n_total) / (plan.m * partition.n1)


def default_plan(m: int, partition: Partition) -> BatchPlan:
    """The recommended 80/20 split: n1 = round(0.8 m), n2 = m - n1."""
    if m < 5:
        raise InvalidArgumentError("default plan needs m >= 5 so both strata are drawn")
    n1 = int(round(0.8 * m))
    try:
        return make_plan(m, n1, partition)
    except InvalidArgumentError as exc:
        raise InvalidArgumentError(
            f"{exc}; increase the selection rate gamma or reduce the batch size m"
        ) from None


@dataclass(frozen=True)
class SrsScheme:
    """Batch distribution: plain SRS of size m, the one-stratum scheme."""

    m: int
    kind: ClassVar[str] = "srs"

    def __post_init__(self):
        if self.m < 1:
            raise InvalidArgumentError("batch size m must be >= 1")

    def strata(self, n_total: int):
        """The whole population as one stratum drawn m times."""
        if self.m > n_total:
            raise InvalidArgumentError(f"batch size {self.m} exceeds population {n_total}")
        return ((np.arange(n_total), self.m),)


@dataclass(frozen=True)
class StratifiedScheme:
    """Batch distribution: n1 draws from H and n2 from L per a plan, validated once."""

    partition: Partition
    plan: BatchPlan
    kind: ClassVar[str] = "typicality"

    def __post_init__(self):
        validate_plan(self.plan, self.partition)

    def strata(self, n_total: int):
        """Stratum H drawn n1 times and stratum L drawn n2 times."""
        if self.partition.n_total != n_total:
            raise InvalidArgumentError(
                f"partition covers {self.partition.n_total} samples, dataset has {n_total}"
            )
        return ((self.partition.h_indices, self.plan.n1), (self.partition.l_indices, self.plan.n2))


def resolve_strata(scheme, n_total: int) -> tuple:
    """``scheme.strata(n_total)``, checked once for repeated draws of the same id.

    The strata must be disjoint, hold ids in 0..n_total-1 only, and none may
    be drawn more often than it has members. Then :func:`draw_batches`, which
    draws without replacement within each stratum, can never repeat an id,
    so loops that draw many batches from the result need no per-batch check.
    """
    strata = tuple(scheme.strata(n_total))
    for members, draws in strata:
        if draws > members.shape[0]:
            raise InvalidArgumentError(f"a stratum of {members.shape[0]} members is drawn {draws} times")
    ids = np.concatenate([members for members, _ in strata])
    if ids.size and (ids.min() < 0 or ids.max() >= n_total):
        raise InvalidArgumentError(f"strata hold ids outside 0..{n_total - 1}")
    if np.unique(ids).shape[0] != ids.shape[0]:
        raise InvalidArgumentError("strata overlap or repeat a member")
    return strata


def draw_batches(strata, rng: np.random.Generator, count: int, row_bytes: int = 0):
    """Yield ``count`` batches of the resolved strata in order, as (rows, m) int64 blocks, one batch per row.

    Each batch is an independent SRS draw without replacement within each
    stratum, the strata concatenated in order, so a member of a stratum of
    size N_h drawn n_h times is included with probability n_h/N_h. Row t of
    the stream equals, bit for bit, the t-th of ``count`` successive per-batch
    draws ``members[rng.choice(N_h, n_h, replace=False)]`` stratum by stratum,
    and ``rng`` ends in the same state once the stream is read, so a stream
    cut into blocks of any size gives the same batches.

    ``choice`` (numpy's code, not its API) makes bounded integer draws only:
    Floyd's algorithm followed by a Fisher-Yates shuffle of the n_h picks, or,
    for N_h > 10 000 and n_h > N_h // 50, a tail shuffle of all N_h ids.
    ``rng.integers`` makes the same draws for a whole block of batches in one
    call, and both algorithms then run as O(n_h) numpy passes over the block.
    Each block is drawn when it is pulled and sized by :func:`block_size`,
    counting the caller's ``row_bytes`` of work per batch.
    """
    bounds = [_choice_bounds(members.shape[0], draws) for members, draws in strata]
    flat = np.concatenate(bounds)
    step = block_size(strata, row_bytes)
    for start in range(0, count, step):
        rows = min(step, count - start)
        out = np.empty((rows, sum(draws for _, draws in strata)), dtype=np.int64)
        # the block's draws in stream order, then one column per batch
        values = np.reshape(rng.integers(0, np.tile(flat, (rows, 1)), endpoint=True), (rows, flat.shape[0])).T
        col = 0
        for (members, draws), b in zip(strata, bounds):
            picks = _choice_picks(members.shape[0], draws, values[: b.shape[0]])
            out[:, col : col + draws] = members[picks.T]
            values = values[b.shape[0] :]
            col += draws
        yield out


def block_size(strata, row_bytes: int = 0) -> int:
    """Batches per block: their draw temporaries, plus ``row_bytes`` per batch, fit in ``_parallel.BLOCK_BYTES``."""
    per_batch = row_bytes
    for members, draws in strata:
        # the draws and their bounds, then the tail shuffle's ids or Floyd's flags and picks
        size = members.shape[0]
        per_batch += 8 * (size + 3 * draws) if _tail_shuffled(size, draws) else size + 64 * draws
    return max(1, _parallel.BLOCK_BYTES // max(per_batch, 1))


def _tail_shuffled(size: int, draws: int) -> bool:
    """Whether ``choice(size, draws, replace=False)`` shuffles the tail of arange(size) instead of using Floyd."""
    return size > TAIL_SHUFFLE_SIZE and draws > size // TAIL_SHUFFLE_CUTOFF


def _choice_bounds(size: int, draws: int) -> np.ndarray:
    """The inclusive upper bounds of the integers ``choice(size, draws, replace=False)`` draws, in order."""
    if _tail_shuffled(size, draws):
        return np.arange(size - 1, max(size - draws, 1) - 1, -1)
    # Floyd draws from 0..j for j = size - draws .. size - 1; the shuffle of its picks from 0..i, i = draws - 1 .. 1
    return np.concatenate([np.arange(size - draws, size), np.arange(draws - 1, 0, -1)])


def _choice_picks(size: int, draws: int, values: np.ndarray) -> np.ndarray:
    """The (draws, batches) ids ``choice`` picks from ``values``, the draws of :func:`_choice_bounds` per column."""
    batches = values.shape[1]
    if _tail_shuffled(size, draws):
        ids = np.repeat(np.arange(size), batches).reshape(size, batches)
        _shuffle(ids, values, max(size - draws, 1))
        return ids[size - draws :].copy()  # frees the (size, batches) ids before the next block
    # Floyd over one row of `size` flags per batch, addressed by flat offsets:
    # a value already picked is replaced by j, which no earlier step could pick
    offset = np.arange(batches) * size
    drawn = values[:draws] + offset
    fallback = np.arange(size - draws, size)[:, None] + offset
    taken = np.zeros(batches * size, dtype=bool)
    picks = np.empty((draws, batches), dtype=np.int64)
    for t in range(draws):
        picks[t] = np.where(taken[drawn[t]], fallback[t], drawn[t])
        taken[picks[t]] = True
    picks -= offset
    _shuffle(picks, values[draws:], 1)
    return picks


def _shuffle(ids: np.ndarray, values: np.ndarray, first: int) -> None:
    """Fisher-Yates in place down each column: row i swaps with row ``values[k]``, i = last .. first in turn."""
    flat = ids.reshape(-1)
    at = values * ids.shape[1] + np.arange(ids.shape[1])
    for k, i in enumerate(range(ids.shape[0] - 1, first - 1, -1)):
        held = flat[at[k]]
        flat[at[k]] = ids[i]
        ids[i] = held


def srs_batch(n_total: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform m-subset of {0..n_total-1} without replacement, as int64 ids."""
    return next(draw_batches(SrsScheme(m=m).strata(n_total), rng, 1))[0]


def typicality_batch(partition: Partition, plan: BatchPlan, rng: np.random.Generator) -> np.ndarray:
    """n1 members of H, then n2 members of L, drawn without replacement, as int64 ids."""
    return next(draw_batches(StratifiedScheme(partition=partition, plan=plan).strata(partition.n_total), rng, 1))[0]


def batch_space_size(scheme, n_total: int) -> int:
    """Number of distinct batches the scheme can produce."""
    return math.prod(math.comb(members.shape[0], draws) for members, draws in resolve_strata(scheme, n_total))


def save_batch_log(path, batches, config_digest: str = "none", seed=None) -> None:
    """Audit log: one row per iteration, 'iteration,id0,id1,...', from (iteration, ids) pairs."""
    rows = [[k] + list(map(int, ids)) for k, ids in batches]
    write_rows(path, rows, header=None, config_digest=config_digest, seed=seed)


def load_batch_log(path) -> list[tuple[int, np.ndarray]]:
    _, rows = read_table(path, int)
    return [(r[0], np.array(r[1:], dtype=np.int64)) for r in rows]

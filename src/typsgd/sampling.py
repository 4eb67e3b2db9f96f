"""Batch selection: simple random sampling and stratified typicality sampling.

Both schemes are stratified sampling: ``strata(n_total)`` returns
(members, draws) pairs, one pair for SRS (the whole population, m draws)
and two for typicality sampling ((H, n1), (L, n2)). Every batch is drawn
by one routine, :func:`draw_indices`, as an int64 id array; counting
batches is written once over the same pairs and ``analysis`` enumerates
them. Ids are distinct by construction, checked once where the strata are
made: by ``Partition``, :func:`validate_plan` and ``SrsScheme.strata`` for
the built-in schemes, and by :func:`resolve_strata` for any scheme handed
to a loop or an oracle. No drawn batch is checked again.

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
from functools import lru_cache
from typing import ClassVar

import numpy as np

from ._csvio import read_table, write_rows
from .density import Partition
from .errors import InvalidArgumentError


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
        return ((_population(n_total), self.m),)


@lru_cache(maxsize=4)
def _population(n_total: int) -> np.ndarray:
    """The ids 0..n_total-1, built once per size and read-only, since every SRS draw asks for them."""
    ids = np.arange(n_total)
    ids.flags.writeable = False
    return ids


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
    be drawn more often than it has members. Then :func:`draw_indices`, which
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


def draw_indices(strata, rng: np.random.Generator) -> np.ndarray:
    """Independent SRS draws without replacement within each resolved stratum, concatenated.

    A member of a stratum of size N_h drawn n_h times is included with
    probability n_h/N_h.
    """
    parts = [members[rng.choice(members.shape[0], size=draws, replace=False)] for members, draws in strata]
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def srs_batch(n_total: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform m-subset of {0..n_total-1} without replacement, as int64 ids."""
    return draw_indices(SrsScheme(m=m).strata(n_total), rng)


def typicality_batch(partition: Partition, plan: BatchPlan, rng: np.random.Generator) -> np.ndarray:
    """n1 members of H, then n2 members of L, drawn without replacement, as int64 ids."""
    return draw_indices(StratifiedScheme(partition=partition, plan=plan).strata(partition.n_total), rng)


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

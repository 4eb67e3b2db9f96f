"""Every artifact is written through _csvio.write_rows and read through _csvio.read_table.

Each loader returns exactly what its writer was given, and a corrupted copy
(a truncated last row, a non-numeric or non-finite cell, an unknown stratum
label) raises CsvFormatError naming the file and the row and column at fault.
"""

from pathlib import Path

import numpy as np
import pytest

from typsgd._csvio import format_number, read_rows, write_rows
from typsgd.data import Dataset, load_csv, load_dataset_file, save_csv
from typsgd.density import DensityMap, Partition, load_partition, save_partition
from typsgd.embedding import EmbedConfig, Embedding, load_embedding_points, save_embedding
from typsgd.errors import CsvFormatError
from typsgd.models import load_theta, save_theta
from typsgd.optimize import TraceRecord, TrainTrace, load_trace, save_trace
from typsgd.sampling import load_batch_log, save_batch_log

RNG = np.random.default_rng(19)
DATA = Dataset(features=RNG.normal(size=(5, 3)) * 1e-7, targets=RNG.normal(size=(5, 2)))
POINTS = RNG.normal(size=(6, 2))
PARTITION = Partition(h_indices=[1, 4], l_indices=[0, 2, 3, 5], gamma=0.3)
# H's densities lie above L's, as build_partition orders them
DENSITIES = DensityMap(
    densities=RNG.uniform(0.5, 2.0, size=6) + 2.0 * np.isin(np.arange(6), PARTITION.h_indices), bandwidth=np.eye(2)
)
# a run of 20 steps evaluated every 10 whose optimal loss is 0.0625: each subopt is train_loss - 0.0625
LOSS, VAL_LOSS, _ = RNG.uniform(size=3)
TRACE = TrainTrace(
    records=[
        TraceRecord(0, 2.5, None, 2.4375), TraceRecord(10, LOSS, VAL_LOSS, LOSS - 0.0625), TraceRecord(20, 0.125, 0.5, 0.0625)
    ],
    sampler_kind="typicality",
    seed=3,
)
THETA = RNG.normal(size=4)
BATCHES = [(k, RNG.permutation(9)[:4]) for k in range(3)]

# loader: (write the artifact, read it back, what the reader must return, its data row count)
LOADERS = {
    "load_csv": (
        lambda p: write_rows(p, np.hstack((DATA.features, DATA.targets)).tolist(), header=None),
        lambda p: load_csv(p, target_columns=[3, 4]),
        DATA,
        5,
    ),
    "load_dataset_file": (lambda p: save_csv(DATA, p), load_dataset_file, DATA, 5),
    "load_embedding_points": (
        lambda p: save_embedding(p, Embedding(POINTS, (), EmbedConfig())),
        load_embedding_points,
        POINTS,
        6,
    ),
    "load_partition": (
        lambda p: save_partition(p, PARTITION, DENSITIES),
        lambda p: load_partition(p, 0.3),
        PARTITION,
        6,
    ),
    "load_trace": (lambda p: save_trace(p, TRACE), lambda p: load_trace(p, 20, 10), TRACE, 3),
    "load_theta": (lambda p: save_theta(p, "quadratic", THETA), load_theta, ("quadratic", THETA), 4),
    "load_batch_log": (lambda p: save_batch_log(p, BATCHES), load_batch_log, BATCHES, 3),
}


def plain(value):
    """A loader's result as nested lists of Python values, each array tagged with its dtype kind."""
    if isinstance(value, Dataset):
        return plain((value.features, value.targets))
    if isinstance(value, Partition):
        return plain((value.h_indices, value.l_indices, value.gamma))
    if isinstance(value, TrainTrace):
        return plain((value.records, value.sampler_kind, value.seed))
    if isinstance(value, TraceRecord):
        return [value.iteration, value.train_loss, value.val_loss, value.subopt]
    if isinstance(value, np.ndarray):
        return [value.dtype.kind, value.tolist()]
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    return value


def last_row_edited(path, edit):
    """Replace the file's last line by ``edit(cells)``; an empty result drops the line."""
    lines = Path(path).read_text().splitlines()
    cells = edit(lines[-1].split(","))
    Path(path).write_text("\n".join(lines[:-1] + ([",".join(cells)] if cells else [])) + "\n")


def truncate_last_row(path):
    """Cut the last data row to its first cell, as a write that stopped mid-row leaves it; a one-cell row goes."""
    last_row_edited(path, lambda cells: cells[:1] if len(cells) > 1 else [])


@pytest.fixture(params=sorted(LOADERS))
def artifact(request, tmp_path):
    write, load, expected, rows = LOADERS[request.param]
    path = tmp_path / f"{request.param}.csv"
    write(path)
    return path, load, expected, rows


def test_loader_returns_what_its_writer_was_given(artifact):
    path, load, expected, _ = artifact
    assert plain(load(path)) == plain(expected)


def raises_located(load, path, row, column):
    with pytest.raises(CsvFormatError) as err:
        load(path)
    assert str(path) in str(err.value)
    assert (err.value.row, err.value.column) == (row, column)


def test_truncated_last_row(artifact):
    path, load, _, rows = artifact
    one_cell = "," not in path.read_text().splitlines()[-1]
    truncate_last_row(path)
    # a one-cell file (theta) loses its last row, which its header's parameter count misses
    raises_located(load, path, rows - 1, 0 if one_cell else 1)


@pytest.mark.parametrize("cell", ["x", "nan", "-inf"])
def test_non_numeric_cell(artifact, cell):
    path, load, _, rows = artifact
    last_row_edited(path, lambda cells: [cell] + cells[1:])
    raises_located(load, path, rows - 1, 0)


def test_no_data_rows(artifact):
    path, load, _, rows = artifact
    path.write_text("\n".join(path.read_text().splitlines()[:-rows]) + "\n")
    raises_located(load, path, 0, 0)


def test_unknown_stratum_label(tmp_path):
    path = tmp_path / "partition.csv"
    save_partition(path, PARTITION, DENSITIES)
    last_row_edited(path, lambda cells: [cells[0], "M", cells[2]])
    raises_located(lambda p: load_partition(p, 0.3), path, PARTITION.n_total - 1, 1)


def test_write_rows_formats_each_cell(tmp_path):
    path = tmp_path / "cells.csv"
    # None is empty, a float (numpy float64 included) goes through format_number, the rest through str
    write_rows(path, [[None, 0.1, np.float64(2.0) / 3, 7, "H"]])
    assert read_rows(path)[1] == [["", "0.1", format_number(2.0 / 3), "7", "H"]]


def test_trace_rows_of_two_runs(tmp_path):
    path = tmp_path / "trace.csv"
    save_trace(path, TRACE)
    last_row_edited(path, lambda cells: cells[:-1] + ["4"])
    with pytest.raises(CsvFormatError, match="more than one"):
        load_trace(path, 20, 10)

"""Module layering, read from the source.

Training does not depend on the oracle engine, and each rule has one owner:
_csvio the text of every cell, models the target columns every loss reads,
_parallel the size of every worker pool and the byte budget of every block,
sampling the number of batches in each block it draws, optimize the SGD and
Adam steps. No module finds its inputs by listing a directory.
"""

import ast
from pathlib import Path

import pytest

from typsgd.models import MODEL_KINDS

SRC = Path(__file__).resolve().parents[1] / "src" / "typsgd"
MODULES = sorted(SRC.glob("*.py"))
# the batch-mean engine and the rule that picks between its two paths
ORACLE_ENGINE = {"oracle_path", "enumerated_means", "drawn_means"}
MODEL_CLASSES = {cls.__name__ for cls in MODEL_KINDS.values()}
# the calls that list a directory: os.listdir, os.scandir, Path.iterdir, Path.glob and Path.rglob
DIRECTORY_LISTINGS = {"listdir", "scandir", "iterdir", "glob", "rglob"}


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def imported_modules(tree):
    """The module names of every import; ``from . import x`` counts as importing x."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield from ([node.module] if node.module else [alias.name for alias in node.names])


def others(owner):
    """Parametrize over every module except ``owner``."""
    return pytest.mark.parametrize("path", [p for p in MODULES if p.name != owner], ids=lambda p: p.name)


def names_used(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_optimize_imports_nothing_from_analysis():
    modules = set(imported_modules(parse(SRC / "optimize.py")))
    assert not modules & {"analysis", "typsgd.analysis"}, modules


@others("analysis.py")
def test_oracle_engine_stays_inside_analysis(path):
    assert not set(names_used(parse(path))) & ORACLE_ENGINE


def test_recursion_check_takes_no_batch_means():
    # the descent recursion check is closed-form at any N; it neither enumerates nor draws batches
    tree = parse(SRC / "analysis.py")
    (check,) = [node for node in tree.body if getattr(node, "name", None) == "descent_recursion_check"]
    assert not set(names_used(check)) & {"enumerated_means", "drawn_means"}


@others("optimize.py")
def test_only_optimize_names_the_step_functions(path):
    # an SGD or Adam path is walked through optimize.evaluations, never step by step elsewhere
    assert not set(names_used(parse(path))) & {"sgd_step", "adam_step"}


@others("_csvio.py")
def test_only_csvio_reads_raw_rows(path):
    # every artifact is read back through _csvio.read_table, which checks widths and cells
    assert "read_rows" not in set(names_used(parse(path)))


@others("_csvio.py")
def test_only_csvio_formats_cells(path):
    # writers pass raw values; write_rows decides each cell's text
    assert "format_number" not in set(names_used(parse(path)))


@others("_parallel.py")
def test_only_parallel_counts_the_cpus(path):
    # every pool is sized by _parallel.pool_size, which alone reads the usable-CPU count
    assert "usable_cpus" not in set(names_used(parse(path)))


def target_column_picks(tree):
    """Subscripts ``<expr>.targets[rows, columns]``: a choice of target columns (row selection keeps them all)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute):
            if node.value.attr == "targets" and isinstance(node.slice, ast.Tuple):
                yield node.lineno


@others("models.py")
def test_only_models_picks_target_columns(path):
    # each model class declares its target_columns, and models._targets_for reads them
    assert not list(target_column_picks(parse(path)))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_isinstance_on_a_model_class(path):
    # per-model behaviour lives on the model class, not in a ladder at its callers
    calls = [
        node.lineno
        for node in ast.walk(parse(path))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
        and set(names_used(node.args[1])) & MODEL_CLASSES
    ]
    assert not calls


def assigned_names(tree):
    """Every name or attribute the module binds: assignment targets, loop variables and the like."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Store):
            yield node.id if isinstance(node, ast.Name) else node.attr


@others("_parallel.py")
def test_only_parallel_sets_the_block_budget(path):
    # every blocked pass reads _parallel.BLOCK_BYTES at call time; a second budget would drift from it
    assert not [name for name in assigned_names(parse(path)) if name.endswith("BLOCK_BYTES")]


@others("sampling.py")
def test_only_sampling_sizes_the_batch_blocks(path):
    # draw_batches cuts the batch stream into blocks; its callers read the stream and size nothing
    assert "block_size" not in set(names_used(parse(path)))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_lists_a_directory(path):
    # every file a command reads is named by the config; a listing would take in whatever else lies there
    tree = parse(path)
    assert "glob" not in set(imported_modules(tree))
    assert not set(names_used(tree)) & DIRECTORY_LISTINGS

"""Module layering, read from the source: training does not depend on the oracle engine."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "typsgd"
MODULES = sorted(SRC.glob("*.py"))
# the batch-mean engine and the rule that picks between its two paths
ORACLE_ENGINE = {"oracle_path", "enumerated_means", "drawn_means"}


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def imported_modules(tree):
    """The module names of every import; ``from . import x`` counts as importing x."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield from ([node.module] if node.module else [alias.name for alias in node.names])


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


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "analysis.py"], ids=lambda p: p.name)
def test_oracle_engine_stays_inside_analysis(path):
    assert not set(names_used(parse(path))) & ORACLE_ENGINE


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "_csvio.py"], ids=lambda p: p.name)
def test_only_csvio_reads_raw_rows(path):
    # every artifact is read back through _csvio.read_table, which checks widths and cells
    assert "read_rows" not in set(names_used(parse(path)))

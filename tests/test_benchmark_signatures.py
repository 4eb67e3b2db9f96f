"""perfbench/ reads typsgd parameter defaults and binds arguments by name through
``inspect.signature``; every parameter it reads that way must stay one."""

import ast
import importlib
import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _signature_target(node, imported):
    """The dotted path of F in an ``inspect.signature(F)`` call node, else None."""
    if not (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "signature" and node.args):
        return None
    parts, expr = [], node.args[0]
    while isinstance(expr, ast.Attribute):
        parts.insert(0, expr.attr)
        expr = expr.value
    return ".".join([imported.get(expr.id, expr.id), *parts])


def signature_reads(path):
    """Set of (function path, parameter, default read) that ``path`` reads through ``inspect.signature``.

    Three forms are read from the source without running it: a name bound to
    a table built from a signature (``defaults["m"]``, or
    ``bound.arguments["draws"]`` after ``.bind``), and
    ``inspect.signature(F).parameters["gamma"]`` read in place.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                imported[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    tables = {}  # name -> (function path, whether the table holds defaults)
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            inner = list(ast.walk(node.value))
            targets = [t for t in (_signature_target(n, imported) for n in inner) if t]
            if targets:
                holds_defaults = any(getattr(n, "attr", None) == "default" for n in inner)
                tables[node.targets[0].id] = (targets[0], holds_defaults)
    reads = set()
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant)):
            continue
        key, owner = node.slice.value, node.value
        if isinstance(owner, ast.Attribute) and owner.attr == "arguments":
            owner = owner.value
        if isinstance(owner, ast.Name) and owner.id in tables:
            reads.add((*tables[owner.id][:1], key, tables[owner.id][1]))
        elif isinstance(owner, ast.Attribute) and owner.attr == "parameters":
            target = _signature_target(owner.value, imported)
            if target:
                reads.add((target, key, True))
    return reads


def resolve(dotted):
    """The object named by a dotted path such as ``typsgd.benchmark.run_comparison``."""
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise AssertionError(f"cannot resolve {dotted}")


def test_signature_reads_stay_parameters():
    reads = signature_reads(PERFBENCH / "workloads.py") | signature_reads(PERFBENCH / "tracing.py")
    comparison = "typsgd.benchmark.run_comparison"
    expected = {
        *((comparison, name, True) for name in ("m", "n1", "iterations", "adam_iterations", "eval_every", "threshold")),
        ("typsgd.benchmark.build_benchmark", "gamma", True),
        ("typsgd.analysis.monte_carlo_error", "draws", False),
    }
    assert expected <= reads, expected - reads  # the reader still finds what the benchmark reads
    broken = []
    for function, name, needs_default in sorted(reads):
        parameter = inspect.signature(resolve(function)).parameters.get(name)
        if parameter is None or (needs_default and parameter.default is inspect.Parameter.empty):
            broken.append(f"{function}({name}{'=...' if needs_default else ''})")
    assert not broken, broken

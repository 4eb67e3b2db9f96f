"""The span tracer in perfbench/ wraps typsgd callables by name; every name it lists must resolve."""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def traced_names(name="TRACED"):
    """A literal table of perfbench/tracing.py (TRACED by default), read from its source without running it."""
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no {name} table in perfbench/tracing.py")


def test_every_traced_name_resolves():
    traced = traced_names()
    assert "optimize" in traced and {"train", "sgd_step", "adam_step"} <= set(traced["optimize"])
    missing = []
    for module_name, paths in traced.items():
        module = importlib.import_module(f"typsgd.{module_name}")
        for path in paths:
            owner = module
            if "." in path:
                cls_name, path = path.split(".")
                owner = getattr(module, cls_name, None)
                # the tracer swaps the class attribute itself, so it must be defined on that class
                if owner is None or path not in vars(owner):
                    missing.append(f"{module_name}.{cls_name}.{path}")
                    continue
            if not callable(getattr(owner, path, None)):
                missing.append(f"{module_name}.{path}")
    assert not missing, missing


def test_verify_check_names_match_the_tracer():
    # each verify.<check>_s metric is keyed by the name of a check's first (ASSERTED) result;
    # a renamed check would read 0 there instead of failing
    from typsgd.verify import run_verification

    results, _ = run_verification(seed=0, instances=5)
    assert [r.name for r in results if r.kind == "ASSERTED"] == list(traced_names("VERIFY_CHECKS"))

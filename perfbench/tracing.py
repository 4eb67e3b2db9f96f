"""Span tracing of typsgd's public functions, installed from outside the package.

Nothing under ``src/`` is edited: :meth:`Tracer.install` replaces each
traced function with a timing wrapper by rebinding the module attributes
that hold it. Modules import functions by name (``from .embedding import
tsne_embed``), so every typsgd module attribute that *is* the original
function object is rebound, not only the defining module's.

Spans live in flat typed arrays (name id, parent span id, start, end) so a
run with a few hundred thousand sampler and gradient calls stays small in
memory; counts are recorded at the same boundaries. :meth:`Tracer.dump`
writes both as JSON when the run ends, and :func:`layer_metrics` turns them
into the per-layer metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

# (module, attribute path) of every traced callable. A dotted path names a
# method or classmethod on a class defined in that module.
TRACED = {
    "data": ["generate_clustered", "split_dataset", "save_csv", "load_csv"],
    "embedding": [
        "tsne_embed",
        "conditional_affinities",
        "pairwise_sq_distances",
        "save_embedding",
        "load_embedding_points",
    ],
    "density": ["kde_densities", "kde_evaluate", "build_partition", "save_partition", "load_partition"],
    "sampling": ["srs_batch", "typicality_batch", "make_plan", "default_plan"],
    "models": ["QuadraticModel.per_sample_grads", "per_sample_gradients", "mean_loss", "quadratic_constants"],
    "optimize": ["train", "sgd_step", "adam_step"],
    "analysis": [
        "enumerate_error",
        "monte_carlo_error",
        "compare_error_expectations",
        "srs_error_formula",
        "typicality_error_corrected",
        "build_error_report",
    ],
    "verify": ["run_verification"],  # plus every check_* function, found at install time
    "cli": ["main", "cmd_gen", "cmd_embed", "cmd_partition", "cmd_train", "cmd_verify", "cmd_report"],
    "config": ["RunConfig.from_file"],
    "_csvio": ["write_rows", "read_rows"],
    "svg": ["line_chart", "scatter_chart"],
    "benchmark": ["build_benchmark", "run_comparison"],
}

# metric prefix per module; a metric name may not start with '_'
PREFIX = {module: module.lstrip("_") for module in TRACED}

VERIFY_CHECKS = (
    "srs_formula_exactness",
    "stratified_corrected_identity",
    "published_formula_zero_sum",
    "published_formula_divergence_case",
    "descent_recursion_srs",
    "descent_recursion_typicality",
    "rate_factor_specialization",
    "rate_factor_arithmetic",
    "stratified_vs_srs_family",
    "optimal_bias_sweep",
    "gradient_finite_difference",
    "smoothness_and_convexity_probes",
    "growth_bound_probes",
    "srs_inclusion_frequency",
    "typicality_inclusion_frequency",
    "kde_normalization",
    "tsne_perplexity_match",
    "density_majority_capture",
)

# per-call timings: metric name -> unit
PER_CALL = {
    "embedding.pairwise_ms": "ms",
    "sampling.draw_us.srs": "us",
    "sampling.draw_us.typicality": "us",
    "models.batch_grads_us": "us",
    "models.mean_loss_us": "us",
    "optimize.step_us.sgd": "us",
    "optimize.step_us.adam": "us",
}
TAIL_LEVELS = (99.99, 99.9, 99.0, 90.0, 75.0)


class Tracer:
    """In-memory span and count recorder; one per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.gauges: dict[str, float] = {}
        self.labels: dict[int, str] = {}  # span id -> verify check name
        self.embeddings: dict[int, object] = {}  # tsne_embed span id -> returned Embedding
        self._restore: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, func, after=None):
        """A wrapper recording one span per call; ``after(sid, args, kwargs, result)``."""
        nid = self._name_id(name)
        stack, name_of, parent_of, start, end = self._stack, self.name_of, self.parent_of, self.start, self.end

        def traced(*args, **kwargs):
            sid = len(start)
            name_of.append(nid)
            parent_of.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[sid] = t0
                end[sid] = t1
            if after is not None:
                after(sid, args, kwargs, result)
            return result

        traced.__wrapped__ = func
        traced.__name__ = getattr(func, "__name__", name)
        return traced

    def install(self) -> None:
        """Wrap every function in TRACED (and verify's check_*) across typsgd."""
        for module_name in TRACED:
            importlib.import_module(f"typsgd.{module_name}")
        modules = {name: mod for name, mod in sys.modules.items() if name == "typsgd" or name.startswith("typsgd.")}
        hooks = {
            "embedding.tsne_embed": self._keep_embedding,
            "analysis.enumerate_error": self._count_enumerated,
            "analysis.monte_carlo_error": self._count_mc_draws,
            "config.RunConfig.from_file": lambda *_: self.counts.update(["config.parses"]),
            "_csvio.write_rows": self._count_written,
            "_csvio.read_rows": lambda sid, a, k, result: self.counts.update({"csvio.rows_read": len(result[1])}),
        }
        for module_name, attrs in TRACED.items():
            module = modules[f"typsgd.{module_name}"]
            if module_name == "verify":
                attrs = attrs + sorted(a for a in vars(module) if a.startswith("check_"))
            for path in attrs:
                name = f"{module_name}.{path}"
                after = self._label_check if path.startswith("check_") else hooks.get(name)
                if "." in path:
                    cls_name, attr = path.split(".")
                    cls = getattr(module, cls_name)
                    raw = cls.__dict__[attr]
                    if isinstance(raw, classmethod):
                        replacement = classmethod(self.wrap(name, raw.__func__, after))
                    else:
                        replacement = self.wrap(name, raw, after)
                    self._restore.append((cls, attr, raw))
                    setattr(cls, attr, replacement)
                    continue
                original = getattr(module, path)
                wrapped = self.wrap(name, original, after)
                for mod in modules.values():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._restore.append((mod, attr, original))
                            setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- hooks run after a traced call returns --------------------------------

    def _keep_embedding(self, sid, args, kwargs, result):
        self.embeddings[sid] = result

    def _count_mc_draws(self, sid, args, kwargs, result):
        from typsgd.analysis import monte_carlo_error

        bound = inspect.signature(monte_carlo_error).bind(*args, **kwargs)
        self.counts["analysis.mc_draws"] += int(bound.arguments["draws"])

    def _count_enumerated(self, sid, args, kwargs, result):
        from typsgd.sampling import batch_space_size

        grads, scheme = args[0], args[1] if len(args) > 1 else kwargs["scheme"]
        self.counts["analysis.enumerated_batches"] += batch_space_size(scheme, grads.per_sample.shape[0])

    def _count_written(self, sid, args, kwargs, result):
        rows = args[1] if len(args) > 1 else kwargs["rows"]
        self.counts["csvio.rows_written"] += len(rows)

    def _label_check(self, sid, args, kwargs, result):
        first = result[0] if isinstance(result, tuple) else result
        self.labels[sid] = first.name

    # -- output ---------------------------------------------------------------

    def arrays(self):
        return (
            np.frombuffer(self.name_of, dtype=np.int32).copy(),
            np.frombuffer(self.parent_of, dtype=np.int32).copy(),
            np.frombuffer(self.start, dtype=np.float64).copy(),
            np.frombuffer(self.end, dtype=np.float64).copy(),
        )

    def dump(self, path, origin: float, extra: dict) -> None:
        """Write spans (microseconds from ``origin``) and counts as one JSON file."""
        name_of, parent_of, start, end = self.arrays()
        record = {
            "names": self.names,
            "spans": {
                "name": name_of.tolist(),
                "parent": parent_of.tolist(),
                "start_us": np.round((start - origin) * 1e6).astype(np.int64).tolist(),
                "end_us": np.round((end - origin) * 1e6).astype(np.int64).tolist(),
            },
            "check_labels": {str(k): v for k, v in self.labels.items()},
            "counts": dict(self.counts),
            "gauges": self.gauges,
            **extra,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh, separators=(",", ":"))


def per_call_summary(durations: np.ndarray, scale: float) -> dict:
    """Median, the highest tail percentile with at least ten samples beyond it, and n."""
    n = int(durations.shape[0])
    if n == 0:
        return {"median": 0.0, "tail": 0.0, "tail_level": None, "n": 0}
    values = durations * scale
    # None below 40 samples, where even p75 has fewer than ten beyond it
    level = next((p for p in TAIL_LEVELS if n * (1.0 - p / 100.0) >= 10.0), None)
    tail = float(np.percentile(values, level)) if level is not None else 0.0
    return {"median": float(np.median(values)), "tail": tail, "tail_level": level, "n": n}


def layer_metrics(tracer: Tracer) -> tuple[dict, dict]:
    """Per-layer metrics (name -> (value, unit)) and per-call summaries."""
    name_of, parent_of, start, end = tracer.arrays()
    dur = end - start
    ids = {name: i for i, name in enumerate(tracer.names)}
    n_spans = dur.shape[0]

    def mask(name):
        return name_of == ids[name] if name in ids else np.zeros(n_spans, dtype=bool)

    def total(*names):
        return float(sum(dur[mask(n)].sum() for n in names))

    def count(*names):
        return int(sum(mask(n).sum() for n in names))

    def parent_is(*names):
        has_parent = parent_of >= 0
        out = np.zeros(n_spans, dtype=bool)
        parent_names = np.where(has_parent, name_of[np.maximum(parent_of, 0)], -1)
        for n in names:
            if n in ids:
                out |= has_parent & (parent_names == ids[n])
        return out

    m: dict[str, tuple[float, str]] = {}
    calls: dict[str, dict] = {}

    # data
    m["data.generate_s"] = (total("data.generate_clustered"), "s")

    # embedding: the first pairwise_sq_distances call inside tsne_embed is on the input
    tsne_ids = np.flatnonzero(mask("embedding.tsne_embed"))
    pairwise = np.flatnonzero(mask("embedding.pairwise_sq_distances"))
    bisection = np.flatnonzero(mask("embedding.conditional_affinities"))
    layout_calls, descent_time, iterations = [], 0.0, 0
    for sid in tsne_ids:
        inner = pairwise[parent_of[pairwise] == sid]
        inner = inner[np.argsort(start[inner])]
        input_time = float(dur[inner[0]]) if inner.size else 0.0
        layout_calls.append(inner[1:])
        bis = float(dur[bisection[parent_of[bisection] == sid]].sum())
        descent_time += float(dur[sid]) - bis - input_time
        iterations += len(tracer.embeddings[sid].kl_trace) if sid in tracer.embeddings else 0
    layout = np.concatenate(layout_calls) if layout_calls else np.zeros(0, dtype=np.int64)
    calls["embedding.pairwise_ms"] = per_call_summary(dur[layout], 1e3)
    m["embedding.bisection_s"] = (total("embedding.conditional_affinities"), "s")
    m["embedding.iteration_ms"] = (1e3 * descent_time / iterations if iterations else 0.0, "ms")
    m["embedding.iterations"] = (iterations, "count")
    # the workload's own embedding, not the verify suite's small ones
    own_parent = parent_is("benchmark.build_benchmark", "cli.cmd_embed", "cli.cmd_partition")
    own = [sid for sid in tsne_ids if own_parent[sid]]
    final_kl, misses = 0.0, 0
    if own and own[-1] in tracer.embeddings:
        from typsgd.embedding import PERPLEXITY_TOL

        emb = tracer.embeddings[own[-1]]
        final_kl = float(emb.kl_trace[-1][1])
        misses = int(np.sum(np.abs(emb.achieved_perplexity - emb.config.perplexity) > PERPLEXITY_TOL))
    m["embedding.final_kl"] = (final_kl, "nats")
    m["embedding.perplexity_misses"] = (misses, "count")

    # density
    m["density.kde_s"] = (total("density.kde_densities"), "s")
    m["density.partition_s"] = (total("density.build_partition"), "s")
    m["density.h_majority_share"] = (tracer.gauges.get("density.h_majority_share", 0.0), "ratio")

    # sampling: draw_batch dispatches to these two; the Monte-Carlo oracle calls them directly
    calls["sampling.draw_us.srs"] = per_call_summary(dur[mask("sampling.srs_batch")], 1e6)
    calls["sampling.draw_us.typicality"] = per_call_summary(dur[mask("sampling.typicality_batch")], 1e6)
    m["sampling.draws"] = (count("sampling.srs_batch", "sampling.typicality_batch"), "count")

    # models: a batch gradient is one whose caller is an optimizer step
    grads = mask("models.QuadraticModel.per_sample_grads") & parent_is("optimize.sgd_step", "optimize.adam_step")
    calls["models.batch_grads_us"] = per_call_summary(dur[grads], 1e6)
    calls["models.mean_loss_us"] = per_call_summary(dur[mask("models.mean_loss")], 1e6)
    m["models.constants_s"] = (total("models.quadratic_constants"), "s")
    m["models.constants_calls"] = (count("models.quadratic_constants"), "count")

    # optimize
    calls["optimize.step_us.sgd"] = per_call_summary(dur[mask("optimize.sgd_step")], 1e6)
    calls["optimize.step_us.adam"] = per_call_summary(dur[mask("optimize.adam_step")], 1e6)
    train_time = total("optimize.train")
    eval_time = float(dur[mask("models.mean_loss") & parent_is("optimize.train")].sum())
    m["optimize.eval_share"] = (eval_time / train_time if train_time else 0.0, "ratio")
    m["optimize.steps"] = (count("optimize.sgd_step", "optimize.adam_step"), "count")

    # analysis
    m["analysis.enumerate_s"] = (total("analysis.enumerate_error"), "s")
    m["analysis.enumerated_batches"] = (tracer.counts["analysis.enumerated_batches"], "count")
    m["analysis.monte_carlo_s"] = (total("analysis.monte_carlo_error"), "s")
    m["analysis.mc_draws"] = (tracer.counts["analysis.mc_draws"], "count")

    # verify: one metric per check, named after the check's first result
    by_check = Counter()
    for sid, label in tracer.labels.items():
        by_check[label] += float(dur[sid])
    for check in VERIFY_CHECKS:
        m[f"verify.{check}_s"] = (by_check.get(check, 0.0), "s")
    check_spans = np.zeros(n_spans, dtype=bool)
    check_spans[list(tracer.labels)] = True
    in_checks = float(dur[check_spans & parent_is("verify.run_verification")].sum())
    m["verify.error_reports_s"] = (total("verify.run_verification") - in_checks, "s")

    # cli
    for cmd in ("gen", "embed", "partition", "train", "verify", "report"):
        m[f"cli.{cmd}_s"] = (total(f"cli.cmd_{cmd}"), "s")
    m["cli.artifact_bytes"] = (tracer.gauges.get("cli.artifact_bytes", 0), "bytes")

    m["config.parses"] = (tracer.counts["config.parses"], "count")

    m["csvio.write_s"] = (total("_csvio.write_rows"), "s")
    m["csvio.read_s"] = (total("_csvio.read_rows"), "s")
    m["csvio.rows_written"] = (tracer.counts["csvio.rows_written"], "count")
    m["csvio.rows_read"] = (tracer.counts["csvio.rows_read"], "count")

    m["svg.write_s"] = (total("svg.line_chart", "svg.scatter_chart"), "s")

    m["benchmark.build_s"] = (total("benchmark.build_benchmark"), "s")
    m["benchmark.run_comparison_s"] = (total("benchmark.run_comparison"), "s")

    # self time: a span's duration minus the part its child spans cover
    has_parent = parent_of >= 0
    covered = np.bincount(parent_of[has_parent], weights=dur[has_parent], minlength=n_spans)
    self_time = dur - covered
    module_of = np.array([PREFIX[name.split(".", 1)[0]] for name in tracer.names] or [""])
    per_module = Counter()
    if n_spans:
        for nid, value in enumerate(np.bincount(name_of, weights=self_time, minlength=len(tracer.names))):
            per_module[module_of[nid]] += float(value)
    for module in TRACED:
        m[f"{PREFIX[module]}.self_s"] = (per_module.get(PREFIX[module], 0.0), "s")

    for name, unit in PER_CALL.items():
        summary = calls[name]
        m[name] = (summary["median"], unit)
        m[f"{name}.tail"] = (summary["tail"], unit)
        m[f"{name}.n"] = (summary["n"], "count")
    m["trace.spans"] = (n_spans, "count")
    return m, calls

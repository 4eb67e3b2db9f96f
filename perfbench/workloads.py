"""The two benchmark workloads: program calls, phase timings and output checks.

``comparison`` runs the paper's clustered least-squares experiment in memory
(``typsgd.benchmark``) and then the Monte-Carlo error oracle on its gradient
family at theta_0. ``pipeline`` drives the CLI (``typsgd.cli.main``) through
gen, embed, partition, train, verify and report on the small config in
``pipeline.ini``.

The experiment inputs are frozen: the seed given to the benchmark feeds the
oracle seeds only (see README.md for why). Each run repeats the measured
phases a fixed number of whole rounds, so every run attempts the same
operations.
"""

from __future__ import annotations

import configparser
import contextlib
import inspect
import math
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# Nominal seconds of one round; a run makes seconds // ROUND_SECONDS rounds, at
# least 2, so the round count depends on --seconds alone, never on the clock.
ROUND_SECONDS = {"comparison": 10, "pipeline": 5}
TSNE_ITERATIONS = 150  # build_benchmark runs 300; 150 keeps one run under a minute (README)
ORACLE_DRAWS = 20_000  # Monte-Carlo draws per scheme in the comparison's error oracle
OWN_DRAWS = 100_000  # draws per scheme of the benchmark's own Monte-Carlo estimate

# cluster_capture fails on every comparison run for a fault in the program, on
# inputs that do not depend on the seed: 0.900 of H comes from the majority
# cluster. The failure counts as a failed operation and leaves ``correct``
# true only while the share stays at that level; any further drop is unexpected.
CAPTURE_KNOWN_FLOOR = 0.89


def import_typsgd():
    """Import typsgd from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import typsgd

    if Path(typsgd.__file__).resolve().parent != (src / "typsgd").resolve():
        raise ImportError(f"typsgd imported from {typsgd.__file__}, not from {src}")
    return typsgd


def rounds_for(workload: str, seconds: int) -> int:
    return max(2, seconds // ROUND_SECONDS[workload])


def iterations_metric(median: float, budget: int) -> float:
    """A median iteration count, with the budget standing in for "never"."""
    return float(median) if math.isfinite(median) else float(budget)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Result:
    """End-to-end metrics of one run, and its output checks to run afterwards.

    ``run_checks(ck)`` is set by the workload; it runs after the timed part
    and after tracing stops, so neither the metrics nor the trace include it.
    """

    def __init__(self):
        self.metrics: dict[str, tuple[float, str]] = {}
        self.checks = checks.Checks()
        self.gauges: dict[str, float] = {}
        self.known_faults: set[str] = set()
        self.run_checks = lambda ck: None
        self.cleanup = lambda: None


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------


def comparison(seed: int, seconds: int, origin: float) -> Result:
    from typsgd import analysis, benchmark, embedding, models, optimize, sampling

    defaults = {k: p.default for k, p in inspect.signature(benchmark.run_comparison).parameters.items()}
    m, n1 = defaults["m"], defaults["n1"]
    kept = {}

    def keep_embedding(*args, **kwargs):
        # build_benchmark drops the embedding; the perplexity check needs it
        kept["embedding"] = embedding.tsne_embed(*args, **kwargs)
        return kept["embedding"]

    benchmark.tsne_embed = keep_embedding
    try:
        t = perf_counter()
        setup = benchmark.build_benchmark(tsne_iterations=TSNE_ITERATIONS)
        setup_s = perf_counter() - t
        train_s, verify_s, runs, oracles = [], [], [], []
        for _ in range(rounds_for("comparison", seconds)):
            t = perf_counter()
            runs.append(benchmark.run_comparison(setup))
            train_s.append(perf_counter() - t)
            t = perf_counter()
            grads = models.per_sample_gradients(models.QuadraticModel(), setup.dataset, np.zeros(2))
            family = models.GradientFamily(per_sample=grads, reference=grads.mean(axis=0))
            plan = sampling.make_plan(m, n1, setup.partition)
            oracles.append(
                analysis.compare_error_expectations(family, setup.partition, plan, mc_draws=ORACLE_DRAWS, seed=seed)
            )
            verify_s.append(perf_counter() - t)
        end = perf_counter()
    finally:
        benchmark.tsne_embed = embedding.tsne_embed

    res = Result()
    run = runs[0]
    budget = defaults["iterations"]
    steps = len(run.seeds) * len(run.sgd_iterations) * (budget + defaults["adam_iterations"])
    res.metrics = {
        "setup_s": (setup_s, "s"),
        "train_steps_per_s": (steps / statistics.median(train_s), "steps/s"),
        "verify_s": (statistics.median(verify_s), "s"),
        "total_s": (end - origin, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "iters_to_threshold.typicality": (iterations_metric(run.medians_sgd["typicality"], budget), "iterations"),
        "iters_to_threshold.srs": (iterations_metric(run.medians_sgd["srs"], budget), "iterations"),
        "alpha": (run.alpha_at_start, "ratio"),
    }
    x, y = setup.dataset.features, setup.dataset.targets[:, 0]
    h, l = setup.partition.h_indices, setup.partition.l_indices
    centers = [benchmark.CENTER, benchmark.MINORITY_CENTER]
    share = checks.majority_share(x, h, centers)
    res.gauges["density.h_majority_share"] = share
    if share >= CAPTURE_KNOWN_FLOOR:
        res.known_faults.add("cluster_capture")
    res.run_checks = lambda ck: _comparison_checks(ck, seed, setup, runs, oracles, kept["embedding"], defaults)
    return res


def _comparison_checks(ck, seed, setup, runs, oracles, emb, defaults) -> None:
    from typsgd import benchmark, embedding, models, optimize, sampling

    run = runs[0]
    m, n1 = defaults["m"], defaults["n1"]
    x, y = setup.dataset.features, setup.dataset.targets[:, 0]
    h, l = setup.partition.h_indices, setup.partition.l_indices
    gamma = inspect.signature(benchmark.build_benchmark).parameters["gamma"].default
    checks.check_strata(ck, h, l, x.shape[0], gamma)
    checks.check_cluster_capture(ck, x, h, [benchmark.CENTER, benchmark.MINORITY_CENTER])
    checks.check_perplexity(ck, emb.achieved_perplexity, emb.config.perplexity, embedding.PERPLEXITY_TOL)
    spec = setup.model_spec
    for name, median in run.medians_sgd.items():
        ck.add(f"converged.{name}", math.isfinite(median), f"median SGD iterations {median}")
    checks.check_model_constants(
        ck, x, y, spec.lipschitz_L, spec.strong_convexity_mu, spec.exact_minimizer, spec.exact_optimum_value
    )
    # one paired seed, chosen by the benchmark seed, re-run with every theta kept
    paired = run.seeds[seed % len(run.seeds)]
    schemes = {
        "srs": sampling.SrsScheme(m=m),
        "typicality": sampling.StratifiedScheme(partition=setup.partition, plan=sampling.make_plan(m, n1, setup.partition)),
    }
    for name, scheme in schemes.items():
        trace = optimize.train(
            models.QuadraticModel(), setup.dataset, scheme, optimize.Sgd(eta=1.0 / spec.lipschitz_L),
            defaults["iterations"], seed=paired, eval_every=defaults["eval_every"], model_spec=spec,
            record_thetas=True,
        )
        reported = run.sgd_iterations[name][run.seeds.index(paired)]
        checks.check_threshold_iteration(
            ck, name, x, y, trace.thetas, reported, defaults["threshold"], [r.subopt for r in trace.records]
        )
    rows = checks.ls_gradients(x, y, np.zeros(2))
    moments = checks.error_moments(rows, h, l, m, n1, OWN_DRAWS, seed)
    checks.check_alpha(ck, run.alpha_at_start, moments, require_below_one=True)
    oracle = oracles[0]
    checks.check_oracle(ck, oracle.mse_srs, oracle.mse_strat, ORACLE_DRAWS, moments)
    same = all(
        r.sgd_iterations == run.sgd_iterations and r.adam_iterations == run.adam_iterations
        and r.alpha_at_start == run.alpha_at_start for r in runs
    ) and all(o == oracles[0] for o in oracles)
    ck.add("rounds_identical", same, f"{len(runs)} rounds")


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------

SETUP_COMMANDS = ("gen", "embed", "partition")
RUN_COMMANDS = ("train", "verify", "report")
# One set-up takes a few tenths of a second, so each round sets up this many
# times over and setup_s is timed over all of them (README).
SETUP_REPEATS = 10
CONFIG = HERE / "pipeline.ini"


def pipeline(seed: int, seconds: int, origin: float) -> Result:
    from typsgd import cli

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"pipeline-seed{seed}-", dir=OUT))
    try:
        res = _pipeline(cli, seed, seconds, origin, workdir)
    except BaseException:
        shutil.rmtree(workdir, ignore_errors=True)
        raise
    res.cleanup = lambda: shutil.rmtree(workdir, ignore_errors=True)
    return res


def _pipeline(cli, seed, seconds, origin, workdir: Path) -> Result:
    config = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    config.read(CONFIG, encoding="utf-8")
    rounds = rounds_for("pipeline", seconds)
    # The oracle suite's work varies with its seed (random instance sizes), so
    # every round verifies with a seed of its own and verify_s is their median.
    verify_seeds = [seed * rounds + r for r in range(rounds)]
    phases = {cmd: [] for cmd in ("setup",) + RUN_COMMANDS}
    exits = []
    outs = []

    def call(r, cmd, out, *extra):
        code = cli.main([cmd, "--config", str(CONFIG), "--out", str(out), "--mkdir", *extra])
        exits.append((r, cmd, code))

    with open(workdir / "cli.log", "w", encoding="utf-8") as log, contextlib.redirect_stdout(log):
        for r in range(rounds):
            out = workdir / f"round{r}"
            outs.append(out)
            t = perf_counter()
            for cmd in SETUP_COMMANDS * SETUP_REPEATS:
                call(r, cmd, out)
            phases["setup"].append((perf_counter() - t) / SETUP_REPEATS)
            for cmd in RUN_COMMANDS:
                t = perf_counter()
                call(r, cmd, out, *(("--seed", str(verify_seeds[r])) if cmd == "verify" else ()))
                phases[cmd].append(perf_counter() - t)
    end = perf_counter()

    train = config["train"]
    cells = len(train["samplers"].split(",")) * len(train["optimizers"].split(",")) * len(train["seeds"].split(","))
    budget = int(train["iterations"])
    steps = cells * budget
    last = outs[-1]
    _, comparison_rows = checks.read_csv(last / "comparison.csv")
    medians = {(r[0], r[1]): math.inf if r[3] == "never" else float(r[3]) for r in comparison_rows if r[2] == "median"}
    _, alpha_rows = checks.read_csv(last / "alpha.csv")

    res = Result()
    res.metrics = {
        "setup_s": (statistics.median(phases["setup"]), "s"),
        "train_steps_per_s": (steps / statistics.median(phases["train"]), "steps/s"),
        "verify_s": (statistics.median(phases["verify"]), "s"),
        "total_s": (end - origin, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "iters_to_threshold.typicality": (iterations_metric(medians[("typicality", "sgd")], budget), "iterations"),
        "iters_to_threshold.srs": (iterations_metric(medians[("srs", "sgd")], budget), "iterations"),
        "alpha": (float(alpha_rows[0][1]), "ratio"),
    }
    data = config["data"]
    x_all, y_all = checks.load_dataset(last / "dataset.csv")
    keep = checks.train_rows(x_all.shape[0], float(train["val_fraction"]), int(train["val_seed"]))
    x, y = x_all[keep], y_all[keep]
    h, l, dens = checks.load_partition(last / "partition.csv")
    centers = [[float(v) for v in row.split(",")] for row in data["centers"].split("|")]
    res.gauges["density.h_majority_share"] = checks.majority_share(x, h, centers)
    res.gauges["cli.artifact_bytes"] = sum(p.stat().st_size for p in last.iterdir())
    res.run_checks = lambda ck: _pipeline_checks(ck, seed, config, exits, outs, x, y, h, l, alpha_rows[0], medians)
    return res


def _pipeline_checks(ck, seed, config, exits, outs, x, y, h, l, first_alpha, medians) -> None:
    train = config["train"]
    for r, cmd, code in exits:
        ck.add(f"cli_exit.{cmd}", code == 0, f"round {r}: exit {code}")
    for sampler in ("srs", "typicality"):
        median = medians[(sampler, "sgd")]
        ck.add(f"converged.{sampler}", math.isfinite(median), f"median SGD iterations {median}")
    gamma = float(config["partition"]["gamma"])
    threshold = float(train["threshold"])
    m = int(train["m"])
    n1 = round(0.8 * m) if train["n1"] == "auto" else int(train["n1"])
    for out in outs:
        checks.check_verify_report(ck, out / "verify_report.csv")
        h_r, l_r, dens_r = checks.load_partition(out / "partition.csv")
        checks.check_partition_file(ck, h_r, l_r, dens_r, x.shape[0], gamma)
        checks.check_training_artifacts(ck, out, x, y, threshold)
    ck.add("alpha_at_start", int(first_alpha[0]) == 0, f"first alpha.csv row at iteration {first_alpha[0]}")
    rows = checks.ls_gradients(x, y, np.zeros(x.shape[1]))
    moments = checks.error_moments(rows, h, l, m, n1, OWN_DRAWS, seed)
    checks.check_alpha(ck, float(first_alpha[1]), moments, require_below_one=False)
    def repeated(out):
        files = checks.artifact_bytes(out)
        del files["verify_report.csv"]  # written from the round's own verify seed
        return files

    reference = repeated(outs[0])
    for r, out in enumerate(outs[1:], start=1):
        ck.add(f"artifacts_identical.round{r}", repeated(out) == reference, f"{len(reference)} files")


WORKLOADS = {"comparison": comparison, "pipeline": pipeline}

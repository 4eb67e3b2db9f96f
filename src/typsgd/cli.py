"""Command-line harness: gen, embed, partition, train, verify, report.

Every subcommand reads one INI config (see README for the key reference),
writes its artifacts under the output directory, and stamps each file with
the config hash and seed. Exit codes: 0 success, 1 verification failure,
2 usage/argument error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from glob import glob
from pathlib import Path
from typing import NamedTuple

import numpy as np

from ._csvio import format_number, read_rows, write_rows, write_text
from .config import RunConfig
from .data import Dataset, generate_clustered, generate_pwl_curves, load_csv, save_csv, split_dataset
from .density import Partition, build_partition, kde_densities, load_partition, save_partition
from .embedding import load_embedding_points, save_embedding, tsne_embed
from .errors import CapabilityError, CsvFormatError, InvalidArgumentError, NumericError
from .models import MODEL_KINDS, ModelSpec, quadratic_constants, save_theta
from .optimize import Adam, Sgd, first_reach, load_trace_rows, median_reach, save_trace, train
from .sampling import BatchPlan, SrsScheme, StratifiedScheme, default_plan, make_plan
from .svg import line_chart, scatter_chart
from .verify import all_asserted_pass, run_verification

EXIT_OK, EXIT_VERIFY_FAIL, EXIT_USAGE, EXIT_IO = 0, 1, 2, 3


def _dataset_from_config(config: RunConfig, seed_override=None) -> Dataset:
    kind = config.get("data", "kind", required=True)
    seed = seed_override if seed_override is not None else config.get_int("data", "seed", 0)
    if kind == "pwl":
        dataset = generate_pwl_curves(
            config.get_int("data", "count", required=True),
            config.get_int("data", "curve_length", required=True),
            config.get_int("data", "segment_count", required=True),
            seed,
        )
    elif kind == "clustered":
        dataset = generate_clustered(
            config.get_int("data", "count", required=True),
            config.get_int("data", "dims", required=True),
            config.get_matrix("data", "centers", required=True),
            config.get_floats("data", "weights", required=True),
            config.get_float("data", "noise_sigma", 0.0),
            seed,
        )
    elif kind == "csv":
        dataset = load_csv(
            config.get("data", "path", required=True),
            has_header=config.get_bool("data", "has_header", True),
            target_columns=config.get_ints("data", "target_columns", []),
        )
    else:
        raise InvalidArgumentError(f"unknown dataset kind {kind!r}")
    weights = config.get_floats("data", "linear_target_weights")
    if weights is not None:
        w = np.asarray(weights)
        if w.shape[0] != dataset.n_features:
            raise InvalidArgumentError("linear_target_weights length must equal feature count")
        dataset = Dataset(features=dataset.features, targets=(dataset.features @ w)[:, None])
    return dataset


def _split_for_training(config: RunConfig, dataset: Dataset):
    frac = config.get_float("train", "val_fraction", 0.0)
    return split_dataset(dataset, frac, config.get_int("train", "val_seed", 1234))


def _load_dataset_file(path: str) -> Dataset:
    header, _ = read_rows(path, has_header=True)
    targets = [i for i, name in enumerate(header) if name.startswith("t")]
    return load_csv(path, has_header=True, target_columns=targets)


def cmd_gen(config: RunConfig, out_dir: str, seed_override=None) -> int:
    dataset = _dataset_from_config(config, seed_override)
    path = os.path.join(out_dir, "dataset.csv")
    seed = seed_override if seed_override is not None else config.get_int("data", "seed", 0)
    save_csv(dataset, path, config_digest=config.digest, seed=seed)
    print(
        f"gen: N={dataset.n_samples} D={dataset.n_features} "
        f"kind={config.get('data', 'kind')} seed={seed} -> {path}"
    )
    return EXIT_OK


def _embed(config: RunConfig, train_data: Dataset, seed_override=None):
    seed = seed_override if seed_override is not None else config.get_int("embedding", "seed", 0)
    return tsne_embed(
        train_data,
        perplexity=config.get_float("embedding", "perplexity", 30.0),
        iterations=config.get_int("embedding", "iterations", 1000),
        learning_rate=config.get_float("embedding", "learning_rate", 200.0),
        seed=seed,
    )


def cmd_embed(config: RunConfig, out_dir: str, seed_override=None) -> int:
    dataset = _load_dataset_file(os.path.join(out_dir, "dataset.csv"))
    train_data, _ = _split_for_training(config, dataset)
    emb = _embed(config, train_data, seed_override)
    path = os.path.join(out_dir, "embedding.csv")
    save_embedding(path, emb, config_digest=config.digest, seed=emb.config.seed)
    print(f"embed: N={train_data.n_samples} final KL={emb.kl_trace[-1][1]:.4f} -> {path}")
    return EXIT_OK


def cmd_partition(config: RunConfig, out_dir: str, seed_override=None) -> int:
    csv_path = os.path.join(out_dir, "partition.csv")
    svg_path = os.path.join(out_dir, "partition.svg")
    try:
        dataset = _load_dataset_file(os.path.join(out_dir, "dataset.csv"))
        train_data, _ = _split_for_training(config, dataset)
        emb_path = os.path.join(out_dir, "embedding.csv")
        if os.path.exists(emb_path):
            points = load_embedding_points(emb_path)
        else:
            emb = _embed(config, train_data, seed_override)
            save_embedding(emb_path, emb, config_digest=config.digest, seed=emb.config.seed)
            points = emb.points
        bandwidth = config.get("partition", "bandwidth", "scott")
        if bandwidth not in ("scott", "silverman"):
            bandwidth = float(bandwidth)
        gamma = config.get_float("partition", "gamma", 0.3)
        densities = kde_densities(points, bandwidth)
        partition = build_partition(densities, gamma)
        save_partition(csv_path, partition, densities, config_digest=config.digest)
        h, l = partition.h_indices, partition.l_indices
        scatter_chart(
            svg_path,
            [
                ("H (dense)", points[h, 0].tolist(), points[h, 1].tolist()),
                ("L (rest)", points[l, 0].tolist(), points[l, 1].tolist()),
            ],
            f"embedding strata (gamma={gamma})",
            config_digest=config.digest,
        )
        print(f"partition: N1={partition.n1} N2={partition.n2} gamma={gamma} -> {csv_path}")
        return EXIT_OK
    except Exception:
        for partial in (csv_path, svg_path):
            if os.path.exists(partial):
                os.unlink(partial)
        raise


def _model_from_config(config: RunConfig):
    kind = config.get("train", "model", "quadratic")
    if kind not in MODEL_KINDS:
        raise InvalidArgumentError(f"unknown model kind {kind!r}")
    if kind == "mlp":
        return MODEL_KINDS[kind](hidden=config.get_int("train", "hidden", 16))
    return MODEL_KINDS[kind]()


class TrainSetup(NamedTuple):
    """Everything the training cells of one `typsgd train` share, built once."""

    train_data: Dataset
    val_data: Dataset | None
    model: object
    spec: ModelSpec | None
    schemes: dict
    optimizers: dict
    partition: Partition | None
    plan: BatchPlan | None
    iterations: int
    eval_every: int
    log_batches: bool
    digest: str


def _train_setup(config: RunConfig, out_dir: str) -> TrainSetup:
    dataset = _load_dataset_file(os.path.join(out_dir, "dataset.csv"))
    train_data, val_data = _split_for_training(config, dataset)
    model = _model_from_config(config)
    spec = None
    eta_raw = config.get("train", "eta", "auto")
    if model.kind == "quadratic":
        spec = quadratic_constants(train_data)
        eta = 1.0 / spec.lipschitz_L if eta_raw == "auto" else float(eta_raw)
    else:
        if eta_raw == "auto":
            raise InvalidArgumentError("eta=auto needs the quadratic model; give a number")
        eta = float(eta_raw)
    samplers = config.get_list("train", "samplers", ("srs", "typicality"))
    m = config.get_int("train", "m", required=True)
    schemes = {}
    partition = plan = None
    for name in samplers:
        if name == "srs":
            schemes[name] = SrsScheme(m=m)
        elif name == "typicality":
            partition = load_partition(
                os.path.join(out_dir, "partition.csv"), config.get_float("partition", "gamma", 0.3)
            )
            n1_raw = config.get("train", "n1", "auto")
            plan = (
                default_plan(m, partition)
                if n1_raw == "auto"
                else make_plan(m, int(n1_raw), partition)
            )
            schemes[name] = StratifiedScheme(partition=partition, plan=plan)
        else:
            raise InvalidArgumentError(f"unknown sampler {name!r}")
    optimizers = {}
    for name in config.get_list("train", "optimizers", ("sgd",)):
        if name == "sgd":
            optimizers[name] = Sgd(eta=eta)
        elif name == "adam":
            optimizers[name] = Adam(eta=config.get_float("train", "adam_eta", eta))
        else:
            raise InvalidArgumentError(f"unknown optimizer {name!r}")
    return TrainSetup(
        train_data, val_data, model, spec, schemes, optimizers, partition, plan,
        iterations=config.get_int("train", "iterations", required=True),
        eval_every=config.get_int("train", "eval_every", 10),
        log_batches=config.get_bool("train", "log_batches", False),
        digest=config.digest,
    )


def _run_cell(setup: TrainSetup, out_dir: str, sampler: str, optimizer: str, seed: int, with_alpha: bool):
    """One (sampler, optimizer, seed) training run; writes trace and theta files."""
    stem = f"{sampler}_{optimizer}_seed{seed}"
    trace = train(
        setup.model,
        setup.train_data,
        setup.schemes[sampler],
        setup.optimizers[optimizer],
        iterations=setup.iterations,
        seed=seed,
        eval_every=setup.eval_every,
        val_data=setup.val_data,
        model_spec=setup.spec,
        record_thetas=True,
        alpha_probe=(setup.partition, setup.plan) if with_alpha else None,
        batch_log_path=os.path.join(out_dir, f"batches_{stem}.csv") if setup.log_batches else None,
    )
    save_trace(os.path.join(out_dir, f"trace_{stem}.csv"), trace, config_digest=setup.digest)
    save_theta(
        os.path.join(out_dir, f"theta_{stem}.csv"),
        setup.model.kind,
        trace.thetas[-1][1],
        config_digest=setup.digest,
        seed=seed,
    )
    if with_alpha:
        rows = [[r.iteration, format_number(r.alpha)] for r in trace.records if r.alpha is not None]
        if rows:
            write_rows(
                os.path.join(out_dir, "alpha.csv"),
                rows,
                header=["iteration", "alpha"],
                config_digest=setup.digest,
                seed=seed,
            )
    return stem


def cmd_train(config: RunConfig, out_dir: str, seed_override=None, workers: int = 1) -> int:
    setup = _train_setup(config, out_dir)
    seeds = [seed_override] if seed_override is not None else config.get_ints("train", "seeds", [0])
    cells = [
        (sampler, optimizer, seed)
        for sampler in setup.schemes
        for optimizer in setup.optimizers
        for seed in seeds
    ]
    alpha_cell = next(
        ((s, o, sd) for (s, o, sd) in cells if s == "typicality" and o == "sgd"), None
    )
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_run_cell, setup, out_dir, s, o, sd, (s, o, sd) == alpha_cell)
                for (s, o, sd) in cells
            ]
            for f in futures:
                f.result()
    else:
        for s, o, sd in cells:
            _run_cell(setup, out_dir, s, o, sd, (s, o, sd) == alpha_cell)
    _write_comparison(config, out_dir)
    print(f"train: {len(cells)} runs -> {out_dir}")
    return EXIT_OK


def _write_comparison(config: RunConfig, out_dir: str) -> None:
    threshold = config.get_float("train", "threshold", 1e-3)
    rows = []
    by_cell: dict[tuple[str, str], list] = {}
    measured: set[tuple[str, str]] = set()  # cells whose traces record subopt
    curves: dict[tuple[str, str], tuple[int, list]] = {}
    for path in sorted(glob(os.path.join(out_dir, "trace_*.csv"))):
        records = load_trace_rows(path)
        if not records:
            continue
        stem = Path(path).stem[len("trace_") :]
        sampler, optimizer, seed_part = stem.rsplit("_", 2)
        seed = int(seed_part.removeprefix("seed"))
        reached = first_reach(((r["iteration"], r["subopt"]) for r in records), threshold)
        final = records[-1]
        rows.append(
            [
                sampler,
                optimizer,
                seed,
                "" if reached is None else reached,
                format_number(final["train_loss"]),
                "" if final["val_loss"] is None else format_number(final["val_loss"]),
                "" if final["subopt"] is None else format_number(final["subopt"]),
            ]
        )
        cell = (sampler, optimizer)
        by_cell.setdefault(cell, []).append(reached)
        if any(r["subopt"] is not None for r in records):
            measured.add(cell)
        if cell not in curves or seed < curves[cell][0]:
            curves[cell] = (seed, [(r["iteration"], r["train_loss"]) for r in records])
    for (sampler, optimizer), reaches in sorted(by_cell.items()):
        median = median_reach(reaches)
        if (sampler, optimizer) not in measured:
            median_cell = "n/a"  # the model has no exact optimum to measure against
        else:
            median_cell = "never" if np.isinf(median) else format_number(median)
        rows.append(
            [
                sampler,
                optimizer,
                "median",
                median_cell,
                "",
                "",
                "",
            ]
        )
    write_rows(
        os.path.join(out_dir, "comparison.csv"),
        rows,
        header=["sampler", "optimizer", "seed", "iters_to_threshold", "final_train_loss", "final_val_loss", "final_subopt"],
        config_digest=config.digest,
    )
    for optimizer in {opt for (_, opt) in curves}:
        series = [
            (sampler, [it for it, _ in pts], [loss for _, loss in pts])
            for (sampler, opt), (_, pts) in sorted(curves.items())
            if opt == optimizer
        ]
        if series:
            line_chart(
                os.path.join(out_dir, f"losses_{optimizer}.svg"),
                series,
                f"training loss ({optimizer}, first seed)",
                log_y=True,
                config_digest=config.digest,
            )


def cmd_report(config: RunConfig, out_dir: str) -> int:
    _write_comparison(config, out_dir)
    print(f"report: comparison rebuilt from traces in {out_dir}")
    return EXIT_OK


def cmd_verify(config: RunConfig, out_dir: str, seed_override=None) -> int:
    seed = seed_override if seed_override is not None else config.get_int("verify", "seed", 0)
    instances = config.get_int("verify", "instances", 100)
    corrupt = config.get("verify", "inject_corruption") or None
    results, json_lines = run_verification(seed=seed, instances=instances, corrupt=corrupt)
    rows = []
    for r in results:
        status = "INFO" if r.passed is None else ("PASS" if r.passed else "FAIL")
        rows.append([r.kind, r.name, status, r.detail.replace(",", ";")])
        print(f"{r.kind} {r.name}: {status} ({r.detail})")
    write_rows(
        os.path.join(out_dir, "verify_report.csv"),
        rows,
        header=["kind", "name", "status", "detail"],
        config_digest=config.digest,
        seed=seed,
    )
    write_text(os.path.join(out_dir, "error_reports.jsonl"), "\n".join(json_lines) + "\n")
    return EXIT_OK if all_asserted_pass(results) else EXIT_VERIFY_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="typsgd",
        description="typicality-sampled minibatch SGD: data, partition, training, verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("gen", "generate a dataset and write dataset.csv"),
        ("embed", "embed dataset.csv to 2-D and write embedding.csv"),
        ("partition", "density-partition the embedding into strata H and L"),
        ("train", "run paired sampler/optimizer training cells"),
        ("verify", "run the oracle verification suite"),
        ("report", "rebuild the comparison report from existing traces"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="INI config path")
        p.add_argument("--seed", type=int, default=None, help="override the config seed(s)")
        p.add_argument("--out", default=None, help="override [output] dir")
        p.add_argument("--workers", type=int, default=None, help="parallel training runs")
        p.add_argument("--mkdir", action="store_true", help="create the output dir if missing")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = RunConfig.from_file(args.config)
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        out_dir = args.out or config.get("output", "dir", "out")
        if not os.path.isdir(out_dir):
            if args.mkdir:
                os.makedirs(out_dir, exist_ok=True)
            else:
                raise OSError(f"output directory {out_dir!r} does not exist (use --mkdir)")
        workers = args.workers or config.get_int("output", "workers", 1)
        if args.command == "gen":
            return cmd_gen(config, out_dir, args.seed)
        if args.command == "embed":
            return cmd_embed(config, out_dir, args.seed)
        if args.command == "partition":
            return cmd_partition(config, out_dir, args.seed)
        if args.command == "train":
            return cmd_train(config, out_dir, args.seed, workers)
        if args.command == "verify":
            return cmd_verify(config, out_dir, args.seed)
        return cmd_report(config, out_dir)
    except (OSError, CsvFormatError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (InvalidArgumentError, CapabilityError, NumericError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

"""Command-line harness: gen, embed, partition, train, verify, report.

Every subcommand reads one INI config (see README for the key reference),
writes its artifacts under the output directory, and stamps each file with
the config hash and seed. Exit codes: 0 success, 1 verification failure,
2 usage/argument error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import configparser
import itertools
import os
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from ._csvio import read_provenance, write_rows, write_text
from ._parallel import map_processes
from .analysis import formula_alpha
from .config import OPTIMIZER_KINDS, RunConfig
from .data import Dataset, generate_clustered, generate_pwl_curves, load_csv, load_dataset_file, save_csv, split_dataset
from .density import build_partition, kde_densities, load_partition, save_partition
from .embedding import load_embedding_points, save_embedding, tsne_embed
from .errors import CapabilityError, CsvFormatError, InvalidArgumentError, NumericError
from .models import MODEL_KINDS, ModelSpec, quadratic_constants, save_theta
from .optimize import Adam, Sgd, first_reach, load_trace, median_reach, save_trace, train
from .sampling import SrsScheme, StratifiedScheme, default_plan, make_plan, resolve_strata, save_batch_log
from .svg import line_chart, scatter_chart
from .verify import all_asserted_pass, run_verification

EXIT_OK, EXIT_VERIFY_FAIL, EXIT_USAGE, EXIT_IO = 0, 1, 2, 3


def _dataset_from_config(config: RunConfig, seed: int) -> Dataset:
    kind = config["data", "kind"]
    if kind == "pwl":
        dataset = generate_pwl_curves(
            config["data", "count"], config["data", "curve_length"], config["data", "segment_count"], seed
        )
    elif kind == "clustered":
        dataset = generate_clustered(
            config["data", "count"], config["data", "dims"], config["data", "centers"], config["data", "weights"],
            config["data", "noise_sigma"], seed,
        )
    else:
        dataset = load_csv(config["data", "path"], config["data", "has_header"], config["data", "target_columns"])
    weights = config["data", "linear_target_weights"]
    if weights is not None:
        w = np.asarray(weights)
        if w.shape[0] != dataset.n_features:
            raise InvalidArgumentError("linear_target_weights length must equal feature count")
        dataset = Dataset(features=dataset.features, targets=(dataset.features @ w)[:, None])
    return dataset


def _split_for_training(config: RunConfig, out_dir: str):
    dataset = load_dataset_file(os.path.join(out_dir, "dataset.csv"))
    return split_dataset(dataset, config["train", "val_fraction"], config["train", "val_seed"])


def cmd_gen(config: RunConfig, out_dir: str) -> int:
    seed = config["data", "seed"]
    dataset = _dataset_from_config(config, seed)
    path = os.path.join(out_dir, "dataset.csv")
    save_csv(dataset, path, config_digest=config.digest, seed=seed)
    print(
        f"gen: N={dataset.n_samples} D={dataset.n_features} "
        f"kind={config['data', 'kind']} seed={seed} -> {path}"
    )
    return EXIT_OK


def _embed(config: RunConfig, out_dir: str, train_data: Dataset) -> None:
    emb = tsne_embed(
        train_data,
        perplexity=config["embedding", "perplexity"],
        iterations=config["embedding", "iterations"],
        seed=config["embedding", "seed"],
    )
    path = os.path.join(out_dir, "embedding.csv")
    save_embedding(path, emb, config_digest=config.digest, seed=emb.config.seed)
    print(f"embed: N={train_data.n_samples} final KL={emb.kl_trace[-1][1]:.4f} -> {path}")


def cmd_embed(config: RunConfig, out_dir: str) -> int:
    _embed(config, out_dir, _split_for_training(config, out_dir)[0])
    return EXIT_OK


def cmd_partition(config: RunConfig, out_dir: str) -> int:
    csv_path = os.path.join(out_dir, "partition.csv")
    svg_path = os.path.join(out_dir, "partition.svg")
    # a bad [partition] value or embedding seed is refused before any t-SNE work, and leaves the earlier files in place
    bandwidth, gamma, seed = config["partition", "bandwidth"], config["partition", "gamma"], config["embedding", "seed"]
    try:
        emb_path = os.path.join(out_dir, "embedding.csv")
        current = {"config": config.digest, "seed": str(seed)}
        train_data = _split_for_training(config, out_dir)[0]
        if not os.path.exists(emb_path) or read_provenance(emb_path) != current:
            _embed(config, out_dir, train_data)
        points = load_embedding_points(emb_path)
        n_train = train_data.n_samples
        if points.shape[0] != n_train:
            raise InvalidArgumentError(
                f"{emb_path} has {points.shape[0]} rows, but the training split has {n_train} samples; run embed again"
            )
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


class TrainSetup(NamedTuple):
    """Everything the training cells of one `typsgd train` share: built once, pickled with each cell's task."""

    train_data: Dataset
    val_data: Dataset | None
    model: object
    spec: ModelSpec | None
    schemes: dict
    optimizers: dict
    iterations: int
    eval_every: int
    log_batches: bool
    digest: str


def _train_setup(config: RunConfig, out_dir: str) -> TrainSetup:
    train_data, val_data = _split_for_training(config, out_dir)
    model = MODEL_KINDS[config["train", "model"]]()
    spec = None
    eta = config["train", "eta"]
    if model.kind == "quadratic":
        spec = quadratic_constants(train_data)
        eta = 1.0 / spec.lipschitz_L if eta == "auto" else eta
    elif eta == "auto":
        raise InvalidArgumentError("eta=auto needs the quadratic model; give a number")
    m = config["train", "m"]
    schemes = {}
    for name in config["train", "samplers"]:
        if name == "srs":
            schemes[name] = SrsScheme(m=m)
        else:
            partition = load_partition(os.path.join(out_dir, "partition.csv"), config["partition", "gamma"])
            n1 = config["train", "n1"]
            plan = default_plan(m, partition) if n1 == "auto" else make_plan(m, n1, partition)
            schemes[name] = StratifiedScheme(partition=partition, plan=plan)
        # a batch size or a partition that does not fit the training set is refused before any cell writes a file
        resolve_strata(schemes[name], train_data.n_samples)
    optimizers = {}
    for name in config["train", "optimizers"]:
        if name == "sgd":
            optimizers[name] = Sgd(eta=eta)
        else:
            adam_eta = config["train", "adam_eta"]
            optimizers[name] = Adam(eta=eta if adam_eta is None else adam_eta)
    return TrainSetup(
        train_data, val_data, model, spec, schemes, optimizers,
        config["train", "iterations"], config["train", "eval_every"], config["train", "log_batches"], config.digest,
    )


def _cells(config: RunConfig) -> list[tuple[str, str, int]]:
    """Every (sampler, optimizer, seed) training cell the config names, after any ``--seed`` override."""
    return list(itertools.product(config["train", "samplers"], config["train", "optimizers"], config["train", "seeds"]))


def _stem(sampler: str, optimizer: str, seed: int) -> str:
    """The file-name stem of one cell's trace, theta and batch files."""
    return f"{sampler}_{optimizer}_seed{seed}"


def _run_cell(setup: TrainSetup, out_dir: str, sampler: str, optimizer: str, seed: int, with_alpha: bool) -> None:
    """One (sampler, optimizer, seed) training run; writes trace, theta and (if logged) batch files.

    ``with_alpha`` adds alpha.csv: the typicality scheme's error ratio at every recorded theta.
    """
    stem = _stem(sampler, optimizer, seed)
    scheme = setup.schemes[sampler]
    trace = train(
        setup.model,
        setup.train_data,
        scheme,
        setup.optimizers[optimizer],
        iterations=setup.iterations,
        seed=seed,
        eval_every=setup.eval_every,
        val_data=setup.val_data,
        model_spec=setup.spec,
        record_thetas=True,
        log_batches=setup.log_batches,
    )
    save_trace(os.path.join(out_dir, f"trace_{stem}.csv"), trace, config_digest=setup.digest)
    if setup.log_batches:
        save_batch_log(os.path.join(out_dir, f"batches_{stem}.csv"), trace.batches, setup.digest, seed=seed)
    save_theta(
        os.path.join(out_dir, f"theta_{stem}.csv"),
        setup.model.kind,
        trace.thetas[-1][1],
        config_digest=setup.digest,
        seed=seed,
    )
    if with_alpha:
        rows = [
            [k, formula_alpha(setup.model, setup.train_data, theta, scheme.partition, scheme.plan)]
            for k, theta in trace.thetas
        ]
        write_rows(
            os.path.join(out_dir, "alpha.csv"),
            rows,
            header=["iteration", "alpha"],
            config_digest=setup.digest,
            seed=seed,
        )


def cmd_train(config: RunConfig, out_dir: str) -> int:
    """Every (sampler, optimizer, seed) cell, on ``map_processes``; the files are the same at any pool size."""
    config["train", "threshold"]  # a threshold that is not finite is refused before any cell runs
    seeds = config["train", "seeds"]
    setup = _train_setup(config, out_dir)
    cells = _cells(config)
    alpha_cell = ("typicality", "sgd", min(seeds))  # the seed the loss charts plot
    if alpha_cell not in cells:  # an alpha.csv of an earlier config would read as this run's
        Path(out_dir, "alpha.csv").unlink(missing_ok=True)
    map_processes(_run_cell, [(setup, out_dir, *cell, cell == alpha_cell) for cell in cells])
    _write_comparison(config, out_dir)
    print(f"train: {len(cells)} runs -> {out_dir}")
    return EXIT_OK


def _write_comparison(config: RunConfig, out_dir: str) -> None:
    """comparison.csv and the loss charts (smallest seed) from each configured cell's trace, in file-name order.

    A missing trace raises OSError, and no other file is read; the chart of an unconfigured optimizer is removed.
    """
    threshold = config["train", "threshold"]
    iterations, eval_every = config["train", "iterations"], config["train", "eval_every"]
    smallest_seed = min(config["train", "seeds"])
    rows = []
    by_cell: dict[tuple[str, str], list] = {}
    measured: set[tuple[str, str]] = set()  # cells whose traces record subopt
    curves: dict[tuple[str, str], list] = {}  # the smallest seed's records
    for path, (sampler, optimizer, seed) in sorted(
        (os.path.join(out_dir, f"trace_{_stem(*cell)}.csv"), cell) for cell in _cells(config)
    ):
        written = read_provenance(path).get("config")
        if written != config.digest:
            raise InvalidArgumentError(f"{path} was written under config {written}, not the current config {config.digest}")
        trace = load_trace(path, iterations, eval_every)
        recorded = (trace.sampler_kind, trace.seed)
        if recorded != (sampler, seed):
            raise CsvFormatError(f"{path}: the cell is (sampler, seed) = {(sampler, seed)}, the rows say {recorded}")
        reached = first_reach(trace.records, threshold)
        final = trace.records[-1]
        rows.append([sampler, optimizer, seed, reached, final.train_loss, final.val_loss, final.subopt])
        cell = (sampler, optimizer)
        by_cell.setdefault(cell, []).append(reached)
        if any(r.subopt is not None for r in trace.records):
            measured.add(cell)
        if seed == smallest_seed:
            curves[cell] = trace.records
    for (sampler, optimizer), reaches in sorted(by_cell.items()):
        median = median_reach(reaches)
        if (sampler, optimizer) not in measured:
            median = "n/a"  # the model has no exact optimum to measure against
        elif np.isinf(median):
            median = "never"
        rows.append([sampler, optimizer, "median", median, None, None, None])
    write_rows(
        os.path.join(out_dir, "comparison.csv"),
        rows,
        header=["sampler", "optimizer", "seed", "iters_to_threshold", "final_train_loss", "final_val_loss", "final_subopt"],
        config_digest=config.digest,
    )
    optimizers = config["train", "optimizers"]
    for optimizer in optimizers:
        series = [
            (sampler, [r.iteration for r in records], [r.train_loss for r in records])
            for (sampler, opt), records in sorted(curves.items())
            if opt == optimizer
        ]
        line_chart(
            os.path.join(out_dir, f"losses_{optimizer}.svg"),
            series,
            f"training loss ({optimizer}, smallest seed)",
            config_digest=config.digest,
        )
    for optimizer in (kind for kind in OPTIMIZER_KINDS if kind not in optimizers):  # a chart of an earlier config
        Path(out_dir, f"losses_{optimizer}.svg").unlink(missing_ok=True)


def cmd_report(config: RunConfig, out_dir: str) -> int:
    """Rebuild comparison.csv and the loss charts from the configured cells' traces (see ``_write_comparison``)."""
    _write_comparison(config, out_dir)
    print(f"report: comparison rebuilt from the configured cells' traces in {out_dir}")
    return EXIT_OK


def cmd_verify(config: RunConfig, out_dir: str) -> int:
    seed = config["verify", "seed"]
    instances = config["verify", "instances"]
    results, json_lines = run_verification(seed=seed, instances=instances)
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


class Subcommand(NamedTuple):
    """The handler is ``cmd_<name>``, looked up when it runs, so a wrapper set on the module attribute sees the call."""

    help: str
    seed_key: tuple[str, str] | None  # the config key --seed replaces; None: no --seed


SUBCOMMANDS = {
    "gen": Subcommand("generate a dataset and write dataset.csv", ("data", "seed")),
    "embed": Subcommand("embed dataset.csv to 2-D and write embedding.csv", ("embedding", "seed")),
    "partition": Subcommand("density-partition the embedding into strata H and L", ("embedding", "seed")),
    "train": Subcommand("run paired sampler/optimizer training cells", ("train", "seeds")),
    "verify": Subcommand("run the oracle verification suite", ("verify", "seed")),
    "report": Subcommand("rebuild comparison.csv from the traces of the configured cells", None),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="typsgd",
        description="typicality-sampled minibatch SGD: data, partition, training, verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--config", required=True, help="INI config path")
        p.add_argument("--out", default=None, help="override [output] dir")
        p.add_argument("--mkdir", action="store_true", help="create the output dir if missing")
        if command.seed_key is not None:
            p.add_argument("--seed", type=int, default=None, help="override [{}] {}".format(*command.seed_key))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = SUBCOMMANDS[args.command]
    try:
        try:
            config = RunConfig.from_file(args.config)
        except (OSError, UnicodeDecodeError, configparser.Error) as exc:
            print(f"error: cannot read config {args.config}: {exc}", file=sys.stderr)
            return EXIT_IO
        out_dir = args.out or config["output", "dir"]
        if not os.path.isdir(out_dir):
            if args.mkdir:
                os.makedirs(out_dir, exist_ok=True)
            else:
                raise OSError(f"output directory {out_dir!r} does not exist (use --mkdir)")
        if command.seed_key is not None and args.seed is not None:
            config.set(*command.seed_key, args.seed)
        return globals()[f"cmd_{args.command}"](config, out_dir)
    except (OSError, CsvFormatError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (InvalidArgumentError, CapabilityError, NumericError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

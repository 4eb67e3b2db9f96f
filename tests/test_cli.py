import builtins
import hashlib
import json
import multiprocessing
import os
import shutil
from pathlib import Path

import numpy as np
import pytest
from test_csvio import last_row_edited, truncate_last_row
from test_parallel import PoolRefused, recording_pool

from typsgd import _csvio, _parallel, cli, verify
from typsgd._csvio import format_number, read_rows
from typsgd.analysis import formula_alpha
from typsgd.cli import main
from typsgd.config import RunConfig
from typsgd.models import load_theta

BASE_CONFIG = """
[data]
kind = clustered
count = 90
dims = 2
centers = 0,0 | 7,7
weights = 0.9,0.1
noise_sigma = 0.6
seed = 5
linear_target_weights = 1.0,-0.5

[embedding]
perplexity = 10
iterations = 120
seed = 2

[partition]
gamma = 0.3
bandwidth = scott

[train]
model = quadratic
optimizers = sgd,adam
samplers = srs,typicality
eta = auto
adam_eta = 0.05
iterations = 60
m = 10
n1 = auto
eval_every = 20
seeds = 0,1
threshold = 1e-3
val_fraction = 0.1
val_seed = 77

[verify]
seed = 0
instances = 8

[output]
dir = {out}
"""


@pytest.fixture
def workspace(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    config = tmp_path / "run.ini"
    config.write_text(BASE_CONFIG.format(out=out))
    return config, out


def sha(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def test_gen_embed_partition_train_report(workspace, capsys):
    config, out = workspace
    assert main(["gen", "--config", str(config)]) == 0
    assert (out / "dataset.csv").exists()
    first_hash = sha(out / "dataset.csv")
    assert main(["gen", "--config", str(config)]) == 0
    assert sha(out / "dataset.csv") == first_hash  # rerun is byte-identical

    assert main(["embed", "--config", str(config)]) == 0
    assert (out / "embedding.csv").exists()

    assert main(["partition", "--config", str(config)]) == 0
    partition_lines = (out / "partition.csv").read_text().splitlines()
    assert partition_lines[0].startswith("#")  # provenance header
    labels = [line.split(",")[1] for line in partition_lines[2:]]
    # N = 81 after the 10% validation split; H gets ceil(81 * 0.3) = 25
    assert labels.count("H") == 25
    assert (out / "partition.svg").exists()
    partition_hash = sha(out / "partition.csv")
    assert main(["partition", "--config", str(config)]) == 0
    assert sha(out / "partition.csv") == partition_hash  # rerun identical

    assert main(["train", "--config", str(config)]) == 0
    traces = sorted(p.name for p in out.glob("trace_*.csv"))
    assert len(traces) == 8  # 2 samplers x 2 optimizers x 2 seeds
    assert (out / "comparison.csv").exists()
    assert (out / "losses_sgd.svg").exists() and (out / "losses_adam.svg").exists()
    assert len(list(out.glob("theta_*.csv"))) == 8
    assert_alpha_from_saved_theta(config, out)

    assert main(["report", "--config", str(config)]) == 0
    capsys.readouterr()


def assert_alpha_from_saved_theta(config, out):
    # alpha.csv has a row per eval point of the typicality SGD cell at the smallest seed (60 iterations,
    # eval_every 20), and its last alpha is the one the saved final theta gives
    assert _csvio.read_provenance(out / "alpha.csv")["seed"] == "0"
    _, rows = read_rows(out / "alpha.csv", has_header=True)
    assert [int(row[0]) for row in rows] == [0, 20, 40, 60]
    setup = cli._train_setup(RunConfig.from_file(config), str(out))
    scheme = setup.schemes["typicality"]
    _, theta = load_theta(out / "theta_typicality_sgd_seed0.csv")
    alpha = formula_alpha(setup.model, setup.train_data, theta, scheme.partition, scheme.plan)
    assert rows[-1][1] == format_number(alpha)


def test_alpha_is_taken_at_the_smallest_seed_the_loss_charts_plot(workspace):
    config, out = workspace
    config.write_text(config.read_text().replace("seeds = 0,1", "seeds = 1,0"))
    for cmd in ("gen", "partition", "train"):
        assert main([cmd, "--config", str(config)]) == 0
    assert_alpha_from_saved_theta(config, out)
    for optimizer in ("sgd", "adam"):
        assert f"training loss ({optimizer}, smallest seed)" in (out / f"losses_{optimizer}.svg").read_text()


def test_train_determinism(workspace):
    config, out = workspace
    assert main(["gen", "--config", str(config)]) == 0
    assert main(["partition", "--config", str(config)]) == 0
    assert main(["train", "--config", str(config)]) == 0
    hashes = {p.name: sha(p) for p in out.glob("trace_*.csv")}
    comparison = sha(out / "comparison.csv")
    assert main(["train", "--config", str(config)]) == 0
    assert {p.name: sha(p) for p in out.glob("trace_*.csv")} == hashes
    assert sha(out / "comparison.csv") == comparison


def test_train_compares_only_the_cells_it_trained(workspace):
    # report rebuilds from every trace in the directory; train reads only its own
    config, out = workspace
    for cmd in ("gen", "partition", "train"):
        assert main([cmd, "--config", str(config)]) == 0
    assert main(["train", "--config", str(config), "--seed", "5"]) == 0
    rows = [line.split(",") for line in (out / "comparison.csv").read_text().splitlines()[2:]]
    assert sorted(row[2] for row in rows) == ["5"] * 4 + ["median"] * 4
    assert main(["report", "--config", str(config)]) == 0
    rows = [line.split(",") for line in (out / "comparison.csv").read_text().splitlines()[2:]]
    assert sorted(row[2] for row in rows) == ["0"] * 4 + ["1"] * 4 + ["5"] * 4 + ["median"] * 4


def test_train_with_worker_pool(workspace, monkeypatch):
    config, out = workspace
    assert main(["gen", "--config", str(config)]) == 0
    assert main(["partition", "--config", str(config)]) == 0
    before = {p.name for p in out.iterdir()}
    written = []
    for cpus in (1, 2, 3):
        monkeypatch.setattr(_parallel, "usable_cpus", lambda: cpus)
        assert main(["train", "--config", str(config)]) == 0
        files = sorted(p for p in out.iterdir() if p.name not in before)
        written.append({p.name: sha(p) for p in files})
        for p in files:
            p.unlink()
    assert written[0] and written[1] == written[0] and written[2] == written[0]
    assert not multiprocessing.active_children()


def test_train_pool_is_capped_at_the_cell_count(workspace, monkeypatch):
    config, _ = workspace
    for cmd in ("gen", "partition"):
        assert main([cmd, "--config", str(config)]) == 0
    sizes = []
    monkeypatch.setattr(_parallel, "usable_cpus", lambda: 1000)
    monkeypatch.setattr(_parallel, "ProcessPoolExecutor", recording_pool(sizes))
    with pytest.raises(PoolRefused):
        main(["train", "--config", str(config)])
    assert sizes == [8]  # 2 samplers x 2 optimizers x 2 seeds


def test_negative_adam_learning_rate_is_usage_error(workspace, capsys):
    config, out = workspace
    config.write_text(config.read_text().replace("adam_eta = 0.05", "adam_eta = -0.05"))
    for cmd in ("gen", "partition"):
        assert main([cmd, "--config", str(config)]) == 0
    assert main(["train", "--config", str(config)]) == 2
    assert "learning rate must be >= 0" in capsys.readouterr().err
    assert not list(out.glob("trace_*.csv"))


def test_failing_cell_stops_the_pool(workspace, capsys, monkeypatch):
    config, out = workspace
    # a huge SGD step overflows theta: the SGD cells raise NumericError in the workers
    config.write_text(config.read_text().replace("eta = auto", "eta = 1e300"))
    for cmd in ("gen", "partition"):
        assert main([cmd, "--config", str(config)]) == 0
    monkeypatch.setattr(_parallel, "usable_cpus", lambda: 2)
    assert main(["train", "--config", str(config)]) == 2
    assert "non-finite update" in capsys.readouterr().err
    assert not multiprocessing.active_children()
    assert not (out / "comparison.csv").exists()


def test_non_finite_threshold_is_refused_before_training(workspace, capsys):
    config, out = workspace
    config.write_text(config.read_text().replace("threshold = 1e-3", "threshold = nan"))
    for cmd in ("gen", "partition"):
        assert main([cmd, "--config", str(config)]) == 0
    capsys.readouterr()
    for cmd in ("train", "report"):
        assert main([cmd, "--config", str(config)]) == 2
        assert "[train] threshold" in capsys.readouterr().err
    assert not list(out.glob("trace_*.csv")) and not (out / "comparison.csv").exists()


@pytest.mark.parametrize(
    "line, key",
    [
        ("seeds = 0,0,1", "seeds"),
        ("seeds =", "seeds"),
        ("samplers =", "samplers"),
        ("samplers = srs,typicality,srs", "samplers"),
        ("optimizers = sgd,adam,sgd", "optimizers"),
        ("optimizers =", "optimizers"),
    ],
)
def test_train_refuses_an_empty_or_repeated_cell_axis(workspace, capsys, monkeypatch, line, key):
    # a repeated seed would count its runs twice in the medians; an empty axis would train nothing
    config, out = workspace
    for cmd in ("gen", "partition", "train"):
        assert main([cmd, "--config", str(config)]) == 0
    comparison = sha(out / "comparison.csv")
    text = config.read_text()
    original = next(row for row in text.splitlines() if row.startswith(f"{key} ="))
    config.write_text(text.replace(original, line))
    monkeypatch.setattr(cli, "map_processes", refuse_cells)
    capsys.readouterr()
    assert main(["train", "--config", str(config)]) == 2
    assert f"[train] {key}" in capsys.readouterr().err
    assert sha(out / "comparison.csv") == comparison


def refuse_cells(*args, **kwargs):
    raise AssertionError("a training cell was started")


def test_comparison_without_suboptimality_reads_not_measured(workspace):
    # the logistic model has no exact optimum, so no trace records subopt
    config, out = workspace
    text = config.read_text().replace("model = quadratic", "model = logistic").replace("eta = auto", "eta = 0.1")
    config.write_text(text)
    for cmd in ("gen", "partition", "train"):
        assert main([cmd, "--config", str(config)]) == 0
    rows = [line.split(",") for line in (out / "comparison.csv").read_text().splitlines()[2:]]
    medians = [row for row in rows if row[2] == "median"]
    assert len(medians) == 4 and all(row[3] == "n/a" for row in medians)
    assert all(row[3] == "" for row in rows if row[2] != "median")


def test_every_csv_carries_the_config_digest(workspace):
    config, out = workspace
    config.write_text(config.read_text().replace("val_seed = 77", "val_seed = 77\nlog_batches = true"))
    for cmd in ("gen", "embed", "partition", "train"):
        assert main([cmd, "--config", str(config)]) == 0
    csvs = sorted(out.glob("*.csv"))
    assert len(list(out.glob("batches_*.csv"))) == 8
    stamp = f"config={RunConfig.from_file(config).digest}"
    assert [p.name for p in csvs if stamp not in p.read_text().splitlines()[0].split()] == []


def test_gamma_out_of_range_is_usage_error(workspace):
    config, out = workspace
    text = config.read_text().replace("gamma = 0.3", "gamma = 0.9")
    config.write_text(text)
    assert main(["gen", "--config", str(config)]) == 0
    assert main(["partition", "--config", str(config)]) == 2
    assert not (out / "partition.csv").exists()  # refused before any file is written


def test_missing_output_dir_is_io_error(tmp_path):
    config = tmp_path / "run.ini"
    config.write_text(BASE_CONFIG.format(out=tmp_path / "absent"))
    assert main(["gen", "--config", str(config)]) == 3
    assert main(["gen", "--config", str(config), "--mkdir"]) == 0


def test_missing_config_is_io_error(tmp_path):
    assert main(["gen", "--config", str(tmp_path / "nope.ini")]) == 3


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate", "--config", "x"])
    assert err.value.code == 2


def test_pwl_generation(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    config = tmp_path / "pwl.ini"
    config.write_text(
        f"[data]\nkind = pwl\ncount = 12\ncurve_length = 24\nsegment_count = 3\nseed = 4\n"
        f"[output]\ndir = {out}\n"
    )
    assert main(["gen", "--config", str(config)]) == 0
    lines = (out / "dataset.csv").read_text().splitlines()
    assert len(lines) == 14  # comment + header + 12 rows
    # 24 curve points + bias + 3 slopes + 2 breakpoints
    assert len(lines[2].split(",")) == 24 + 6


def test_pwl_curve_demo_trains_every_cell(tmp_path):
    config = Path(__file__).resolve().parents[1] / "demos" / "configs" / "pwl_curves.ini"
    for cmd in ("gen", "partition", "train"):
        assert main([cmd, "--config", str(config), "--out", str(tmp_path)]) == 0
    assert len(list(tmp_path.glob("trace_*.csv"))) == 12
    assert (tmp_path / "comparison.csv").exists()


def verify_statuses(out):
    """(name, status) of every row of verify_report.csv, in order."""
    return [(row[1], row[2]) for row in read_rows(out / "verify_report.csv", has_header=True)[1]]


# the keys of every error_reports.jsonl line: the report's fields and the instance's key
ERROR_REPORT_KEYS = [
    "alpha", "bias_sq", "instance", "m", "mse_enumerated", "mse_srs_formula", "mse_strat_corrected",
    "mse_strat_published", "n1", "n2", "s_h_sq", "s_k_sq", "s_l_sq", "scheme",
]


def test_error_reports_have_exactly_their_keys(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    config = tmp_path / "verify.ini"
    config.write_text(f"[verify]\nseed = 0\ninstances = 8\n[output]\ndir = {out}\n")
    assert main(["verify", "--config", str(config)]) == 0
    lines = (out / "error_reports.jsonl").read_text().splitlines()
    assert len(lines) == 5 and all(list(json.loads(line)) == ERROR_REPORT_KEYS for line in lines)


def test_verify_command_and_corruption_hook(tmp_path, capsys, monkeypatch):
    out = tmp_path / "out"
    out.mkdir()
    config = tmp_path / "verify.ini"
    config.write_text(f"[verify]\nseed = 0\ninstances = 8\n[output]\ndir = {out}\n")
    assert main(["verify", "--config", str(config)]) == 0
    text = (out / "verify_report.csv").read_text()
    assert "ASSERTED" in text and "REPORTED" in text
    assert (out / "error_reports.jsonl").exists()
    report_hash = sha(out / "verify_report.csv")
    assert main(["verify", "--config", str(config)]) == 0
    assert sha(out / "verify_report.csv") == report_hash  # reproducible report
    passing = verify_statuses(out)
    assert len(passing) == 20

    # a closed form off by 1e-3 must fail its check against enumeration
    for formula, check in (
        ("srs_error_formula", "srs_formula_exactness"),
        ("typicality_error_corrected", "stratified_corrected_identity"),
    ):
        assert (check, "PASS") in passing
        exact = getattr(verify, formula)
        monkeypatch.setattr(verify, formula, lambda *args, exact=exact: exact(*args) + 1e-3)
        assert main(["verify", "--config", str(config)]) == 1
        monkeypatch.undo()
        poisoned = verify_statuses(out)
        assert [name for name, _ in poisoned] == [name for name, _ in passing]
        assert (check, "FAIL") in poisoned
    capsys.readouterr()


@pytest.mark.parametrize("instances", [0, -3])
def test_verify_instances_below_one_is_usage_error(tmp_path, capsys, instances):
    config = tmp_path / "verify.ini"
    config.write_text(f"[verify]\nseed = 0\ninstances = {instances}\n[output]\ndir = {tmp_path}\n")
    assert main(["verify", "--config", str(config)]) == 2
    assert "[verify] instances" in capsys.readouterr().err
    assert not (tmp_path / "verify_report.csv").exists()


def test_unrecognised_boolean_is_usage_error(workspace, capsys):
    config, out = workspace
    config.write_text(config.read_text().replace("val_seed = 77", "val_seed = 77\nlog_batches = ture"))
    for cmd in ("gen", "partition"):
        assert main([cmd, "--config", str(config)]) == 0
    assert main(["train", "--config", str(config)]) == 2
    assert "[train] log_batches" in capsys.readouterr().err
    assert not list(out.glob("trace_*.csv"))
    config.write_text(config.read_text().replace("log_batches = ture", "log_batches = ON"))
    assert main(["train", "--config", str(config)]) == 0
    assert len(list(out.glob("batches_*.csv"))) == 8


def test_failed_error_report_write_keeps_the_old_file(tmp_path, monkeypatch):
    out = tmp_path / "out"
    out.mkdir()
    config = tmp_path / "verify.ini"
    config.write_text(f"[verify]\nseed = 0\ninstances = 8\n[output]\ndir = {out}\n")
    (out / "error_reports.jsonl").write_text('{"old": 1}\n')
    monkeypatch.setattr(cli, "run_verification", lambda **_: ([], ['{"new": 1}']))
    real_open = builtins.open

    class FailingWrite:
        """A file opened for real whose write fails, as on a full disk."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            raise OSError("no space left on device")

    def open_failing_reports(path, mode="r", *args, **kwargs):
        fh = real_open(path, mode, *args, **kwargs)
        return FailingWrite(fh) if "error_reports" in str(path) and "w" in mode else fh

    monkeypatch.setattr(builtins, "open", open_failing_reports)
    assert main(["verify", "--config", str(config)]) == 3
    monkeypatch.undo()
    assert (out / "error_reports.jsonl").read_text() == '{"old": 1}\n'
    assert not (out / "error_reports.jsonl.tmp").exists()


@pytest.mark.parametrize(
    "artifact, reader, corrupt, located",
    [("embedding.csv", "partition", truncate_last_row, ""),
     ("partition.csv", "train", truncate_last_row, ""),
     ("trace_srs_sgd_seed0.csv", "report", truncate_last_row, ""),
     # the last of the 81 training points, and the first feature of the last of 90 samples
     ("embedding.csv", "partition", lambda path: last_row_edited(path, lambda cells: cells[:1] + ["nan"]),
      ": row 80, column 1: cannot read 'nan' as finite"),
     ("dataset.csv", "train", lambda path: last_row_edited(path, lambda cells: ["inf"] + cells[1:]),
      ": row 89, column 0: cannot read 'inf' as finite")],
    ids=["truncated-embedding", "truncated-partition", "truncated-trace", "nan-embedding", "inf-feature"],
)
def test_corrupt_artifact_is_io_error(workspace, capsys, artifact, reader, corrupt, located):
    # a write that stopped mid-row (the last row keeps only its first cell), or a cell no writer produces
    config, out = workspace
    for cmd in ("gen", "embed", "partition", "train"):
        assert main([cmd, "--config", str(config)]) == 0
    corrupt(out / artifact)
    capsys.readouterr()
    assert main([reader, "--config", str(config)]) == 3
    err = capsys.readouterr().err
    assert f"{out / artifact}{located}" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "copy, message",
    [
        ("trace_notes.csv", "trace_<sampler>_<optimizer>_seed<n>.csv"),
        ("trace_srs_sgd_seed9.csv", "('srs', 9), the rows say ('srs', 0)"),
    ],
)
def test_trace_named_for_another_run_is_io_error(workspace, capsys, copy, message):
    # report takes a trace's run from its file name; a name that is not a run's, or not this trace's, is malformed
    config, out = workspace
    for cmd in ("gen", "embed", "partition", "train"):
        assert main([cmd, "--config", str(config)]) == 0
    (out / copy).write_bytes((out / "trace_srs_sgd_seed0.csv").read_bytes())
    assert main(["report", "--config", str(config)]) == 3
    err = capsys.readouterr().err
    assert str(out / copy) in err and message in err


def test_report_refuses_traces_of_another_config(workspace, capsys):
    # seeds 0 and 1 trained, then seed 0 retrained under another adam_eta: the seed-1 traces are stale
    config, out = workspace
    for cmd in ("gen", "partition", "train"):
        assert main([cmd, "--config", str(config)]) == 0
    first = RunConfig.from_file(config).digest
    config.write_text(config.read_text().replace("adam_eta = 0.05", "adam_eta = 0.5").replace("seeds = 0,1", "seeds = 0"))
    assert main(["train", "--config", str(config)]) == 0
    second = RunConfig.from_file(config).digest
    capsys.readouterr()
    assert main(["report", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert str(out / "trace_srs_adam_seed1.csv") in err and first in err and second in err


def test_report_without_traces_is_io_error(workspace, capsys):
    config, out = workspace
    (out / "comparison.csv").write_text("an earlier comparison\n")
    assert main(["report", "--config", str(config)]) == 3
    assert str(out) in capsys.readouterr().err
    assert (out / "comparison.csv").read_text() == "an earlier comparison\n"
    assert sorted(p.name for p in out.iterdir()) == ["comparison.csv"]


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A config and the output directory that gen, partition and train wrote under it, shared by a module's tests."""
    root = tmp_path_factory.mktemp("trained")
    out = root / "out"
    out.mkdir()
    config = root / "run.ini"
    config.write_text(BASE_CONFIG.format(out=out))
    for cmd in ("gen", "partition", "train"):
        assert main([cmd, "--config", str(config)]) == 0
    return config, out


def edited_cell(row, column, cell):
    def edit(rows):
        rows[row][column] = cell
    return edit


def swapped_rows(rows):
    rows[1], rows[2] = rows[2], rows[1]


def above_the_loss(rows):
    for cells in rows:
        cells[3] = repr(float(cells[1]) + 1.0)


# an edit of the data rows of trace_typicality_sgd_seed0.csv (iterations 0, 20, 40 and 60 of a 60-step run
# evaluated every 20), the row the refusal names, and its message
TRACE_REFUSALS = {
    "off-grid iteration": (edited_cell(1, 0, "25"), 1, "iteration 25 where the evaluation schedule"),
    "negative iteration": (edited_cell(0, 0, "-1"), 0, "iteration -1 where the evaluation schedule"),
    "rows out of order": (swapped_rows, 1, "iteration 40 where the evaluation schedule (every 20 of 60 steps) has "
                                           "iteration 20"),
    "missing row": (lambda rows: rows.pop(2), 2, "iteration 60 where the evaluation schedule"),
    "missing last row": (lambda rows: rows.pop(), 3, "no row where the evaluation schedule"),
    "row past the last iteration": (lambda rows: rows.append(["80"] + rows[-1][1:]), 4, "has no more rows"),
    "duplicated row": (lambda rows: rows.insert(2, list(rows[2])), 3, "iteration 40 where the evaluation schedule"),
    "NaN train loss": (edited_cell(1, 1, "nan"), 1, "cannot read 'nan' as loss"),
    "infinite train loss": (edited_cell(2, 1, "inf"), 2, "cannot read 'inf' as loss"),
    "overflowing train loss": (edited_cell(2, 1, "1e999"), 2, "cannot read '1e999' as loss"),
    "negative train loss": (edited_cell(3, 1, "-0.5"), 3, "cannot read '-0.5' as loss"),
    "NaN val loss": (edited_cell(1, 2, "nan"), 1, "cannot read 'nan' as loss_or_empty"),
    "negative val loss": (edited_cell(0, 2, "-1e-9"), 0, "cannot read '-1e-9' as loss_or_empty"),
    "NaN subopt": (edited_cell(2, 3, "nan"), 2, "cannot read 'nan' as finite_or_empty"),
    "infinite subopt": (edited_cell(3, 3, "-inf"), 3, "cannot read '-inf' as finite_or_empty"),
    "negative subopt": (edited_cell(1, 3, "-1"), 1, "is not row 0's"),
    # a reach that the run never made
    "subopt zeroed in an early row": (edited_cell(1, 3, "0.0"), 1, "is not row 0's"),
    "subopt above the loss in every row": (above_the_loss, 0, "the run's optimal loss, is negative"),
    "subopt missing from one row": (edited_cell(2, 3, ""), 2, "subopt is empty here but not in row 0"),
    "subopt missing from the first row": (edited_cell(0, 3, ""), 1, "subopt is given here but not in row 0"),
}


@pytest.mark.parametrize("case", sorted(TRACE_REFUSALS))
def test_report_refuses_a_trace_no_writer_produces(trained, tmp_path, capsys, case):
    # one edit of one trace of a real run; report names the file and the row, exits 3 and writes nothing
    config, trained_out = trained
    edit, row, message = TRACE_REFUSALS[case]
    out = tmp_path / "out"
    shutil.copytree(trained_out, out)
    trace = out / "trace_typicality_sgd_seed0.csv"
    lines = trace.read_text().splitlines()
    rows = [line.split(",") for line in lines[2:]]
    edit(rows)
    trace.write_text("\n".join(lines[:2] + [",".join(cells) for cells in rows]) + "\n")
    before = {path.name: sha(path) for path in out.iterdir()}
    capsys.readouterr()
    assert main(["report", "--config", str(config), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert any(f"{trace}: row {row}{end}" in err for end in ",:") and message in err, err
    assert {path.name: sha(path) for path in out.iterdir()} == before


def test_report_takes_a_trace_edited_within_what_its_writer_produces(trained, tmp_path):
    # another finite, non-negative validation loss is a trace some run could have written
    config, trained_out = trained
    out = tmp_path / "out"
    shutil.copytree(trained_out, out)
    trace = out / "trace_typicality_sgd_seed0.csv"
    lines = trace.read_text().splitlines()
    cells = lines[3].split(",")
    lines[3] = ",".join(cells[:2] + ["0.0"] + cells[3:])
    trace.write_text("\n".join(lines) + "\n")
    assert main(["report", "--config", str(config), "--out", str(out)]) == 0


def fresh_partition(tmp_path, config, *flags):
    """The partition files that gen and partition write into an empty directory."""
    fresh = tmp_path / "fresh"
    fresh.mkdir()
    for cmd in ("gen", "partition"):
        assert main([cmd, "--config", str(config), "--out", str(fresh), *(flags if cmd == "partition" else ())]) == 0
    return {name: sha(fresh / name) for name in ("embedding.csv", "partition.csv", "partition.svg")}


def test_partition_re_embeds_an_embedding_of_another_config(workspace, tmp_path):
    config, out = workspace
    for cmd in ("gen", "embed", "partition"):
        assert main([cmd, "--config", str(config)]) == 0
    config.write_text(config.read_text().replace("seed = 5", "seed = 6"))
    for cmd in ("gen", "partition"):
        assert main([cmd, "--config", str(config)]) == 0
    assert {name: sha(out / name) for name in ("embedding.csv", "partition.csv", "partition.svg")} == (
        fresh_partition(tmp_path, config)
    )


def test_partition_seed_flag_re_embeds(workspace, tmp_path):
    config, out = workspace
    for cmd in ("gen", "embed", "partition"):
        assert main([cmd, "--config", str(config)]) == 0
    before = sha(out / "partition.csv")
    assert main(["partition", "--config", str(config), "--seed", "9"]) == 0
    fresh = fresh_partition(tmp_path, config, "--seed", "9")
    assert {name: sha(out / name) for name in fresh} == fresh and fresh["partition.csv"] != before


def test_partition_reuses_an_embedding_of_the_same_config_and_seed(workspace, monkeypatch):
    config, out = workspace
    for cmd in ("gen", "embed"):
        assert main([cmd, "--config", str(config)]) == 0
    monkeypatch.setattr(cli, "tsne_embed", lambda *a, **kw: pytest.fail("re-embedded a current embedding"))
    assert main(["partition", "--config", str(config)]) == 0


def test_partition_that_re_embeds_reads_the_dataset_once(workspace, monkeypatch):
    config, out = workspace
    assert main(["gen", "--config", str(config)]) == 0
    reads = []
    real = cli.load_dataset_file
    monkeypatch.setattr(cli, "load_dataset_file", lambda path: reads.append(Path(path).name) or real(path))
    assert main(["partition", "--config", str(config)]) == 0
    assert reads == ["dataset.csv"] and (out / "embedding.csv").exists()


def test_embed_reads_the_dataset_once(workspace, monkeypatch):
    config, out = workspace
    assert main(["gen", "--config", str(config)]) == 0
    reads = []
    real = _csvio.read_rows
    monkeypatch.setattr(_csvio, "read_rows", lambda path, **kw: reads.append(Path(path).name) or real(path, **kw))
    assert main(["embed", "--config", str(config)]) == 0
    assert reads == ["dataset.csv"]


@pytest.mark.parametrize(
    "text",
    [b"m = 3\n[data]\nkind = pwl\n", b"[data]\nkind = pwl\n[data]\nseed = 1\n", b"[data]\nkind = pwl\nkind = csv\n",
     b"[data]\nkind = pwl # \xff\n"],
    ids=["key-before-section", "duplicate-section", "duplicate-key", "not-utf8"],
)
def test_malformed_config_is_io_error(tmp_path, capsys, text):
    config = tmp_path / "bad.ini"
    config.write_bytes(text)
    assert main(["gen", "--config", str(config), "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read config {config}") and "Traceback" not in err


@pytest.mark.parametrize(
    "old, new, cmd, key",
    [("m = 10", "m = 20.5", "train", "[train] m = '20.5'"),
     ("bandwidth = scott", "bandwidth = wide", "partition", "[partition] bandwidth = 'wide'"),
     ("bandwidth = scott", "bandwidth = silverman", "partition", "[partition] bandwidth = 'silverman'"),
     ("weights = 0.9,0.1", "weights = nan,1", "gen", "[data] weights = 'nan,1': not a finite number"),
     ("noise_sigma = 0.6", "noise_sigma = inf", "gen", "[data] noise_sigma = 'inf': not a finite number"),
     ("centers = 0,0 | 7,7", "centers = 0,0 | 7,-inf", "gen", "[data] centers = '0,0 | 7,-inf'"),
     ("linear_target_weights = 1.0,-0.5", "linear_target_weights = 1.0,nan", "gen",
      "[data] linear_target_weights = '1.0,nan'")],
)
def test_bad_config_value_names_its_key(workspace, capsys, old, new, cmd, key):
    config, out = workspace
    assert main(["gen", "--config", str(config)]) == 0
    assert main(["partition", "--config", str(config)]) == 0
    dataset = sha(out / "dataset.csv")
    config.write_text(config.read_text().replace(old, new))
    assert main([cmd, "--config", str(config)]) == 2
    assert key in capsys.readouterr().err
    assert sha(out / "dataset.csv") == dataset


@pytest.mark.parametrize("value", ["nan", "inf", "-0.5"])
def test_bandwidth_that_is_not_positive_and_finite_is_refused_before_embedding(workspace, capsys, monkeypatch, value):
    config, out = workspace
    assert main(["gen", "--config", str(config)]) == 0
    config.write_text(config.read_text().replace("bandwidth = scott", f"bandwidth = {value}"))
    monkeypatch.setattr(cli, "tsne_embed", lambda *a, **kw: pytest.fail("embedded before the bandwidth was checked"))
    assert main(["partition", "--config", str(config)]) == 2
    assert f"[partition] bandwidth = '{value}'" in capsys.readouterr().err
    assert not (out / "embedding.csv").exists() and not (out / "partition.csv").exists()


@pytest.mark.parametrize(
    "old, new, key",
    [("gamma = 0.3", "gamma = 0.9", "[partition] gamma = '0.9'"),
     ("gamma = 0.3", "gamma = nan", "[partition] gamma = 'nan'"),
     ("gamma = 0.3", "gamma = 0", "[partition] gamma = '0'"),
     ("bandwidth = scott", "bandwidth = -0.5", "[partition] bandwidth = '-0.5'")],
)
def test_bad_partition_value_is_refused_before_embedding_and_keeps_the_earlier_files(
    workspace, capsys, monkeypatch, old, new, key
):
    config, out = workspace
    for cmd in ("gen", "partition"):
        assert main([cmd, "--config", str(config)]) == 0
    earlier = {name: sha(out / name) for name in ("embedding.csv", "partition.csv", "partition.svg")}
    config.write_text(config.read_text().replace(old, new))
    monkeypatch.setattr(cli, "tsne_embed", lambda *a, **kw: pytest.fail("embedded before [partition] was checked"))
    capsys.readouterr()
    assert main(["partition", "--config", str(config)]) == 2
    assert key in capsys.readouterr().err
    assert {name: sha(out / name) for name in earlier} == earlier


@pytest.mark.parametrize("old, new, key", [("eta = auto", "eta = nan", "[train] eta = 'nan'"),
                                           ("eta = auto", "eta = inf", "[train] eta = 'inf'"),
                                           ("adam_eta = 0.05", "adam_eta = nan", "[train] adam_eta = 'nan'")])
def test_learning_rate_that_is_not_finite_is_refused_before_training(workspace, capsys, monkeypatch, old, new, key):
    config, out = workspace
    for cmd in ("gen", "partition"):
        assert main([cmd, "--config", str(config)]) == 0
    config.write_text(config.read_text().replace(old, new))
    sizes = []
    monkeypatch.setattr(_parallel, "ProcessPoolExecutor", recording_pool(sizes))
    assert main(["train", "--config", str(config)]) == 2
    assert key in capsys.readouterr().err
    assert sizes == [] and not list(out.glob("trace_*.csv"))


@pytest.mark.parametrize("old, new, key", [("iterations = 60", "iterations = 0", "[train] iterations = '0'"),
                                           ("eval_every = 20", "eval_every = 0", "[train] eval_every = '0'"),
                                           ("eval_every = 20", "eval_every = -2", "[train] eval_every = '-2'")])
def test_count_below_one_is_refused_before_training(workspace, capsys, monkeypatch, old, new, key):
    config, out = workspace
    for cmd in ("gen", "partition"):
        assert main([cmd, "--config", str(config)]) == 0
    config.write_text(config.read_text().replace(old, new))
    sizes = []
    monkeypatch.setattr(_parallel, "ProcessPoolExecutor", recording_pool(sizes))
    capsys.readouterr()
    assert main(["train", "--config", str(config)]) == 2
    assert key in capsys.readouterr().err
    assert sizes == [] and not list(out.glob("trace_*.csv"))


@pytest.mark.parametrize(
    "before, command, old, new, flag, key, written",
    [
        ((), "gen", "seed = 5", "seed = -5", (), "[data] seed = '-5'", "dataset.csv"),
        (("gen",), "embed", "seed = 2", "seed = -3", (), "[embedding] seed = '-3'", "embedding.csv"),
        (("gen", "partition"), "train", "seeds = 0,1", "seeds = 0,-1", (), "[train] seeds = '0,-1'", "trace_*.csv"),
        (("gen", "partition"), "train", "val_seed = 77", "val_seed = -77", (), "[train] val_seed", "trace_*.csv"),
        (("gen", "partition"), "train", "", "", ("--seed", "-1"), "[train] seeds = '-1'", "trace_*.csv"),
        ((), "verify", "", "", ("--seed", "-1"), "[verify] seed = '-1'", "verify_report.csv"),
    ],
)
def test_negative_seed_is_refused_by_its_key_before_any_work(
    workspace, capsys, monkeypatch, before, command, old, new, flag, key, written
):
    config, out = workspace
    for cmd in before:
        assert main([cmd, "--config", str(config)]) == 0
    config.write_text(config.read_text().replace(old, new))
    sizes = []
    monkeypatch.setattr(_parallel, "ProcessPoolExecutor", recording_pool(sizes))
    monkeypatch.setattr(cli, "tsne_embed", lambda *a, **kw: pytest.fail("embedded before the seed was checked"))
    capsys.readouterr()
    assert main([command, "--config", str(config), *flag]) == 2
    assert key in capsys.readouterr().err
    assert sizes == [] and not list(out.glob(written)) and not (out / "alpha.csv").exists()


def test_embedding_iterations_below_one_is_refused_before_embedding(workspace, capsys, monkeypatch):
    config, out = workspace
    assert main(["gen", "--config", str(config)]) == 0
    config.write_text(config.read_text().replace("iterations = 120", "iterations = 0"))
    monkeypatch.setattr(cli, "tsne_embed", lambda *a, **kw: pytest.fail("embedded before the iterations were checked"))
    assert main(["embed", "--config", str(config)]) == 2
    assert "[embedding] iterations = '0'" in capsys.readouterr().err
    assert not (out / "embedding.csv").exists()


def test_train_refuses_a_partition_of_another_training_set_before_any_cell_runs(workspace, capsys, monkeypatch):
    config, out = workspace
    for cmd in ("gen", "partition"):
        assert main([cmd, "--config", str(config)]) == 0
    # the partition covers the 81 training samples of a 10% holdout; a 20% holdout leaves 72
    config.write_text(config.read_text().replace("val_fraction = 0.1", "val_fraction = 0.2"))
    sizes = []
    monkeypatch.setattr(_parallel, "ProcessPoolExecutor", recording_pool(sizes))
    capsys.readouterr()
    assert main(["train", "--config", str(config)]) == 2
    assert "partition covers 81 samples, dataset has 72" in capsys.readouterr().err
    assert sizes == [] and not list(out.glob("trace_*.csv")) and not list(out.glob("theta_*.csv"))


def test_train_refuses_a_partition_built_at_another_gamma(workspace, capsys):
    config, out = workspace
    for cmd in ("gen", "partition"):
        assert main([cmd, "--config", str(config)]) == 0
    # H holds ceil(81 * 0.3) = 25 of the 81 training samples; gamma = 0.5 asks for 41
    config.write_text(config.read_text().replace("gamma = 0.3", "gamma = 0.5"))
    capsys.readouterr()
    assert main(["train", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert all(part in err for part in ("partition.csv", "N1=25", "N=81", "[partition] gamma = 0.5")), err
    assert not list(out.glob("trace_*.csv"))


def test_partition_refuses_an_embedding_of_another_size_before_any_kde(workspace, capsys, monkeypatch):
    config, out = workspace
    for cmd in ("gen", "embed"):
        assert main([cmd, "--config", str(config)]) == 0
    # one row short of the 81 training samples, under the current provenance line, so it is not re-embedded
    lines = (out / "embedding.csv").read_text().splitlines()
    (out / "embedding.csv").write_text("\n".join(lines[:-1]) + "\n")
    monkeypatch.setattr(cli, "kde_densities", lambda *a, **kw: pytest.fail("ran the KDE on a mismatched embedding"))
    capsys.readouterr()
    assert main(["partition", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert all(part in err for part in (str(out / "embedding.csv"), "80 rows", "81 samples")), err
    assert not (out / "partition.csv").exists() and not (out / "partition.svg").exists()


@pytest.mark.parametrize(
    "label, cell, message",
    [
        ("H", "nan", "cannot read 'nan' as density"),
        ("L", "inf", "cannot read 'inf' as density"),
        ("H", "-inf", "cannot read '-inf' as density"),
        ("L", "0.0", "cannot read '0.0' as density"),
        ("H", "-0.5", "cannot read '-0.5' as density"),
        # a positive density below every L density puts H's lowest under L's highest
        ("H", "1e-300", "H's lowest density 1e-300 lies below L's highest"),
    ],
)
def test_train_refuses_a_partition_no_writer_produces(workspace, capsys, monkeypatch, label, cell, message):
    config, out = workspace
    for cmd in ("gen", "partition"):
        assert main([cmd, "--config", str(config)]) == 0
    lines = (out / "partition.csv").read_text().splitlines()
    # the provenance line and the header come first; rows are counted from 0 after them
    row = next(r for r, line in enumerate(lines[2:]) if line.split(",")[1] == label)
    sample, stratum, _ = lines[2 + row].split(",")
    lines[2 + row] = ",".join([sample, stratum, cell])
    (out / "partition.csv").write_text("\n".join(lines) + "\n")
    sizes = []
    monkeypatch.setattr(_parallel, "ProcessPoolExecutor", recording_pool(sizes))
    capsys.readouterr()
    assert main(["train", "--config", str(config)]) == 3
    err = capsys.readouterr().err
    assert any(f"{out / 'partition.csv'}: row {row}{end}" in err for end in ",:") and message in err, err
    assert sizes == [] and not list(out.glob("trace_*.csv")) and not list(out.glob("theta_*.csv"))


def test_train_without_a_typicality_sgd_cell_removes_alpha(workspace):
    config, out = workspace
    for cmd in ("gen", "partition", "train"):
        assert main([cmd, "--config", str(config)]) == 0
    assert (out / "alpha.csv").exists()
    config.write_text(config.read_text().replace("samplers = srs,typicality", "samplers = srs"))
    assert main(["train", "--config", str(config)]) == 0
    assert not (out / "alpha.csv").exists()


def test_dropped_optimizer_leaves_no_loss_chart(workspace):
    config, out = workspace
    for cmd in ("gen", "partition", "train"):
        assert main([cmd, "--config", str(config)]) == 0
    config.write_text(config.read_text().replace("optimizers = sgd,adam", "optimizers = sgd"))
    assert main(["train", "--config", str(config)]) == 0
    assert sorted(p.name for p in out.glob("losses_*.svg")) == ["losses_sgd.svg"]


def test_seed_flag_replaces_the_config_key_its_command_names(workspace):
    config, out = workspace
    assert main(["gen", "--config", str(config), "--seed", "9"]) == 0
    flagged = (out / "dataset.csv").read_text().splitlines()
    config.write_text(config.read_text().replace("seed = 5", "seed = 9"))
    assert main(["gen", "--config", str(config)]) == 0
    assert (out / "dataset.csv").read_text().splitlines()[1:] == flagged[1:]
    assert flagged[0].endswith("seed=9")


@pytest.mark.parametrize(
    "argv", [["report", "--seed", "9", "--workers", "0"], ["verify", "--workers", "0"], ["train", "--workers", "2"]]
)
def test_flag_outside_its_subcommand_is_usage_error(workspace, argv):
    config, _ = workspace
    with pytest.raises(SystemExit) as err:
        main([*argv, "--config", str(config)])
    assert err.value.code == 2


@pytest.mark.parametrize(
    "edit, section",
    [(lambda text: "[DEFAULT]\nseed = 3\n" + text.replace("seed = 5\n", ""), "[DEFAULT]"),
     (lambda text: text + "\n[embeding]\nperplexity = 5\n", "[embeding]")],
    ids=["default-section", "misspelt-section"],
)
def test_unknown_section_is_usage_error_before_any_file_is_written(workspace, capsys, edit, section):
    # configparser would copy a [DEFAULT] seed into every section that reads one
    config, out = workspace
    config.write_text(edit(config.read_text()))
    assert main(["gen", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert f"unknown section {section}" in err and "Traceback" not in err
    assert not list(out.iterdir())


def test_unread_key_in_a_known_section_still_passes(tmp_path):
    # the benchmark's config holds [embedding] learning_rate and [output] workers, which no stage reads
    config = Path(__file__).resolve().parents[1] / "perfbench" / "pipeline.ini"
    assert main(["gen", "--config", str(config), "--out", str(tmp_path)]) == 0

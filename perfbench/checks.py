"""Output checks computed apart from typsgd.

Every reference value here comes from numpy alone: least squares through
``numpy.linalg.lstsq``, curvature constants from singular values, expected
batch-gradient errors from first- and second-order inclusion probabilities,
Monte-Carlo estimates from this module's own sampler, and CSV parsing of the
artifacts. Nothing compares against a stored copy of an earlier run's
output. Each check appends one named result to a :class:`Checks` record, so
a failed check counts as one failed operation.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

MC_SIGMAS = 5.0  # Monte-Carlo agreement allowance, in standard errors
EXACT_RTOL = 1e-9


class Checks:
    """Named pass/fail results of one run."""

    def __init__(self):
        self.results: list[tuple[str, bool, str]] = []

    def add(self, name: str, ok, detail: str = "") -> None:
        self.results.append((name, bool(ok), detail))

    def failed(self) -> list[tuple[str, bool, str]]:
        return [r for r in self.results if not r[1]]


def _close(a: float, b: float, rtol: float = EXACT_RTOL, atol: float = 0.0) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b)) + atol


# ---------------------------------------------------------------------------
# independent computations
# ---------------------------------------------------------------------------


def ls_loss(x: np.ndarray, y: np.ndarray, theta: np.ndarray) -> float:
    """Mean least-squares loss (x . theta - y)^2 / 2."""
    r = x @ theta - y
    return float(np.mean(0.5 * r * r))


def ls_optimum(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float]:
    theta = np.linalg.lstsq(x, y, rcond=None)[0]
    return theta, ls_loss(x, y, theta)


def ls_gradients(x: np.ndarray, y: np.ndarray, theta: np.ndarray) -> np.ndarray:
    return (x @ theta - y)[:, None] * x


def cluster_labels(features: np.ndarray, centers) -> np.ndarray:
    """Index of the nearest generating center of every sample."""
    centers = np.asarray(centers, dtype=np.float64)
    d = ((features[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    return np.argmin(d, axis=1)


def majority_share(features: np.ndarray, h: np.ndarray, centers) -> float:
    """Share of H drawn from the most populous cluster."""
    labels = cluster_labels(features, centers)
    majority = np.bincount(labels).argmax()
    return float(np.mean(labels[h] == majority))


def expected_sq_error(rows: np.ndarray, ref: np.ndarray, strata, m: int) -> float:
    """E||batch mean - ref||^2 from inclusion probabilities.

    ``strata`` lists (indices, draws); each stratum is sampled without
    replacement, independently. With S_h the batch sum over stratum h,
    E S_h = pi T_h and E||S_h||^2 = pi sum||g_i||^2 + pi2 (||T_h||^2 - sum||g_i||^2),
    pi = n/N and pi2 = n(n-1)/(N(N-1)): raw second moments, not the
    dispersion identities the package uses.
    """
    means, second = [], 0.0
    for idx, n in strata:
        g = rows[idx]
        big_n = g.shape[0]
        total = g.sum(axis=0)
        sq = float(np.sum(g * g))
        pi, pi2 = n / big_n, n * (n - 1) / (big_n * (big_n - 1))
        means.append(pi * total)
        second += pi * sq + pi2 * (float(total @ total) - sq)
    mean_sum = np.sum(means, axis=0)
    cross = float(mean_sum @ mean_sum) - sum(float(v @ v) for v in means)
    e_sq = second + cross
    return (e_sq - 2.0 * m * float(ref @ mean_sum) + m * m * float(ref @ ref)) / (m * m)


def draw_subsets(population: int, size: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` uniform ``size``-subsets of range(population): partial Fisher-Yates per row."""
    perm = np.tile(np.arange(population, dtype=np.int32), (count, 1))
    rows = np.arange(count)
    for t in range(size):
        j = rng.integers(t, population, size=count)
        head = perm[rows, t].copy()
        perm[rows, t] = perm[rows, j]
        perm[rows, j] = head
    return perm[:, :size]


def mc_sq_errors(rows, ref, strata, m: int, draws: int, rng, chunk: int = 1000) -> np.ndarray:
    """Squared batch-mean errors of ``draws`` independent stratified batches."""
    out = np.empty(draws)
    for lo in range(0, draws, chunk):
        c = min(chunk, draws - lo)
        total = np.zeros((c, rows.shape[1]))
        for idx, n in strata:
            picks = idx[draw_subsets(idx.shape[0], n, c, rng)]
            total += rows[picks].sum(axis=1)
        diff = total / m - ref
        out[lo : lo + c] = np.sum(diff * diff, axis=1)
    return out


def error_moments(rows, h, l, m: int, n1: int, draws: int, seed: int) -> dict:
    """Exact and Monte-Carlo E||batch mean - mean gradient||^2 for SRS and the stratified plan."""
    ref = rows.mean(axis=0)
    schemes = {
        "srs": [(np.arange(rows.shape[0]), m)],
        "stratified": [(np.asarray(h), n1), (np.asarray(l), m - n1)],
    }
    rng = np.random.default_rng(seed)
    out = {}
    for name, strata in schemes.items():
        sample = mc_sq_errors(rows, ref, strata, m, draws, rng)
        out[name] = {
            "exact": expected_sq_error(rows, ref, strata, m),
            "mc": float(sample.mean()),
            "sd": float(sample.std(ddof=1)),
            "draws": draws,
        }
    return out


def _mc_alpha(moments) -> tuple[float, float]:
    """Monte-Carlo ratio stratified / SRS and its delta-method standard error."""
    a, b = moments["stratified"], moments["srs"]
    ratio = a["mc"] / b["mc"]
    rel = math.sqrt((a["sd"] / a["mc"]) ** 2 / a["draws"] + (b["sd"] / b["mc"]) ** 2 / b["draws"])
    return ratio, ratio * rel


# ---------------------------------------------------------------------------
# checks shared by both workloads
# ---------------------------------------------------------------------------


def check_alpha(ck: Checks, alpha: float, moments: dict, require_below_one: bool) -> None:
    exact = moments["stratified"]["exact"] / moments["srs"]["exact"]
    ck.add("alpha_vs_inclusion_probabilities", _close(alpha, exact), f"alpha {alpha!r}, exact {exact!r}")
    mc, se = _mc_alpha(moments)
    ck.add(
        "alpha_vs_monte_carlo",
        abs(alpha - mc) <= MC_SIGMAS * se,
        f"alpha {alpha:.6f}, Monte-Carlo {mc:.6f} +- {se:.6f}",
    )
    if require_below_one:
        ck.add("alpha_below_one", alpha < 1.0, f"alpha {alpha:.6f}")


# ---------------------------------------------------------------------------
# comparison workload
# ---------------------------------------------------------------------------


def check_strata(ck: Checks, h, l, n: int, gamma: float) -> None:
    h, l = np.asarray(h), np.asarray(l)
    ck.add("strata_size", h.shape[0] == math.ceil(gamma * n), f"|H| = {h.shape[0]}, ceil(gamma N) = {math.ceil(gamma * n)}")
    merged = np.sort(np.concatenate([h, l]))
    ck.add("strata_partition", np.array_equal(merged, np.arange(n)), f"|H| + |L| = {merged.shape[0]}, N = {n}")


def check_cluster_capture(ck: Checks, features, h, centers, minimum: float = 0.95) -> float:
    share = majority_share(features, np.asarray(h), centers)
    ck.add("cluster_capture", share >= minimum, f"{share:.4f} of H from the majority cluster (need {minimum})")
    return share


def check_perplexity(ck: Checks, achieved, target: float, tol: float) -> None:
    misses = int(np.sum(np.abs(np.asarray(achieved) - target) > tol))
    ck.add("perplexity_within_tolerance", misses == 0, f"{misses} rows outside {tol} of perplexity {target}")


def check_model_constants(ck: Checks, x, y, lipschitz, mu, minimizer, optimum) -> None:
    s = np.linalg.svd(x / math.sqrt(x.shape[0]), compute_uv=False)
    theta, opt = ls_optimum(x, y)
    ok = (
        _close(lipschitz, s[0] ** 2)
        and _close(mu, s[-1] ** 2)
        and np.allclose(minimizer, theta, rtol=1e-8, atol=1e-12)
        and _close(optimum, opt)
    )
    ck.add(
        "model_constants",
        ok,
        f"L {lipschitz!r} vs {s[0] ** 2!r}; mu {mu!r} vs {s[-1] ** 2!r}; optimum {optimum!r} vs {opt!r}",
    )


def check_threshold_iteration(ck: Checks, label: str, x, y, thetas, reported, threshold: float, subopts) -> None:
    """The first recorded theta under the threshold, by the own loss, is at the reported iteration.

    ``subopts`` are the suboptimalities the program recorded along the same
    run; none may be negative beyond rounding.
    """
    _, opt = ls_optimum(x, y)
    first = next((it for it, theta in thetas if ls_loss(x, y, theta) - opt <= threshold), None)
    ck.add(f"threshold_iteration.{label}", first == reported, f"recomputed {first}, reported {reported}")
    worst = min(subopts)
    ck.add(f"subopt_nonnegative.{label}", worst >= -1e-12 * max(1.0, abs(opt)), f"min suboptimality {worst!r}")


def check_oracle(ck: Checks, mse_srs: float, mse_strat: float, draws: int, moments: dict) -> None:
    """The package's Monte-Carlo oracle against the exact values, within its own standard error."""
    for name, value in (("srs", mse_srs), ("stratified", mse_strat)):
        ref = moments[name]
        se = ref["sd"] / math.sqrt(draws)
        ck.add(
            f"oracle_mse_{name}",
            abs(value - ref["exact"]) <= MC_SIGMAS * se,
            f"oracle {value:.6e}, exact {ref['exact']:.6e} +- {se:.2e}",
        )


# ---------------------------------------------------------------------------
# pipeline workload: artifact parsing and checks
# ---------------------------------------------------------------------------


def read_csv(path) -> tuple[list[str], list[list[str]]]:
    """Header and rows of a typsgd CSV, skipping '#' comment lines."""
    lines = [ln for ln in Path(path).read_text(encoding="utf-8").splitlines() if ln and not ln.startswith("#")]
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def load_dataset(path) -> tuple[np.ndarray, np.ndarray]:
    header, rows = read_csv(path)
    values = np.array(rows, dtype=np.float64)
    feats = [j for j, name in enumerate(header) if name.startswith("f")]
    targs = [j for j, name in enumerate(header) if name.startswith("t")]
    return values[:, feats], values[:, targs[0]]


def train_rows(n: int, val_fraction: float, val_seed: int) -> np.ndarray:
    """Training-row ids of the documented holdout: a seeded permutation's tail, sorted."""
    n_val = int(round(n * val_fraction))
    if n_val == 0:
        return np.arange(n)
    return np.sort(np.random.default_rng(val_seed).permutation(n)[n_val:])


def load_partition(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    _, rows = read_csv(path)
    labels = np.array([r[1] for r in rows])
    dens = np.array([float(r[2]) for r in rows])
    ids = np.array([int(r[0]) for r in rows])
    return ids[labels == "H"], ids[labels == "L"], dens


def load_trace(path) -> list[dict]:
    _, rows = read_csv(path)
    return [{"iteration": int(r[0]), "train_loss": float(r[1])} for r in rows]


def load_theta(path) -> np.ndarray:
    _, rows = read_csv(path)
    return np.array([float(r[0]) for r in rows])


def check_verify_report(ck: Checks, path) -> None:
    _, rows = read_csv(path)
    asserted = [r for r in rows if r[0] == "ASSERTED"]
    bad = [r[1] for r in asserted if r[2] != "PASS"]
    ck.add("verify_asserted_pass", asserted and not bad, f"{len(asserted)} ASSERTED rows, not PASS: {bad}")


def check_partition_file(ck: Checks, h, l, dens, n_train: int, gamma: float) -> None:
    ck.add(
        "partition_size",
        h.shape[0] == math.ceil(gamma * n_train) and h.shape[0] + l.shape[0] == n_train,
        f"|H| = {h.shape[0]}, |L| = {l.shape[0]}, N_train = {n_train}",
    )
    ck.add(
        "partition_density_order",
        dens[h].min() >= dens[l].max(),
        f"lowest H density {dens[h].min()!r}, highest L density {dens[l].max()!r}",
    )


def check_training_artifacts(ck: Checks, out: Path, x, y, threshold: float) -> None:
    """theta_* reproduce their trace's final loss; comparison.csv matches the traces."""
    _, opt = ls_optimum(x, y)
    reached: dict[str, int | None] = {}
    cells: dict[tuple[str, str], list] = {}
    for trace_path in sorted(out.glob("trace_*.csv")):
        stem = trace_path.stem[len("trace_") :]
        trace = load_trace(trace_path)
        theta = load_theta(out / f"theta_{stem}.csv")
        own, final = ls_loss(x, y, theta), trace[-1]["train_loss"]
        ck.add(f"theta_final_loss.{stem}", _close(own, final, atol=1e-15), f"own {own!r}, trace {final!r}")
        reached[stem] = next((r["iteration"] for r in trace if r["train_loss"] - opt <= threshold), None)
        sampler, optimizer, _ = stem.rsplit("_", 2)
        cells.setdefault((sampler, optimizer), []).append(reached[stem])
    _, rows = read_csv(out / "comparison.csv")
    seen = set()
    for sampler, optimizer, seed, iters, *_ in rows:
        if seed == "median":
            values = cells.get((sampler, optimizer), [])
            want = float(np.median([np.inf if v is None else v for v in values])) if values else None
            got = np.inf if iters == "never" else float(iters)
            ck.add(f"comparison_median.{sampler}_{optimizer}", want == got, f"csv {iters}, recomputed {want}")
            continue
        stem = f"{sampler}_{optimizer}_seed{seed}"
        seen.add(stem)
        got = None if iters == "" else int(iters)
        ck.add(f"comparison_row.{stem}", stem in reached and got == reached[stem], f"csv {got}, recomputed {reached.get(stem)}")
    ck.add("comparison_covers_traces", seen == set(reached), f"{len(seen)} rows, {len(reached)} traces")


def artifact_bytes(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.suffix in (".csv", ".svg")}

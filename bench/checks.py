"""Correctness checks on the files `jjswitch simulate` and `ensemble` write.

Each check recomputes what it can from the raw rows with this module's own
code, or tests a property the method guarantees, and raises CheckError on
the first disagreement.  Nothing here compares against a stored copy of an
earlier run's output; the one stored file is the oracle distribution of the
shipped bare-junction config (see make_reference.py).
"""

from __future__ import annotations

import dataclasses
import json
import math
import os

import numpy as np

from jjswitch import config, output, physics

RECORD_COLUMNS = ("ramp_index", "I_s_uA", "flag", "n_relax_events")
LABEL_COLUMNS = ("ramp_index", "branch")
HISTOGRAM_COLUMNS = ("bin_lo_uA", "bin_hi_uA", "count")
MASTER_COLUMNS = ("I_uA", "density_per_uA", "survival")
MASTER_ROWS = 2000  # integrate_master's default grid_resolution

# Floats in the outputs carry 12 significant digits.
REL_TOL = 1e-9
# |integral of density + final survival - 1|.  The oracle meets 1e-5 on
# the fast-ramp default config; the shipped bare config's 7.5e-3 fails.
CONSERVATION_TOL = 1e-3
# Number of standard deviations a statistic may stray before a check fails.
# The TV's tail is heavier than normal: of 400,000 multinomial resamples of
# the bare reference at N = 1000, one exceeded its bound.
N_SIGMA = 6.0
RESAMPLES = 4000
RESAMPLE_SEED = 907_2319


class CheckError(AssertionError):
    """An output file disagrees with an independent computation."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _close(a: float, b: float, what: str, rel: float = REL_TOL, abs_: float = 1e-12) -> None:
    _require(
        math.isclose(a, b, rel_tol=rel, abs_tol=abs_),
        f"{what}: {a!r} != recomputed {b!r}",
    )


def expected_config(config_path: str, overrides, seed: int) -> config.RunConfig:
    """The configuration the CLI resolves from --config, --set and --seed."""
    cfg = config.apply_overrides(config.load_config(config_path), list(overrides))
    return config.with_seed(cfg, seed)


def read_csv(path: str, columns: tuple[str, ...]) -> tuple[list[str], np.ndarray]:
    """Header comment lines, and the data rows as an array of strings."""
    _require(os.path.isfile(path), f"{path}: missing")
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = fh.read().split("\n")
    _require(lines[-1] == "", f"{path}: does not end with a newline")
    lines = lines[:-1]
    header = [line for line in lines if line.startswith("#")]
    body = lines[len(header):]
    _require(body != [], f"{path}: no column header")
    _require(
        all(not line.startswith("#") for line in body),
        f"{path}: comment line after the header block",
    )
    _require(
        tuple(body[0].split(",")) == columns,
        f"{path}: columns {body[0]!r}, expected {','.join(columns)}",
    )
    rows = [line.split(",") for line in body[1:]]
    _require(
        all(len(r) == len(columns) for r in rows), f"{path}: ragged rows"
    )
    return header, np.array(rows, dtype=str).reshape(len(rows), len(columns))


def _floats(col: np.ndarray, what: str) -> np.ndarray:
    try:
        out = col.astype(float)
    except ValueError as exc:
        raise CheckError(f"{what}: {exc}") from None
    _require(bool(np.all(np.isfinite(out))), f"{what}: non-finite value")
    return out


def _ints(col: np.ndarray, what: str) -> np.ndarray:
    _require(
        all(s.lstrip("-").isdigit() for s in col), f"{what}: non-integer value"
    )
    return col.astype(np.int64)


def check_embedded(path: str, header: list[str], cfg: config.RunConfig, command: str) -> None:
    """The header names the command and seed and embeds a config that
    parses back to exactly the configuration of the run."""
    _require(
        header[:2] == [f"# jjswitch {command}", f"# master_seed = {cfg.master_seed}"],
        f"{path}: header {header[:2]!r} does not name {command} / seed {cfg.master_seed}",
    )
    back = output.extract_embedded_config(path)
    _require(
        config.config_text(back) == config.config_text(cfg),
        f"{path}: embedded config does not round-trip",
    )


def check_summary(path: str, cfg: config.RunConfig, command: str) -> dict:
    _require(os.path.isfile(path), f"{path}: missing")
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    _require(doc.get("command") == command, f"{path}: command {doc.get('command')!r}")
    _require(
        doc.get("master_seed") == cfg.master_seed
        and doc.get("config", {}).get("engine", {}).get("master_seed") == cfg.master_seed,
        f"{path}: master_seed does not match the run",
    )
    return doc


def grid_limits_uA(cfg: config.RunConfig) -> tuple[float, float]:
    """[dc_start, end of the two-level domain]: every switching current of
    the ramp grid lies in it."""
    p, _, d, _ = config.build_physics(cfg)
    return d.dc_start * 1e6, physics.two_level_bias_limit(p, "g") * 1e6


# ---------------------------------------------------------------------------
# simulate: records.csv, labels.csv, summary.json
# ---------------------------------------------------------------------------


def read_records(out_dir: str, cfg: config.RunConfig, n: int):
    """Switching currents (uA) and flags of records.csv, after checking its
    header, indices, flags and current range."""
    path = os.path.join(out_dir, "records.csv")
    header, rows = read_csv(path, RECORD_COLUMNS)
    check_embedded(path, header, cfg, "simulate")
    _require(len(rows) == n, f"{path}: {len(rows)} rows, expected {n}")
    index = _ints(rows[:, 0], f"{path} ramp_index")
    _require(
        bool(np.array_equal(index, np.arange(n))), f"{path}: ramp_index is not 0..{n - 1} in order"
    )
    current = _floats(rows[:, 1], f"{path} I_s_uA")
    flag = _ints(rows[:, 2], f"{path} flag")
    _require(bool(np.all((flag == 0) | (flag == 1))), f"{path}: flag outside {{0, 1}}")
    relax = _ints(rows[:, 3], f"{path} n_relax_events")
    _require(bool(np.all(relax >= 0)), f"{path}: negative n_relax_events")
    lo, hi = grid_limits_uA(cfg)
    _require(
        bool(np.all((current >= lo * (1 - REL_TOL)) & (current <= hi))),
        f"{path}: I_s outside [{lo:.6f}, {hi:.6f}] uA",
    )
    return current, flag, relax


def branch_split(current: np.ndarray, flag: np.ndarray, threshold: float) -> dict:
    """Telegraph statistics of a split at `threshold` (uA): labels, branch
    changes, dwell runs, branch means and label fidelity."""
    upper = current > threshold
    change = np.flatnonzero(upper[1:] != upper[:-1])
    starts = np.concatenate(([0], change + 1))
    runs = np.diff(np.concatenate((starts, [upper.size])))
    run_upper = upper[starts]

    def mean(x):
        return float(np.mean(x)) if x.size else float("nan")

    return {
        "upper": upper,
        "jumps": int(change.size),
        "mean_dwell_upper_ramps": mean(runs[run_upper]),
        "mean_dwell_lower_ramps": mean(runs[~run_upper]),
        "mean_dwell_ramps": mean(runs),
        "mean_current_upper_uA": mean(current[upper]),
        "mean_current_lower_uA": mean(current[~upper]),
        # the upper branch is the TLS ground state: flag 0
        "label_fidelity": float(np.mean(upper == (flag == 0))),
    }


def check_branches(out_dir: str, cfg: config.RunConfig, current: np.ndarray, flag: np.ndarray) -> dict | None:
    """Recompute labels.csv and the branch summary from records.csv.

    Returns the recomputed split, or None for a sequence the program
    reported as unimodal (then labels.csv must be absent).
    """
    summary = check_summary(os.path.join(out_dir, "summary.json"), cfg, "simulate")
    _require(summary.get("ramps") == current.size, "summary.json: ramps != number of records")
    branches = summary.get("branches", {})
    labels_path = os.path.join(out_dir, "labels.csv")
    if not branches.get("bimodal"):
        _require("reason" in branches, "summary.json: unimodal result without a reason")
        _require(not os.path.exists(labels_path), "labels.csv written for a unimodal sequence")
        return None

    threshold = branches["threshold_uA"]
    split = branch_split(current, flag, threshold)
    upper = split["upper"]
    _require(
        bool(upper.any() and (~upper).any()), "summary.json: threshold leaves one branch empty"
    )
    _require(
        split["mean_current_lower_uA"] < threshold < split["mean_current_upper_uA"],
        "summary.json: threshold does not lie between the branch means",
    )
    _require(branches["jumps"] == split["jumps"], f"summary.json: jumps {branches['jumps']} != recomputed {split['jumps']}")
    for key in (
        "mean_dwell_upper_ramps",
        "mean_dwell_lower_ramps",
        "mean_dwell_ramps",
        "mean_current_upper_uA",
        "mean_current_lower_uA",
        "label_fidelity",
    ):
        _close(branches[key], split[key], f"summary.json {key}")

    header, rows = read_csv(labels_path, LABEL_COLUMNS)
    check_embedded(labels_path, header, cfg, "simulate")
    _require(len(rows) == current.size, f"{labels_path}: {len(rows)} rows, expected {current.size}")
    _require(
        bool(np.array_equal(_ints(rows[:, 0], labels_path), np.arange(current.size))),
        f"{labels_path}: ramp_index is not 0..n-1 in order",
    )
    expected = np.where(upper, "upper", "lower")
    bad = np.flatnonzero(rows[:, 1] != expected)
    _require(bad.size == 0, f"{labels_path}: {bad.size} labels disagree with the threshold split")
    return split


def branch_change_bound(n: int, q: float) -> tuple[float, float]:
    """Mean and N_SIGMA half-width of the number of branch changes among n
    independent labels that are 'upper' with probability q.

    Each of the n-1 neighbour pairs changes with probability p = 2q(1-q);
    neighbouring pairs share a label, which adds the covariance p/2 - p^2.
    """
    p = 2.0 * q * (1.0 - q)
    var = (n - 1) * p * (1.0 - p) + 2.0 * max(n - 2, 0) * (0.5 * p - p * p)
    return (n - 1) * p, N_SIGMA * math.sqrt(var) + 1.0


def check_independent_ramps(split: dict) -> None:
    """With no TLS the ramps are independent, so the branch changes follow
    from the branch share alone."""
    upper = split["upper"]
    mean, half = branch_change_bound(upper.size, float(upper.mean()))
    _require(
        abs(split["jumps"] - mean) <= half,
        f"{split['jumps']} branch changes, expected {mean:.1f} +- {half:.1f} for independent ramps",
    )


# ---------------------------------------------------------------------------
# Distributions: histogram vs master-equation oracle
# ---------------------------------------------------------------------------


def read_master(path: str, cfg: config.RunConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Grid (uA), density (1/uA) and survival of a master.csv, after checking
    its shape and the properties of a switching distribution.  Conservation
    is checked apart (check_conservation): the stored bare-junction
    reference is known to miss it by 7.5e-3."""
    header, rows = read_csv(path, MASTER_COLUMNS)
    check_embedded(path, header, cfg, "ensemble")
    _require(len(rows) == MASTER_ROWS, f"{path}: {len(rows)} rows, expected {MASTER_ROWS}")
    grid = _floats(rows[:, 0], f"{path} I_uA")
    density = _floats(rows[:, 1], f"{path} density_per_uA")
    survival = _floats(rows[:, 2], f"{path} survival")
    lo, hi = grid_limits_uA(cfg)
    _close(grid[0], lo, f"{path}: first grid point vs dc_start")
    step = np.diff(grid)
    _require(
        bool(np.all(step > 0) and np.allclose(step, step.mean(), rtol=1e-6)),
        f"{path}: grid is not uniform and increasing",
    )
    _require(grid[-1] <= hi, f"{path}: grid ends beyond the two-level domain")
    _require(bool(np.all(density >= 0.0)), f"{path}: negative density")
    _require(bool(np.all((survival >= 0.0) & (survival <= 1.0))), f"{path}: survival outside [0, 1]")
    _require(bool(np.all(np.diff(survival) <= 0.0)), f"{path}: survival increases")
    _require(survival[0] == 1.0, f"{path}: survival at dc_start is {survival[0]}, not 1")
    return grid, density, survival


def check_conservation(grid, density, survival, path: str) -> None:
    total = float(np.trapezoid(density, grid)) + survival[-1]
    _require(
        abs(total - 1.0) <= CONSERVATION_TOL,
        f"{path}: integral of density + final survival = {total:.6f}, not 1 within {CONSERVATION_TOL}",
    )


def binned_mass(grid, density, survival, edges) -> tuple[np.ndarray, float]:
    """Oracle probability in each histogram bin [edges[k], edges[k+1]) and
    the mass left outside the bins (never-switched survival included)."""
    cum = np.concatenate(([0.0], np.cumsum(0.5 * (density[1:] + density[:-1]) * np.diff(grid))))
    at = np.interp(edges, grid, cum, left=0.0, right=cum[-1])
    q = np.diff(at)
    outside = max(cum[-1] + survival[-1] - q.sum(), 0.0)
    return q, outside


def tv_distance(counts: np.ndarray, q: np.ndarray, outside: float) -> np.ndarray:
    """Total-variation distance of histogram counts (last axis) to the binned
    oracle mass; oracle mass outside the bins counts fully."""
    p_hat = counts / counts.sum(axis=-1, keepdims=True)
    return 0.5 * (np.abs(p_hat - q).sum(axis=-1) + outside)


def tv_bound(n: int, q: np.ndarray, outside: float) -> float:
    """Largest TV a correct sampler gives at n samples in these bins: mean +
    N_SIGMA standard deviations of the TV of multinomial resamples drawn from
    the oracle's own binned mass."""
    rng = np.random.default_rng(RESAMPLE_SEED)
    pvals = q / q.sum()
    tv = tv_distance(rng.multinomial(n, pvals, size=RESAMPLES), q, outside)
    return float(tv.mean() + N_SIGMA * tv.std())


def histogram_counts(current: np.ndarray, width: float) -> tuple[np.ndarray, np.ndarray]:
    """Edges and counts of half-open bins of `width` starting at the smallest
    value and reaching just past the largest."""
    lo = current.min()
    n_bins = int(np.floor((current.max() - lo) / width)) + 1
    idx = np.clip(np.floor((current - lo) / width).astype(np.int64), 0, n_bins - 1)
    return lo + width * np.arange(n_bins + 1), np.bincount(idx, minlength=n_bins)


def check_against_oracle(edges, counts, grid, density, survival, what: str) -> float:
    q, outside = binned_mass(grid, density, survival, edges)
    _require(q.sum() > 0.0, f"{what}: histogram and oracle share no current range")
    tv = float(tv_distance(counts, q, outside))
    bound = tv_bound(int(counts.sum()), q, outside)
    _require(tv <= bound, f"{what}: TV to the oracle {tv:.4f} exceeds the sampling bound {bound:.4f}")
    return tv


# ---------------------------------------------------------------------------
# Workload checks
# ---------------------------------------------------------------------------


def check_simulate(out_dir: str, cfg: config.RunConfig, n: int, reference: str | None = None) -> None:
    """records.csv, labels.csv and summary.json of a `simulate` run.

    With `reference` (a master.csv of the same config) the ramps must be
    independent draws from that distribution: the run has no TLS.
    """
    current, flag, _ = read_records(out_dir, cfg, n)
    split = check_branches(out_dir, cfg, current, flag)
    if reference is None:
        return
    _require(bool(np.all(flag == 0)), "records.csv: a flag is set in a run without a TLS")
    _require(split is not None, "summary.json: the bare-junction sequence was reported unimodal")
    check_independent_ramps(split)
    ref_cfg = output.extract_embedded_config(reference)
    # the reference may differ from the run only in what the oracle ignores
    same = dataclasses.replace(
        cfg, master_seed=ref_cfg.master_seed, ramps=ref_cfg.ramps, trajectories=ref_cfg.trajectories
    )
    _require(
        config.config_text(same) == config.config_text(ref_cfg),
        f"{reference}: oracle reference is for another config than the run",
    )
    edges, counts = histogram_counts(current, cfg.bin_width_uA)
    check_against_oracle(edges, counts, *read_master(reference, ref_cfg), "records.csv")


def check_ensemble(out_dir: str, cfg: config.RunConfig, n: int) -> None:
    """histogram.csv, master.csv and summary.json of an `ensemble` run."""
    path = os.path.join(out_dir, "histogram.csv")
    header, rows = read_csv(path, HISTOGRAM_COLUMNS)
    check_embedded(path, header, cfg, "ensemble")
    _require(len(rows) > 0, f"{path}: no bins")
    lo = _floats(rows[:, 0], f"{path} bin_lo_uA")
    hi = _floats(rows[:, 1], f"{path} bin_hi_uA")
    counts = _ints(rows[:, 2], f"{path} count")
    width = cfg.bin_width_uA
    _require(
        bool(np.allclose(hi - lo, width, rtol=1e-6) and np.allclose(lo[1:], hi[:-1], rtol=REL_TOL)),
        f"{path}: bins are not contiguous and {width} uA wide",
    )
    _require(bool(np.all(counts >= 0)), f"{path}: negative count")
    _require(int(counts.sum()) == n, f"{path}: counts sum to {counts.sum()}, expected {n}")
    _require(counts[0] > 0 and counts[-1] > 0, f"{path}: bins do not start and end at a record")
    start, end = grid_limits_uA(cfg)
    _require(lo[0] >= start * (1 - REL_TOL) and lo[-1] <= end, f"{path}: bins outside [dc_start, end of grid]")

    master = os.path.join(out_dir, "master.csv")
    grid, density, survival = read_master(master, cfg)
    check_conservation(grid, density, survival, master)
    edges = np.append(lo, hi[-1])
    tv = check_against_oracle(edges, counts, grid, density, survival, path)

    summary = check_summary(os.path.join(out_dir, "summary.json"), cfg, "ensemble")
    _require(summary.get("trajectories") == n, "summary.json: trajectories != N")
    _close(summary["tv_distance"], tv, "summary.json tv_distance", rel=1e-6, abs_=1e-9)
    _close(
        summary["histogram_mode_uA"], 0.5 * (lo + hi)[counts.argmax()], "summary.json histogram_mode_uA"
    )
    _close(summary["master_mode_uA"], grid[density.argmax()], "summary.json master_mode_uA")


def check_identical(dir_a: str, dir_b: str) -> None:
    """Two runs with the same seed wrote the same files, byte for byte."""
    names_a, names_b = sorted(os.listdir(dir_a)), sorted(os.listdir(dir_b))
    _require(names_a == names_b, f"same seed, different files: {names_a} vs {names_b}")
    for name in names_a:
        with open(os.path.join(dir_a, name), "rb") as fa, open(os.path.join(dir_b, name), "rb") as fb:
            _require(fa.read() == fb.read(), f"same seed, {name} differs between runs")

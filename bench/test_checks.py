"""Each correctness check of checks.py must fail on a corrupted output.

    python3 -m pytest bench/test_checks.py -q

Clean outputs come from the CLI's own writers (`cmd_simulate`,
`cmd_ensemble`) fed with synthetic records, so the tests take seconds and
the files have exactly the shipped format.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
from jjswitch import cli, engine, oracle  # noqa: E402

REFERENCE = os.path.join(ROOT, "bench", "reference", "bare_junction_master.csv")


def records_from(currents_uA, flags) -> list:
    return [
        engine.SwitchRecord(k, float(i) * 1e-6, int(f), n_relax_events=0)
        for k, (i, f) in enumerate(zip(currents_uA, flags))
    ]


def write_simulate(out_dir, cfg, records, monkeypatch) -> str:
    monkeypatch.setattr(cli, "_run_sequence_records", lambda cfg, workers: records)
    cli.cmd_simulate(cfg, str(out_dir), 1)
    return str(out_dir)


def sample_inverse_cdf(rng, grid, density, n) -> np.ndarray:
    cum = np.concatenate(([0.0], np.cumsum(0.5 * (density[1:] + density[:-1]) * np.diff(grid))))
    return np.interp(rng.uniform(0.0, cum[-1], n), cum, grid)


def telegraph_records(n=400, seed=1):
    """A two-state Markov chain of flags; each flag has its own current mode."""
    rng = np.random.default_rng(seed)
    flags = np.zeros(n, dtype=int)
    for k in range(1, n):
        flags[k] = flags[k - 1] ^ int(rng.uniform() < 0.1)
    currents = np.where(flags == 0, 35.60, 35.47) + 0.01 * rng.standard_normal(n)
    return currents, flags


@pytest.fixture(scope="module")
def mp():
    with pytest.MonkeyPatch.context() as m:
        yield m


@pytest.fixture(scope="module")
def telegraph(tmp_path_factory, mp):
    cfg = checks.expected_config(os.path.join(ROOT, "configs/default.cfg"), ["engine.ramps=400"], 11)
    out = write_simulate(tmp_path_factory.mktemp("telegraph"), cfg, records_from(*telegraph_records()), mp)
    return out, cfg


@pytest.fixture(scope="module")
def bare(tmp_path_factory, mp):
    cfg = checks.expected_config(os.path.join(ROOT, "configs/bare_junction.cfg"), ["engine.ramps=1000"], 12)
    grid, density, _ = checks.read_master(REFERENCE, cli.output.extract_embedded_config(REFERENCE))
    currents = sample_inverse_cdf(np.random.default_rng(2), grid, density, 1000)
    out = write_simulate(tmp_path_factory.mktemp("bare"), cfg, records_from(currents, [0] * 1000), mp)
    return out, cfg, currents


def synthetic_distribution(cfg):
    """A two-peaked switching distribution on the oracle's grid."""
    lo, hi = checks.grid_limits_uA(cfg)
    grid = np.linspace(lo, hi - 1e-6 * cfg.I0_uA, checks.MASTER_ROWS)
    density = 0.3 * np.exp(-0.5 * ((grid - 35.60) / 0.01) ** 2) + 0.7 * np.exp(
        -0.5 * ((grid - 35.66) / 0.008) ** 2
    )
    density /= np.trapezoid(density, grid)
    cum = np.concatenate(([0.0], np.cumsum(0.5 * (density[1:] + density[:-1]) * np.diff(grid))))
    survival = np.clip(1.0 - cum, 0.0, 1.0)
    survival[survival < 1e-12] = 0.0
    return grid, density, np.minimum.accumulate(survival)


@pytest.fixture(scope="module")
def ensemble(tmp_path_factory, mp):
    overrides = ["drive.ramp_rate_uA_per_s=90000", "engine.trajectories=1000"]
    cfg = checks.expected_config(os.path.join(ROOT, "configs/default.cfg"), overrides, 13)
    grid, density, survival = synthetic_distribution(cfg)
    currents = sample_inverse_cdf(np.random.default_rng(3), grid, density, 1000)
    dist = oracle.SwitchingDistribution(grid * 1e-6, density * 1e6, survival)
    mp.setattr(cli, "_run_ensemble_records", lambda cfg, workers: records_from(currents, [0] * 1000))
    mp.setattr(oracle, "integrate_master", lambda *args, **kwargs: dist)
    out = tmp_path_factory.mktemp("ensemble")
    cli.cmd_ensemble(cfg, str(out), 1)
    return str(out), cfg


def copy(src, tmp_path) -> str:
    dst = os.path.join(str(tmp_path), "out")
    shutil.copytree(src, dst)
    return dst


def edit_rows(path, fn) -> None:
    """Apply fn to the data rows (lists of fields) of a CSV output."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    n_head = next(k for k, line in enumerate(lines) if not line.startswith("#")) + 1
    rows = fn([line.split(",") for line in lines[n_head:]])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines[:n_head] + [",".join(r) for r in rows]) + "\n")


def edit_text(path, old, new) -> None:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    assert old in text
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text.replace(old, new, 1))


def edit_summary(path, fn) -> None:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    fn(doc)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


# -- clean outputs pass ------------------------------------------------------


def test_clean_outputs_pass(telegraph, bare, ensemble):
    checks.check_simulate(*telegraph, 400)
    checks.check_simulate(bare[0], bare[1], 1000, REFERENCE)
    checks.check_ensemble(*ensemble, 1000)


# -- records.csv, labels.csv, summary.json -----------------------------------


def swap_first_indices(rows):
    rows[0][0], rows[1][0] = rows[1][0], rows[0][0]
    return rows


def set_field(col, value, row=3):
    def fn(rows):
        rows[row][col] = value
        return rows

    return fn


def flip_flag(rows):
    rows[5][2] = "1" if rows[5][2] == "0" else "0"
    return rows


def flip_label(rows):
    rows[7][1] = "lower" if rows[7][1] == "upper" else "upper"
    return rows


@pytest.mark.parametrize(
    "name, fn, match",
    [
        ("shuffled ramp_index", swap_first_indices, "ramp_index"),
        ("flag 2", set_field(2, "2"), "flag outside"),
        ("I_s below dc_start", set_field(1, "35.3"), "I_s outside"),
        ("fractional index", set_field(0, "3.5"), "non-integer"),
        ("dropped row", lambda rows: rows[:-1], "rows, expected"),
        ("flipped flag", flip_flag, "label_fidelity"),
    ],
)
def test_records_corruption_fails(telegraph, tmp_path, name, fn, match):
    out = copy(telegraph[0], tmp_path)
    edit_rows(os.path.join(out, "records.csv"), fn)
    with pytest.raises(checks.CheckError, match=match):
        checks.check_simulate(out, telegraph[1], 400)


def test_flipped_label_fails(telegraph, tmp_path):
    out = copy(telegraph[0], tmp_path)
    edit_rows(os.path.join(out, "labels.csv"), flip_label)
    with pytest.raises(checks.CheckError, match="labels disagree"):
        checks.check_simulate(out, telegraph[1], 400)


def test_missing_labels_fails(telegraph, tmp_path):
    out = copy(telegraph[0], tmp_path)
    os.remove(os.path.join(out, "labels.csv"))
    with pytest.raises(checks.CheckError, match="missing"):
        checks.check_simulate(out, telegraph[1], 400)


@pytest.mark.parametrize(
    "key, delta, match",
    [
        ("jumps", 1, "jumps"),
        ("mean_dwell_upper_ramps", 0.01, "mean_dwell_upper"),
        ("mean_dwell_ramps", 0.01, "mean_dwell_ramps"),
        ("mean_current_lower_uA", 1e-6, "mean_current_lower"),
        ("label_fidelity", -0.0025, "label_fidelity"),
        ("threshold_uA", 0.2, "threshold"),
    ],
)
def test_summary_corruption_fails(telegraph, tmp_path, key, delta, match):
    out = copy(telegraph[0], tmp_path)

    def fn(doc):
        doc["branches"][key] += delta

    edit_summary(os.path.join(out, "summary.json"), fn)
    with pytest.raises(checks.CheckError, match=match):
        checks.check_simulate(out, telegraph[1], 400)


def test_unimodal_sequence_with_labels_fails(tmp_path, monkeypatch):
    cfg = checks.expected_config(os.path.join(ROOT, "configs/default.cfg"), ["engine.ramps=50"], 4)
    currents = 35.6 + 0.002 * np.random.default_rng(5).standard_normal(50)
    out = write_simulate(tmp_path / "uni", cfg, records_from(currents, [0] * 50), monkeypatch)
    checks.check_simulate(out, cfg, 50)
    shutil.copy(os.path.join(out, "records.csv"), os.path.join(out, "labels.csv"))
    with pytest.raises(checks.CheckError, match="unimodal"):
        checks.check_simulate(out, cfg, 50)


@pytest.mark.parametrize(
    "old, new, match",
    [
        ("# config: ramps = 400", "# config: ramps = 401", "round-trip"),
        ("# config: coupling_MHz = 200", "# config: coupling_MHz = 201", "round-trip"),
        ("# master_seed = 11", "# master_seed = 12", "seed"),
        ("# jjswitch simulate", "# jjswitch ensemble", "header"),
    ],
)
def test_header_corruption_fails(telegraph, tmp_path, old, new, match):
    out = copy(telegraph[0], tmp_path)
    edit_text(os.path.join(out, "records.csv"), old, new)
    with pytest.raises(checks.CheckError, match=match):
        checks.check_simulate(out, telegraph[1], 400)


def test_summary_seed_mismatch_fails(telegraph, tmp_path):
    out = copy(telegraph[0], tmp_path)
    edit_summary(os.path.join(out, "summary.json"), lambda doc: doc.update(master_seed=12))
    with pytest.raises(checks.CheckError, match="master_seed"):
        checks.check_simulate(out, telegraph[1], 400)


# -- bare junction: independence and the oracle reference --------------------


def test_sorted_bare_sequence_fails(bare, tmp_path, monkeypatch):
    out, cfg, currents = bare
    out = write_simulate(tmp_path / "sorted", cfg, records_from(np.sort(currents), [0] * 1000), monkeypatch)
    with pytest.raises(checks.CheckError, match="branch changes"):
        checks.check_simulate(out, cfg, 1000, REFERENCE)


def test_shifted_bare_histogram_fails(bare, tmp_path, monkeypatch):
    out, cfg, currents = bare
    out = write_simulate(tmp_path / "shifted", cfg, records_from(currents + cfg.bin_width_uA, [0] * 1000), monkeypatch)
    with pytest.raises(checks.CheckError, match="TV to the oracle"):
        checks.check_simulate(out, cfg, 1000, REFERENCE)


def test_flag_in_bare_run_fails(bare, tmp_path, monkeypatch):
    out, cfg, currents = bare
    flags = [0] * 1000
    flags[5] = 1
    out = write_simulate(tmp_path / "flag", cfg, records_from(currents, flags), monkeypatch)
    with pytest.raises(checks.CheckError, match="flag is set"):
        checks.check_simulate(out, cfg, 1000, REFERENCE)


def test_reference_for_other_config_fails(bare, tmp_path):
    ref = os.path.join(str(tmp_path), "ref.csv")
    shutil.copy(REFERENCE, ref)
    edit_text(ref, "# config: rabi_MHz = 2", "# config: rabi_MHz = 3")
    with pytest.raises(checks.CheckError, match="another config"):
        checks.check_simulate(bare[0], bare[1], 1000, ref)


def test_branch_change_bound_covers_independent_labels():
    rng = np.random.default_rng(7)
    for q in (0.1, 0.5, 0.8):
        upper = rng.uniform(size=(2000, 1000)) < q
        jumps = (upper[:, 1:] != upper[:, :-1]).sum(axis=1)
        mean, half = checks.branch_change_bound(1000, q)
        assert abs(jumps.mean() - mean) < 0.5
        # the bound is N_SIGMA standard deviations wide
        assert math.isclose(jumps.std(), (half - 1.0) / checks.N_SIGMA, rel_tol=0.1)


# -- histogram.csv, master.csv, summary.json ---------------------------------


def shift_bins(rows):
    w = 0.01
    return [[f"{float(lo) + w:.12g}", f"{float(hi) + w:.12g}", c] for lo, hi, c in rows]


def bump_count(rows):
    rows[0][2] = str(int(rows[0][2]) + 1)
    return rows


@pytest.mark.parametrize(
    "name, fn, match",
    [
        ("shifted bins", shift_bins, "TV to the oracle"),
        ("count + 1", bump_count, "counts sum"),
        ("gap between bins", set_field(0, "35.0", row=2), "contiguous"),
    ],
)
def test_histogram_corruption_fails(ensemble, tmp_path, name, fn, match):
    out = copy(ensemble[0], tmp_path)
    edit_rows(os.path.join(out, "histogram.csv"), fn)
    with pytest.raises(checks.CheckError, match=match):
        checks.check_ensemble(out, ensemble[1], 1000)


def scale_density(factor):
    def fn(rows):
        return [[i, f"{float(d) * factor:.12g}", s] for i, d, s in rows]

    return fn


def raise_survival(rows):
    k = len(rows) // 2
    rows[k][2] = f"{float(rows[k - 1][2]) + 0.01:.12g}"
    return rows


@pytest.mark.parametrize(
    "name, fn, match",
    [
        ("truncated", lambda rows: rows[:-300], "rows, expected"),
        ("7.5e-3 conservation error", scale_density(1.0075), "final survival"),
        ("survival rises", raise_survival, "survival increases"),
        ("negative density", set_field(1, "-1e-3", row=10), "negative density"),
        ("survival above 1", set_field(2, "1.5", row=0), "survival outside"),
    ],
)
def test_master_corruption_fails(ensemble, tmp_path, name, fn, match):
    out = copy(ensemble[0], tmp_path)
    edit_rows(os.path.join(out, "master.csv"), fn)
    with pytest.raises(checks.CheckError, match=match):
        checks.check_ensemble(out, ensemble[1], 1000)


@pytest.mark.parametrize(
    "key, delta, match",
    [
        ("tv_distance", 1e-4, "tv_distance"),
        ("trajectories", 1, "trajectories"),
        ("histogram_mode_uA", 0.01, "histogram_mode"),
        ("master_mode_uA", 0.001, "master_mode"),
    ],
)
def test_ensemble_summary_corruption_fails(ensemble, tmp_path, key, delta, match):
    out = copy(ensemble[0], tmp_path)

    def fn(doc):
        doc[key] += delta

    edit_summary(os.path.join(out, "summary.json"), fn)
    with pytest.raises(checks.CheckError, match=match):
        checks.check_ensemble(out, ensemble[1], 1000)


# -- same seed, same bytes ---------------------------------------------------


def test_identical_outputs(telegraph, tmp_path):
    out = copy(telegraph[0], tmp_path)
    checks.check_identical(telegraph[0], out)
    with open(os.path.join(out, "records.csv"), "ab") as fh:
        fh.write(b" ")
    with pytest.raises(checks.CheckError, match="records.csv differs"):
        checks.check_identical(telegraph[0], out)
    os.remove(os.path.join(out, "labels.csv"))
    with pytest.raises(checks.CheckError, match="different files"):
        checks.check_identical(telegraph[0], out)

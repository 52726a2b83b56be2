"""Command-line entry points: simulate, ensemble, sweep, lz.

Each command loads a config file (all keys optional, lab units), applies
--set overrides, runs the requested simulation, and writes deterministic
CSV/JSON outputs into the output directory.  Fixed seed implies
byte-identical outputs, for any --workers count.

Output contract: a command owns the files OUTPUTS names (a sweep adds its
points' simulate files) and writes them into a `.jjswitch-*` stage in the
nearest existing directory on the output path (`output.staged`).  Success
replaces the files written and removes the declared ones not written; a
failure changes nothing, and only a killed process leaves a stage behind.

Exit codes: 0 success; an error exits with its class's code, tabled in
errors.py (2 configuration, 3 physics domain, 4 numerical tolerance).
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

from . import analysis, engine, output, rng
from .config import (
    RunConfig,
    apply_overrides,
    build_physics,
    load_config,
    validate_config,
    with_seed,
)
from .errors import ConfigError, JJSwitchError, UnimodalSequenceError
from .constants import HBAR
from .hamiltonian import PLAUSIBLE_COUPLING_RANGE, landau_zener_probability, sweep_rate
from .physics import resonance_current

OUTPUTS = {
    "simulate": ("records.csv", "labels.csv", "summary.json"),
    "ensemble": ("histogram.csv", "master.csv", "summary.json"),
    "sweep": ("sweep.csv", "summary.json"),
    "lz": ("summary.json",),
}


def _index_chunks(n: int, workers: int) -> list[tuple[int, int]]:
    span = max(1, (n + workers - 1) // workers)
    return [(lo, min(lo + span, n)) for lo in range(0, n, span)]


def _run_slice(job) -> list[list[engine.SwitchRecord]]:
    """Worker entry point: ramps [lo, hi) from each start flag, run as one
    batch on one grid, flag-major; one index-ordered list per flag."""
    cfg, flags, lo, hi = job
    idx = list(range(lo, hi))
    recs = engine.run_trajectories(
        *build_physics(cfg), [f for f in flags for _ in idx], idx * len(flags)
    )
    return [recs[k * len(idx) : (k + 1) * len(idx)] for k in range(len(flags))]


def _run_records(
    cfg: RunConfig, flags: tuple[int, ...], n: int, workers: int
) -> list[list[engine.SwitchRecord]]:
    """Ramps 0..n-1 started from each of flags: one index-ordered list per
    flag.  Ramp i draws on stream i whatever its flag.

    The index range is cut into one slice per worker, and there are no
    more workers than CPUs; slices run in this process or, with several,
    in a pool of fresh processes that receive the configuration itself.
    """
    workers = min(workers, os.cpu_count() or 1)
    jobs = [(cfg, flags, lo, hi) for lo, hi in _index_chunks(n, workers)]
    if len(jobs) == 1:
        parts = [_run_slice(jobs[0])]
    else:
        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=len(jobs), mp_context=spawn) as pool:
            parts = list(pool.map(_run_slice, jobs))
    return [[r for part in parts for r in part[k]] for k in range(len(flags))]


# One name per command, so tests (bench/test_checks.py) can stub the records
def _run_sequence_records(cfg: RunConfig, workers: int) -> list[engine.SwitchRecord]:
    """A telegraph sequence, chained from the flag variants of its ramps."""
    flags = (0, 1) if cfg.tls_enabled else (0,)
    return engine.fold_sequence(_run_records(cfg, flags, cfg.ramps, workers), cfg.init_flag)


def _run_ensemble_records(cfg: RunConfig, workers: int) -> list[engine.SwitchRecord]:
    return _run_records(cfg, (0,), cfg.trajectories, workers)[0]


def _branch_summary(records) -> tuple[dict, object]:
    """Classify the records; on a unimodal sequence report that instead."""
    try:
        stats = analysis.classify_branches(records)
    except UnimodalSequenceError as exc:
        return {"bimodal": False, "reason": str(exc)}, None
    fidelity = analysis.label_fidelity(records, stats)
    summary = {
        "bimodal": True,
        "threshold_uA": stats.threshold * 1e6,
        "jumps": stats.jumps,
        "mean_dwell_upper_ramps": stats.mean_dwell_upper,
        "mean_dwell_lower_ramps": stats.mean_dwell_lower,
        "mean_dwell_ramps": stats.mean_dwell,
        "mean_current_upper_uA": stats.mean_current_upper * 1e6,
        "mean_current_lower_uA": stats.mean_current_lower * 1e6,
        "label_fidelity": fidelity,
    }
    return summary, stats


def cmd_simulate(cfg: RunConfig, out_dir: str, workers: int) -> dict:
    """Telegraph run: records.csv, labels.csv (when bimodal), summary.json."""
    records = _run_sequence_records(cfg, workers)
    output.ensure_dir(out_dir)
    output.write_csv(
        os.path.join(out_dir, "records.csv"),
        cfg,
        "simulate",
        ("ramp_index", "I_s_uA", "flag", "n_relax_events"),
        (
            (r.ramp_index, r.switching_current * 1e6, r.flag_at_switch, r.n_relax_events)
            for r in records
        ),
    )
    branch, stats = _branch_summary(records)
    if stats is not None:
        output.write_csv(
            os.path.join(out_dir, "labels.csv"),
            cfg,
            "simulate",
            ("ramp_index", "branch"),
            ((r.ramp_index, label) for r, label in zip(records, stats.labels)),
        )
    summary = {"ramps": len(records), "branches": branch}
    output.write_summary(os.path.join(out_dir, "summary.json"), cfg, "simulate", summary)
    return summary


def cmd_ensemble(cfg: RunConfig, out_dir: str, workers: int) -> dict:
    """Independent-ramp ensemble vs the master equation: histogram.csv,
    master.csv, TV distance in summary.json."""
    p, tls, d, ecfg = build_physics(cfg)
    records = _run_ensemble_records(cfg, workers)
    hist = analysis.histogram(records, cfg.bin_width_uA * 1e-6, d.dc_start)
    from . import oracle  # only this command needs it: simulate starts sooner

    dist = oracle.integrate_master(p, tls, d, frame=ecfg.frame)
    tv = oracle.distribution_distance(hist, dist)
    output.write_csv(
        os.path.join(out_dir, "histogram.csv"),
        cfg,
        "ensemble",
        ("bin_lo_uA", "bin_hi_uA", "count"),
        (
            (lo * 1e6, hi * 1e6, int(c))
            for lo, hi, c in zip(hist.bin_edges[:-1], hist.bin_edges[1:], hist.counts)
        ),
    )
    output.write_csv(
        os.path.join(out_dir, "master.csv"),
        cfg,
        "ensemble",
        ("I_uA", "density_per_uA", "survival"),
        (
            (i * 1e6, rho * 1e-6, s)
            for i, rho, s in zip(dist.grid, dist.density, dist.survival)
        ),
    )
    summary = {
        "trajectories": len(records),
        "tv_distance": tv,
        "histogram_mode_uA": float(hist.bin_centers[hist.counts.argmax()] * 1e6),
        "master_mode_uA": float(dist.grid[dist.density.argmax()] * 1e6),
    }
    output.write_summary(os.path.join(out_dir, "summary.json"), cfg, "ensemble", summary)
    return summary


def _point_dir(axis: str, value: float) -> str:
    return f"{axis}_{output.fmt(value)}"


def cmd_sweep(cfg: RunConfig, out_dir: str, workers: int, axis: str, values: list[float]) -> dict:
    """Repeat simulate across a parameter axis with per-value derived seeds."""
    points = {}  # point directory -> (value, config)
    for k, value in enumerate(values):
        name = _point_dir(axis, value)
        if name in points:
            raise ConfigError(
                f"sweep values {points[name][0]!r} and {value!r} "
                f"share the point directory {name}"
            )
        sub = with_seed(cfg, rng.derive_seed(cfg.master_seed, k))
        if axis == "rabi_MHz":
            sub.rabi_MHz, sub.I_uw_nA = value, None
        else:
            sub.ramp_rate_uA_per_s = value
        validate_config(sub)
        build_physics(sub)
        points[name] = value, sub
    rows = []
    for name, (value, sub) in points.items():
        summary = cmd_simulate(sub, os.path.join(out_dir, name), workers)
        b = summary["branches"]
        rows.append(
            (
                value,
                b.get("mean_dwell_upper_ramps", float("nan")),
                b.get("mean_dwell_lower_ramps", float("nan")),
                b.get("jumps", 0),
                b.get("mean_current_upper_uA", float("nan")),
                b.get("mean_current_lower_uA", float("nan")),
            )
        )
    output.write_csv(
        os.path.join(out_dir, "sweep.csv"),
        cfg,
        "sweep",
        ("value", "mean_dwell_upper", "mean_dwell_lower", "jumps", "mean_Is_upper", "mean_Is_lower"),
        rows,
    )
    summary = {"axis": axis, "values": values}
    output.write_summary(os.path.join(out_dir, "summary.json"), cfg, "sweep", summary)
    return summary


def cmd_lz(cfg: RunConfig, out_dir: str, workers: int) -> dict:
    """Landau-Zener report: the closed form P_LZ at the junction-TLS
    crossing beside the engine's own crossing.  engine.trajectories ramps
    run undriven and with eta = 0, each started in flag 1 (|0e>), so the
    share still in flag 1 at switching is the diabatic survival; ramps
    that switch below the crossing current never reach it.  They fan out
    like any other ramps; the crossing and P_LZ take the config as given."""
    p, tls, d, _ = build_physics(cfg)
    if tls is None:
        raise ConfigError("lz needs tls.enabled = true")
    i_cross = resonance_current(p, tls.omega_tls, "g")
    v = sweep_rate(p, tls, d)
    p_lz = landau_zener_probability(tls.coupling, v)
    n = cfg.trajectories
    undriven = replace(cfg, rabi_MHz=0.0, I_uw_nA=None, eta=0.0)
    recs = _run_records(undriven, (1,), n, workers)[0]
    share = sum(r.flag_at_switch for r in recs) / n
    lo, hi = PLAUSIBLE_COUPLING_RANGE
    summary = {
        "crossing_current_uA": i_cross * 1e6,
        "sweep_rate_J_per_s": v,
        "lz_exponent": 2.0 * math.pi * (tls.coupling**2) * HBAR / v,
        "p_lz_closed_form": p_lz,
        "p_flag1_engine": share,
        "p_flag1_stderr": math.sqrt(share * (1.0 - share) / n),
        "switched_before_crossing": sum(r.switching_current < i_cross for r in recs) / n,
        "trajectories": n,
        "coupling_in_plausible_range": lo * (1 - 1e-9) <= tls.coupling <= hi * (1 + 1e-9),
    }
    output.write_summary(os.path.join(out_dir, "summary.json"), cfg, "lz", summary)
    for key, val in summary.items():
        print(f"{key}: {output.fmt(val)}")
    return summary


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="jjswitch",
        description="Quantum-jump simulation of Josephson-junction switching currents",
    )
    ap.add_argument("--verbose", action="store_true", help="log applied defaults")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("simulate", "telegraph sequence of consecutive ramps"),
        ("ensemble", "independent ramps vs the master equation"),
        ("sweep", "repeat simulate along a parameter axis"),
        ("lz", "engine's junction-TLS crossing vs the Landau-Zener closed form"),
    ):
        cp = sub.add_parser(name, help=help_text)
        cp.add_argument("--config", default=None, help="config file path")
        cp.add_argument("--seed", type=int, default=None, help="override master seed")
        cp.add_argument("--workers", type=int, default=1, help="worker processes")
        cp.add_argument("--out", default=None, help="output directory")
        cp.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="section.key=value",
            help="override a config key",
        )
        if name == "sweep":
            cp.add_argument("--axis", required=True, choices=("rabi_MHz", "ramp_rate"))
            cp.add_argument(
                "--values", required=True, help="comma-separated axis values"
            )
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        if args.workers < 1:
            raise ConfigError("--workers must be >= 1")
        cfg = load_config(args.config)
        cfg = apply_overrides(cfg, args.set)
        if args.seed is not None:
            cfg = with_seed(cfg, args.seed)
        out_dir = args.out if args.out is not None else cfg.directory
        names, sweep = list(OUTPUTS[args.command]), ()
        if args.command == "sweep":
            try:
                values = [float(v) for v in args.values.split(",") if v.strip()]
            except ValueError as exc:
                raise ConfigError(f"--values must be comma-separated numbers: {exc}") from None
            if not values:
                raise ConfigError("--values must list at least one number")
            sweep = args.axis, values
            names += [
                os.path.join(_point_dir(args.axis, v), f) for v in values for f in OUTPUTS["simulate"]
            ]
        run = {"simulate": cmd_simulate, "ensemble": cmd_ensemble, "sweep": cmd_sweep, "lz": cmd_lz}
        with output.staged(out_dir, names) as stage:
            run[args.command](cfg, stage, args.workers, *sweep)
        return 0
    except JJSwitchError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())

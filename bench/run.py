"""Benchmark of the jjswitch CLI: end-to-end metrics, or per-layer ones.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program runs from `src/`, with
nothing installed.  Each command runs in a fresh process with BLAS and
OpenMP pinned to one thread and `--workers 1`; its outputs are checked
(checks.py) after the timed part.  The master seed of every command is N.

--trace 0: one discarded setup-only launch warms the file and bytecode
caches; then max(1, S // nominal_s) rounds of the workload's command give
wall_s, cpu_s, records_per_s and peak_rss_mb (medians over rounds), and
SETUP_LAUNCHES timed setup-only launches, spread before and after the
rounds, give setup_s (their median).  Rounds after the
first must reproduce the first round's files byte for byte.

--trace 1: one untraced command, then traced.py on the same seed, whose
files must equal the command's byte for byte.  Prints the per-layer
metrics and the tracing overhead.

The last line of standard output is one JSON object: correct, attempted,
failed, metrics.  Exit code 2, with no result, when the checkout holds no
jjswitch sources or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

SETUP_LAUNCHES = 3
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

# What every command does before simulating: interpreter start, the CLI's
# imports, and load_config + apply_overrides + build_physics.
SETUP_CODE = """
import sys
import jjswitch.cli
from jjswitch import config
cfg = config.apply_overrides(config.load_config(sys.argv[1]), sys.argv[3:])
config.build_physics(config.with_seed(cfg, int(sys.argv[2])))
"""

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "records_per_s": "1/s",
    "peak_rss_mb": "MiB",
}


class Launcher:
    """Spawns children from the checkout root and measures each one."""

    def __init__(self, root: str, work: str):
        self.root = root
        self.work = work
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "")
        self.env.update({name: "1" for name in THREAD_VARS})
        self.env["PYTHONHASHSEED"] = "0"
        self.launches = 0

    def run(self, args: list[str]) -> dict:
        """Run `python3 args`; wall time from spawn to exit, CPU time and
        peak RSS from the child's own resource usage."""
        self.launches += 1
        log = os.path.join(self.work, f"launch-{self.launches}.log")
        with open(log, "wb") as fh:
            t0 = time.perf_counter()
            # traced.py starts its import span at this instant
            env = dict(self.env, BENCH_SPAWN_S=repr(t0))
            proc = subprocess.Popen(
                [sys.executable, *args],
                cwd=self.root,
                env=env,
                stdout=fh,
                stderr=subprocess.STDOUT,
            )
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        cpu = usage.ru_utime + usage.ru_stime
        print(
            f"launch {self.launches}: {args[0] if args[0] != '-c' else 'setup'}"
            f" exit {proc.returncode} wall {wall:.3f} s cpu {cpu:.3f} s",
            file=sys.stderr,
        )
        return {
            "ok": proc.returncode == 0,
            "log": log,
            "wall_s": wall,
            "cpu_s": cpu,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB
        }


def setup_args(w, seed: int) -> list[str]:
    return ["-c", SETUP_CODE, w.config, str(seed), *w.overrides]


def last_json_line(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().strip().splitlines()
    return json.loads(lines[-1])


class Outcome:
    """Operations attempted and failed, and whether every check held."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def command(self, launcher: Launcher, args: list[str]) -> dict | None:
        self.attempted += 1
        result = launcher.run(args)
        if not result["ok"]:
            self.failed += 1
            print(f"operation failed, see {result['log']}", file=sys.stderr)
            return None
        return result

    def check(self, fn, *args) -> None:
        from checks import CheckError

        try:
            fn(*args)
        except CheckError as exc:
            self.correct = False
            print(f"check failed: {exc}", file=sys.stderr)


def check_outputs(outcome: Outcome, w, cfg, out_dir: str) -> None:
    import checks

    if w.command == "simulate":
        outcome.check(checks.check_simulate, out_dir, cfg, w.n, w.reference)
    else:
        outcome.check(checks.check_ensemble, out_dir, cfg, w.n)


def untraced(w, seed: int, seconds: int, launcher: Launcher, outcome: Outcome, cfg) -> dict:
    n_rounds = max(1, int(seconds // w.nominal_s))
    setups = []
    launched = 0

    def time_setup(count: int) -> None:
        nonlocal launched
        for _ in range(count):
            launched += 1
            r = outcome.command(launcher, setup_args(w, seed))
            if r is not None:
                setups.append(r["wall_s"])

    rounds = []
    first_out = None
    for k in range(n_rounds):
        # setup launches are spread over the run, before every round and
        # after the last, so one slow spell of the machine sways few of them
        time_setup(SETUP_LAUNCHES // (n_rounds + 1))
        out_dir = os.path.join(launcher.work, f"out-{k}")
        r = outcome.command(launcher, w.cli_args(seed, out_dir))
        if r is None:
            continue
        rounds.append(r)
        check_outputs(outcome, w, cfg, out_dir)
        if first_out is None:
            first_out = out_dir
        else:
            import checks

            outcome.check(checks.check_identical, first_out, out_dir)
    time_setup(SETUP_LAUNCHES - launched)
    if not setups or not rounds:
        return {}
    setup = statistics.median(setups)
    return {
        "wall_s": statistics.median(r["wall_s"] for r in rounds),
        "setup_s": setup,
        "cpu_s": statistics.median(r["cpu_s"] for r in rounds),
        "records_per_s": statistics.median(w.n / (r["wall_s"] - setup) for r in rounds),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }


PER_LAYER = {
    "setup.import_s": "s",
    "config.build_s": "s",
    "engine.grid.plan_s": "s",
    "engine.grid.steps": "count",
    "engine.grid.mb": "MiB",
    "engine.prop.build_s": "s",
    "engine.prop.ns_per_step": "ns",
    "engine.step.self_s": "s",
    "engine.step.grid_steps": "count",
    "engine.step.us_per_grid_step": "us",
    "engine.step.traj_steps": "count",
    "engine.step.ns_per_traj_step": "ns",
    "engine.step.live_ratio": "ratio",
    "rng.ns_per_draw": "ns",
    "oracle.integrate_s": "s",
    "oracle.rhs_calls": "count",
    "oracle.us_per_rhs": "us",
    "analysis.s": "s",
    "output.write_s": "s",
    "trace.overhead_s": "s",
    "trace.wall_delta_s": "s",
    "trace.unaccounted_s": "s",
}


def traced(w, seed: int, launcher: Launcher, outcome: Outcome, cfg) -> dict:
    import checks

    plain_out = os.path.join(launcher.work, "out-plain")
    plain = outcome.command(launcher, w.cli_args(seed, plain_out))
    if plain is not None:
        check_outputs(outcome, w, cfg, plain_out)
    traced_out = os.path.join(launcher.work, "out-traced")
    run = outcome.command(launcher, [os.path.join(HERE, "traced.py"), w.name, str(seed), traced_out])
    if plain is None or run is None:
        return {}
    outcome.check(checks.check_identical, plain_out, traced_out)
    t = last_json_line(run["log"])
    span = t["self_s"]
    step_self = span["trajectories"]
    rhs = t["rhs_calls"]
    # the traced command's wall time: the counting done between spans is
    # not part of it
    traced_wall = run["wall_s"] - t["post_s"]
    return {
        "setup.import_s": t["import_s"],
        "config.build_s": span["config"],
        "engine.grid.plan_s": span["plan"],
        "engine.grid.steps": t["grid_steps"],
        "engine.grid.mb": t["grid_bytes"] / 2**20,
        "engine.prop.build_s": span["prop"],
        "engine.prop.ns_per_step": span["prop"] / t["prop_steps"] * 1e9,
        "engine.step.self_s": step_self,
        "engine.step.grid_steps": t["step_grid_steps"],
        "engine.step.us_per_grid_step": step_self / t["step_grid_steps"] * 1e6,
        "engine.step.traj_steps": t["step_traj_steps"],
        "engine.step.ns_per_traj_step": step_self / t["step_traj_steps"] * 1e9,
        "engine.step.live_ratio": t["step_traj_steps"] / t["stepped_rows"],
        "rng.ns_per_draw": t["rng_s_per_draw"] * 1e9,
        "oracle.integrate_s": span["oracle"],
        "oracle.rhs_calls": rhs,
        "oracle.us_per_rhs": span["oracle"] / max(rhs, 1) * 1e6,
        "analysis.s": span["analysis"],
        "output.write_s": span["output"],
        "trace.overhead_s": t["span_calls"] * t["s_per_span"],
        "trace.wall_delta_s": traced_wall - plain["wall_s"],
        "trace.unaccounted_s": traced_wall - t["import_s"] - sum(span.values()),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "jjswitch", "cli.py")):
        print(f"{root} holds no jjswitch sources (src/jjswitch); run from the repository root", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    sys.path.insert(0, os.path.join(root, "src"))
    import checks

    cfg = checks.expected_config(w.config, w.overrides, args.seed)
    work = os.path.join(root, ".bench_out", f"{w.name}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    launcher = Launcher(root, work)
    outcome = Outcome()
    launcher.run(setup_args(w, args.seed))  # warm-up, discarded
    if args.trace:
        values, units = traced(w, args.seed, launcher, outcome, cfg), PER_LAYER
    else:
        values, units = untraced(w, args.seed, args.seconds, launcher, outcome, cfg), END_TO_END
    if outcome.correct and not outcome.failed:
        shutil.rmtree(work, ignore_errors=True)
    result = {
        "correct": outcome.correct and bool(values),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items() if name in values},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

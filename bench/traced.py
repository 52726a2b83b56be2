"""Traced run of one workload: the CLI command, timed layer by layer.

    python3 bench/traced.py WORKLOAD SEED OUT_DIR

Replaces the module attributes that `jjswitch simulate` / `ensemble` call
with timing wrappers, then runs `jjswitch.cli.main` in this process with the
workload's arguments.  The spans therefore follow whatever the command does,
and the files it writes are the command's own.  Each span keeps its self
time: its duration minus the spans nested inside it.  Counts that need the
records (switching steps) are taken outside every span, as is a probe of
`rng.uniform_at` at the workload's batch size after the command.  The last
line of standard output is one JSON object.

If the parent sets BENCH_SPAWN_S to its `time.perf_counter()` at spawn (a
system-wide monotonic clock on Linux), the import span starts there and so
includes interpreter start.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

from jjswitch import analysis, cli, engine, oracle, output, rng  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

IMPORTED = time.perf_counter()

# span name -> the module attributes the command calls for that layer
SPANS = {
    "config": [(cli, n) for n in ("load_config", "apply_overrides", "with_seed", "build_physics")],
    "trajectories": [(engine, "fold_sequence")],
    "analysis": [
        (analysis, "histogram"),
        (analysis, "classify_branches"),
        (analysis, "label_fidelity"),
        (oracle, "distribution_distance"),
    ],
    "oracle": [(oracle, "integrate_master")],
    "output": [(output, n) for n in ("ensure_dir", "write_csv", "write_summary")],
}


class Tracer:
    """Self seconds per span name, and the work counts the spans see."""

    def __init__(self):
        self.self_s: dict[str, float] = {}
        self.calls = 0
        self.post_s = 0.0  # counting done between spans, kept out of them
        self._open: list[list[float]] = []  # seconds of child spans, per open span
        self.grid_steps = 0
        self.grid_bytes = 0
        self.prop_steps = 0
        self.rhs_calls = 0
        self.batch = 0
        self.step_grid_steps = 0
        self.traj_steps = 0
        self.stepped_rows = 0

    def wrap(self, name: str, fn):
        def timed(*args, **kwargs):
            self.calls += 1
            self._open.append([0.0])
            t = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t
                child = self._open.pop()[0]
                self.self_s[name] = self.self_s.get(name, 0.0) + dt - child
                if self._open:
                    self._open[-1][0] += dt

        return timed

    def outside_spans(self, fn, *args) -> None:
        t = time.perf_counter()
        fn(*args)
        dt = time.perf_counter() - t
        self.post_s += dt
        if self._open:
            self._open[-1][0] += dt

    def measure_grid(self, grid) -> None:
        """Grid size, and the computed bytes of its per-step arrays."""
        self.grid_steps = max(self.grid_steps, grid.n_steps)
        self.grid_bytes = max(
            self.grid_bytes,
            sum(
                v.nbytes
                for v in vars(grid).values()
                if isinstance(v, np.ndarray) and v.shape[:1] == (grid.n_steps,)
            ),
        )

    def count_steps(self, grid, recs) -> None:
        """The steps the batch walked: every trajectory steps until its
        switching step, found on the grid from its current."""
        current = np.array([r.switching_current for r in recs])
        step = np.searchsorted(grid.I_end, current)
        if not np.array_equal(grid.I_end[step], current):
            raise SystemExit("a switching current is not on the ramp grid")
        self.batch = max(self.batch, len(recs))
        self.step_grid_steps += int(step.max()) + 1
        self.traj_steps += int((step + 1).sum())
        self.stepped_rows += len(recs) * (int(step.max()) + 1)


def install(tracer: Tracer) -> None:
    """Put the timing wrappers in place of the attributes the command uses."""
    for name, targets in SPANS.items():
        for module, attr in targets:
            setattr(module, attr, tracer.wrap(name, getattr(module, attr)))

    plan = tracer.wrap("plan", engine.RampGrid.__init__)
    prop = tracer.wrap("prop", engine.RampGrid.propagator_chunk)
    grids = []  # built during the current run_trajectories call

    class TimedGrid(engine.RampGrid):
        def __init__(self, *args, **kwargs):
            plan(self, *args, **kwargs)
            grids.append(self)
            tracer.outside_spans(tracer.measure_grid, self)

        def propagator_chunk(self, lo, hi):
            tracer.prop_steps += hi - lo
            return prop(self, lo, hi)

    engine.RampGrid = TimedGrid

    run = tracer.wrap("trajectories", engine.run_trajectories)

    def run_trajectories(*args, **kwargs):
        grids.clear()
        recs = run(*args, **kwargs)
        grid = kwargs.get("grid", args[7] if len(args) > 7 else None)
        if grid is None:
            grid = grids[-1]
        tracer.outside_spans(tracer.count_steps, grid, recs)
        return recs

    engine.run_trajectories = run_trajectories

    solve = oracle.solve_ivp

    def counted_solve(*args, **kwargs):
        sol = solve(*args, **kwargs)
        tracer.rhs_calls += int(sol.nfev)
        return sol

    oracle.solve_ivp = counted_solve


def span_cost(n: int = 20000) -> float:
    """Seconds one wrapped call adds, from n calls of a no-op."""
    noop = lambda: None  # noqa: E731
    wrapped = Tracer().wrap("x", noop)
    totals = []
    for fn in (noop, wrapped):
        t = time.perf_counter()
        for _ in range(n):
            fn()
        totals.append(time.perf_counter() - t)
    return max(totals[1] - totals[0], 0.0) / n


def rng_probe(seed: int, batch: int) -> float:
    """Seconds per uniform drawn by `rng.uniform_at` at the given batch
    size: median of five blocks."""
    keys = rng.stream_keys(seed, np.arange(batch))
    calls = max(200, 400_000 // batch)
    block = []
    for _ in range(5):
        start = time.perf_counter()
        for c in range(calls):
            rng.uniform_at(keys, c)
        block.append((time.perf_counter() - start) / (calls * batch))
    return sorted(block)[2]


def main(name: str, seed: int, out_dir: str) -> dict:
    w = WORKLOADS[name]
    spawn = float(os.environ.get("BENCH_SPAWN_S", START))
    tracer = Tracer()
    install(tracer)
    status = cli.main(w.cli_args(seed, out_dir)[2:])  # after "-m jjswitch"
    if status != 0:
        raise SystemExit(f"jjswitch {w.command} exited with {status}")
    if "oracle" not in tracer.self_s:
        # the command never called the oracle: its span reads the cost of
        # one empty span, so the metric stays a measured time
        tracer.wrap("oracle", lambda: None)()
    t = time.perf_counter()
    s_per_draw = rng_probe(seed, tracer.batch)
    cost = span_cost()
    tracer.post_s += time.perf_counter() - t
    return {
        "import_s": IMPORTED - spawn,
        "self_s": tracer.self_s,
        "post_s": tracer.post_s,
        "span_calls": tracer.calls,
        "s_per_span": cost,
        "grid_steps": tracer.grid_steps,
        "grid_bytes": tracer.grid_bytes,
        "prop_steps": tracer.prop_steps,
        "step_grid_steps": tracer.step_grid_steps,
        "step_traj_steps": tracer.traj_steps,
        "stepped_rows": tracer.stepped_rows,
        "rng_s_per_draw": s_per_draw,
        "rhs_calls": tracer.rhs_calls,
    }


if __name__ == "__main__":
    if len(sys.argv) != 4 or sys.argv[1] not in WORKLOADS:
        sys.exit(f"usage: {sys.argv[0]} {{{','.join(WORKLOADS)}}} SEED OUT_DIR")
    print(json.dumps(main(sys.argv[1], int(sys.argv[2]), sys.argv[3])))

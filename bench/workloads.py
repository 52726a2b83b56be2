"""The benchmark's workloads: which CLI command runs on which input.

All run with one worker on a shipped RWA config.  See README.md for why
each was chosen and which layer it loads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "simulate" or "ensemble"
    config: str  # path relative to the repository root
    overrides: tuple[str, ...]  # --set section.key=value
    n: int  # records written: ramps (simulate) or trajectories (ensemble)
    # Seconds one command takes on the reference 2-core box.  A run of
    # --seconds S makes max(1, S // nominal_s) rounds, so the work per run
    # is fixed and does not grow when the program gets faster.
    nominal_s: float
    # Stored oracle distribution the records must match (no-TLS configs).
    reference: Optional[str] = None

    def cli_args(self, seed: int, out_dir: str) -> list[str]:
        args = ["-m", "jjswitch", self.command, "--config", self.config]
        args += ["--seed", str(seed), "--workers", "1", "--out", out_dir]
        for item in self.overrides:
            args += ["--set", item]
        return args


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "telegraph",
            "simulate",
            "configs/default.cfg",
            ("engine.ramps=64",),
            n=64,
            nominal_s=45.0,
        ),
        Workload(
            "bare-wide",
            "simulate",
            "configs/bare_junction.cfg",
            ("engine.ramps=1500",),
            n=1500,
            nominal_s=22.0,
            reference="bench/reference/bare_junction_master.csv",
        ),
        Workload(
            "ensemble-fastramp",
            "ensemble",
            "configs/default.cfg",
            ("drive.ramp_rate_uA_per_s=90000", "engine.trajectories=2000"),
            n=2000,
            nominal_s=31.0,
        ),
    )
}

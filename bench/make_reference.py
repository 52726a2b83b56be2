"""Regenerate the stored oracle reference for the bare-junction config.

The `bare-wide` workload compares its switching-current histogram with the
master-equation distribution of the shipped `configs/bare_junction.cfg`.
Integrating that distribution takes about 100 s, too long to repeat in every
run, so it is stored once, in the same format as the `master.csv` that
`jjswitch ensemble` writes.  Run from the repository root:

    python3 bench/make_reference.py
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from jjswitch import config, oracle, output  # noqa: E402

CONFIG = "configs/bare_junction.cfg"
REFERENCE = os.path.join(HERE, "reference", "bare_junction_master.csv")


def main() -> int:
    cfg = config.load_config(CONFIG)
    p, tls, d, ecfg = config.build_physics(cfg)
    dist = oracle.integrate_master(p, tls, d, frame=ecfg.frame)
    output.write_csv(
        REFERENCE,
        cfg,
        "ensemble",
        ("I_uA", "density_per_uA", "survival"),
        (
            (i * 1e6, rho * 1e-6, s)
            for i, rho, s in zip(dist.grid, dist.density, dist.survival)
        ),
    )
    print(f"wrote {REFERENCE}: switched mass {dist.switched_mass():.6f}, "
          f"final survival {dist.survival[-1]:.3g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

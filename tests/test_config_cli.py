"""Config grammar, validation, CLI commands, and output reproducibility."""

import json
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from jjswitch.cli import main
from jjswitch.config import (
    apply_overrides,
    build_physics,
    config_text,
    effective_dimension,
    load_config,
    parse_config_text,
    resolved_items,
)
from jjswitch.errors import ConfigError, PhysicsDomainError, StepSizeError
from jjswitch.oracle import integrate_master
from jjswitch.output import EMBED_PREFIX, extract_embedded_config

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SHIPPED = ["default.cfg", "bare_junction.cfg", "lz_midregime.cfg"]
REFERENCE = os.path.join(ROOT, "bench", "reference", "bare_junction_master.csv")

# Full physics but an artificially fast ramp: grids of a few thousand steps,
# so end-to-end command tests stay quick.
FAST_TELEGRAPH = """
[junction]
eta = 0.005
[drive]
rabi_MHz = 10.0
ramp_rate_uA_per_s = 2.0e5
dc_start_uA = 35.55
[engine]
ramps = 40
trajectories = 60
master_seed = 777
"""

FAST_BARE = """
[tls]
enabled = false
[drive]
rabi_MHz = 0.0
ramp_rate_uA_per_s = 2.0e5
dc_start_uA = 35.55
[engine]
trajectories = 80
master_seed = 777
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestConfigParsing:
    def test_empty_gives_reference_defaults(self):
        cfg = parse_config_text("")
        assert cfg.I0_uA == 35.9
        assert cfg.C_pF == 4.0
        assert cfg.R_kOhm == pytest.approx(416.6667, rel=1e-4)
        assert cfg.T_K == 0.018
        assert cfg.f_drive_GHz == 9.02
        assert cfg.f_TLS_GHz == 8.7
        assert cfg.coupling_MHz == 200.0
        assert cfg.rabi_MHz == 10.0
        assert cfg.ramp_rate_uA_per_s == 4.5e3
        assert cfg.tls_enabled is True
        assert effective_dimension(cfg) == 4
        assert "junction.I0_uA" in cfg.defaulted

    def test_gamma10_default_matches_paper_rate(self):
        cfg = parse_config_text("")
        p, _, _, _ = build_physics(cfg)
        from jjswitch.physics import relaxation_rate

        assert relaxation_rate(p, 35.6e-6) == pytest.approx(0.6e6, rel=1e-5)

    def test_parse_error_carries_line_number(self):
        with pytest.raises(ConfigError, match=":3"):
            parse_config_text("[junction]\nI0_uA = 35.9\nI0_uA 36\n")

    def test_unknown_key_and_section(self):
        with pytest.raises(ConfigError, match="unknown key junction.bogus"):
            parse_config_text("[junction]\nbogus = 1\n")
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config_text("[junk]\nx = 1\n")

    def test_validation_names_key(self):
        with pytest.raises(ConfigError, match="eta"):
            parse_config_text("[junction]\neta = -0.1\n")

    def test_non_finite_floats_refused(self):
        """nan and +-inf in any float key, from a file or from --set."""
        defaults = parse_config_text("")
        floats = [(s, k) for s, k, v in resolved_items(defaults) if isinstance(v, float)]
        assert len(floats) == 15
        for section, key in floats + [("drive", "I_uw_nA")]:
            for value in ("nan", "inf", "-inf"):
                message = f"config key {section}.{key}: must be finite"
                with pytest.raises(ConfigError, match=message):
                    parse_config_text(f"[{section}]\n{key} = {value}\n")
                with pytest.raises(ConfigError, match=message):
                    apply_overrides(parse_config_text(""), [f"{section}.{key}={value}"])

    def test_rabi_and_amplitude_exclusive(self):
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config_text("[drive]\nrabi_MHz = 10\nI_uw_nA = 0.4\n")

    def test_amplitude_only_accepted(self):
        cfg = parse_config_text("[drive]\nI_uw_nA = 0.43\n")
        assert cfg.rabi_MHz is None
        _, _, d, _ = build_physics(cfg)
        assert d.microwave_amplitude == pytest.approx(0.43e-9, rel=1e-12)

    def test_dimension_consistency(self):
        with pytest.raises(ConfigError, match="dimension"):
            parse_config_text("[tls]\nenabled = false\n[engine]\ndimension = 4\n")
        cfg = parse_config_text("[tls]\nenabled = false\n")
        assert effective_dimension(cfg) == 2
        # the key, when given, must equal the level count tls.enabled implies
        for text in ("[engine]\ndimension = 2\n", "[engine]\ndimension = 3\n"):
            with pytest.raises(ConfigError, match="config key engine.dimension"):
                parse_config_text(text)
        assert effective_dimension(parse_config_text("[engine]\ndimension = 4\n")) == 4

    def test_overrides(self):
        cfg = parse_config_text("")
        cfg = apply_overrides(cfg, ["junction.eta=0.002", "engine.ramps=5"])
        assert cfg.eta == 0.002 and cfg.ramps == 5
        with pytest.raises(ConfigError):
            apply_overrides(cfg, ["nope.key=1"])

    def test_comments_and_blank_lines(self):
        cfg = parse_config_text("# top\n\n[junction]\nI0_uA = 36.0  # inline\n")
        assert cfg.I0_uA == 36.0

    def test_config_text_round_trip(self):
        """The canonical text of the fast config and of every shipped config
        parses back to itself, and the embedded header of the bench
        reference, which bench/checks.py compares, comes back byte for byte."""
        texts = [FAST_TELEGRAPH]
        for name in SHIPPED:
            with open(os.path.join(ROOT, "configs", name), encoding="utf-8") as fh:
                texts.append(fh.read())
        for text in texts:
            cfg = parse_config_text(text)
            again = parse_config_text(config_text(cfg))
            assert config_text(again) == config_text(cfg)
            assert again.ramp_rate_uA_per_s == cfg.ramp_rate_uA_per_s
        with open(REFERENCE, encoding="utf-8") as fh:
            header = "".join(l[len(EMBED_PREFIX):] for l in fh if l.startswith(EMBED_PREFIX))
        assert config_text(extract_embedded_config(REFERENCE)) == header


class TestCliCommands:
    def test_simulate_outputs_and_determinism(self, tmp_path):
        cfg_path = write(tmp_path, "fast.cfg", FAST_TELEGRAPH)
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["simulate", "--config", cfg_path, "--out", out1]) == 0
        assert main(["simulate", "--config", cfg_path, "--out", out2]) == 0
        rec1 = Path(out1, "records.csv").read_bytes()
        rec2 = Path(out2, "records.csv").read_bytes()
        assert rec1 == rec2
        summary = json.loads(Path(out1, "summary.json").read_text())
        assert summary["ramps"] == 40
        assert summary["config"]["engine"]["master_seed"] == 777

    def test_simulate_worker_invariance(self, tmp_path):
        cfg_path = write(tmp_path, "fast.cfg", FAST_TELEGRAPH)
        out1, out2 = str(tmp_path / "w1"), str(tmp_path / "w2")
        assert main(["simulate", "--config", cfg_path, "--out", out1, "--workers", "1"]) == 0
        assert main(["simulate", "--config", cfg_path, "--out", out2, "--workers", "2"]) == 0
        assert (
            Path(out1, "records.csv").read_bytes()
            == Path(out2, "records.csv").read_bytes()
        )

    def test_embedded_config_reproduces_run(self, tmp_path):
        cfg_path = write(tmp_path, "fast.cfg", FAST_TELEGRAPH)
        out1 = str(tmp_path / "orig")
        assert main(["simulate", "--config", cfg_path, "--out", out1]) == 0
        rec_path = os.path.join(out1, "records.csv")
        recovered = extract_embedded_config(rec_path)
        cfg2_path = write(tmp_path, "recovered.cfg", config_text(recovered))
        out2 = str(tmp_path / "redo")
        assert main(["simulate", "--config", cfg2_path, "--out", out2]) == 0
        assert (
            Path(rec_path).read_bytes()
            == Path(out2, "records.csv").read_bytes()
        )

    def test_ensemble_worker_invariance(self, tmp_path):
        cfg_path = write(tmp_path, "fast.cfg", FAST_TELEGRAPH)
        out1, out2 = str(tmp_path / "w1"), str(tmp_path / "w2")
        assert main(["ensemble", "--config", cfg_path, "--out", out1, "--workers", "1"]) == 0
        assert main(["ensemble", "--config", cfg_path, "--out", out2, "--workers", "2"]) == 0
        assert (
            Path(out1, "histogram.csv").read_bytes()
            == Path(out2, "histogram.csv").read_bytes()
        )

    def test_workers_rebuild_the_exact_physics(self, monkeypatch):
        """Each worker receives the configuration itself, not its 12-digit
        text, so it rebuilds exactly the physics of the serial path."""
        from jjswitch import cli, engine

        cfg = load_config("configs/default.cfg")
        assert build_physics(parse_config_text(config_text(cfg))) != build_physics(cfg)
        seen = []

        def variants(p, tls, d, ecfg, indices):
            seen.append((p, tls, d, ecfg))
            recs = [engine.SwitchRecord(i, 35.6e-6, 0) for i in indices]
            return recs, recs

        class PicklingPool:
            """Runs the jobs here, after the round trip a process pool makes."""

            def __init__(self, max_workers, mp_context):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return [fn(pickle.loads(pickle.dumps(job))) for job in jobs]

        monkeypatch.setattr(engine, "sequence_variants", variants)
        monkeypatch.setattr(cli, "ProcessPoolExecutor", PicklingPool)
        records = cli._run_records(cfg, "simulate", 2)
        assert [r.ramp_index for r in records] == list(range(cfg.ramps))
        assert len(seen) == 2
        assert all(physics == build_physics(cfg) for physics in seen)

    def test_ensemble_outputs(self, tmp_path):
        cfg_path = write(tmp_path, "bare.cfg", FAST_BARE)
        out = str(tmp_path / "ens")
        assert main(["ensemble", "--config", cfg_path, "--out", out, "--workers", "2"]) == 0
        summary = json.loads(Path(out, "summary.json").read_text())
        assert 0.0 <= summary["tv_distance"] <= 1.0
        hist_lines = [
            l
            for l in Path(out, "histogram.csv").read_text().splitlines()
            if l and not l.startswith("#")
        ]
        assert hist_lines[0] == "bin_lo_uA,bin_hi_uA,count"
        total = sum(int(l.split(",")[2]) for l in hist_lines[1:])
        assert total == 80
        master_lines = [
            l
            for l in Path(out, "master.csv").read_text().splitlines()
            if l and not l.startswith("#")
        ]
        assert master_lines[0] == "I_uA,density_per_uA,survival"

    def test_ensemble_off_mass_distribution_exits_4(self, tmp_path, capsys):
        """A ramp whose whole switching falls inside one oracle cell gives a
        trapezoid switched mass near 9, and a TV distance of 4.18 that means
        nothing: exit 4 and no output instead."""
        out = tmp_path / "ens"
        assert main(["ensemble", "--config", "configs/bare_junction.cfg", "--out", str(out),
                     "--set", "drive.dc_start_uA=35.85", "--set", "engine.trajectories=20"]) == 4
        assert "switched mass plus survival" in capsys.readouterr().err
        assert not out.exists()

    def test_two_level_run_reports_unimodal(self, tmp_path):
        cfg_path = write(tmp_path, "bare.cfg", FAST_BARE)
        out = str(tmp_path / "uni")
        assert main(["simulate", "--config", cfg_path, "--out", out,
                     "--set", "engine.ramps=40"]) == 0
        summary = json.loads(Path(out, "summary.json").read_text())
        assert summary["branches"]["bimodal"] is False
        assert not os.path.exists(os.path.join(out, "labels.csv"))

    def test_singleton_sweep_matches_simulate(self, tmp_path):
        from jjswitch import rng

        cfg_path = write(tmp_path, "fast.cfg", FAST_TELEGRAPH)
        out = str(tmp_path / "sweep")
        assert main(["sweep", "--config", cfg_path, "--out", out,
                     "--axis", "rabi_MHz", "--values", "10.0"]) == 0
        child_seed = rng.derive_seed(777, 0)
        out_sim = str(tmp_path / "sim")
        assert main(["simulate", "--config", cfg_path, "--out", out_sim,
                     "--seed", str(child_seed)]) == 0
        sweep_records = Path(out, "rabi_MHz_10", "records.csv").read_bytes()
        sim_records = Path(out_sim, "records.csv").read_bytes()
        assert sweep_records == sim_records
        lines = [
            l
            for l in Path(out, "sweep.csv").read_text().splitlines()
            if l and not l.startswith("#")
        ]
        assert lines[0].startswith("value,mean_dwell_upper,mean_dwell_lower,jumps")

    def test_sweep_worker_invariance(self, tmp_path):
        cfg_path = write(tmp_path, "fast.cfg", FAST_TELEGRAPH)
        trees = []
        for workers in ("1", "2"):
            out = tmp_path / f"w{workers}"
            assert main(["sweep", "--config", cfg_path, "--out", str(out), "--workers", workers,
                         "--axis", "ramp_rate", "--values", "2e5,3e5"]) == 0
            trees.append({
                str(path.relative_to(out)): path.read_bytes()
                for path in sorted(out.rglob("*")) if path.is_file()
            })
        points = {f"ramp_rate_{v}/records.csv" for v in ("200000", "300000")}
        assert points | {"sweep.csv"} <= trees[0].keys()
        assert trees[0] == trees[1]

    @pytest.mark.parametrize(
        "axis, values, key",
        [("ramp_rate", "2e5,-5", "drive.ramp_rate_uA_per_s"), ("rabi_MHz", "-1", "drive.rabi_MHz")],
    )
    def test_bad_sweep_value_exits_2_before_any_output(self, tmp_path, capsys, axis, values, key):
        cfg_path = write(tmp_path, "fast.cfg", FAST_TELEGRAPH)
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", cfg_path, "--out", str(out),
                     "--axis", axis, f"--values={values}"]) == 2
        assert f"config key {key}" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_physics_failure_writes_nothing(self, tmp_path, capsys):
        """The first point needs no resonance and would run; the second's
        resonance is out of reach, so the sweep fails before any output."""
        cfg_path = write(tmp_path, "fast.cfg", FAST_TELEGRAPH)
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", cfg_path, "--out", str(out), "--axis", "rabi_MHz",
                     "--values", "0,10", "--set", "drive.f_drive_GHz=0.001"]) == 3
        assert "double precision" in capsys.readouterr().err
        assert not out.exists()

    def test_lz_report(self, tmp_path, capsys):
        """`lz` reports the closed form beside the engine's own crossing.
        Without coupling every ramp stays in flag 1, as P_LZ = 1 says; on
        the shipped point the engine's share carries its binomial error and
        some ramps escape before they reach the crossing.  The coupling
        window is reported, its edges included."""
        summaries = {}
        for name, n, coupling in (("shipped", 2000, None), ("zero", 2000, 0), ("edge", 50, 20)):
            out = tmp_path / name
            sets = ["--set", f"engine.trajectories={n}"]
            if coupling is not None:
                sets += ["--set", f"tls.coupling_MHz={coupling}"]
            assert main(["lz", "--config", "configs/lz_midregime.cfg", "--out", str(out),
                         *sets]) == 0
            summaries[name] = json.loads((out / "summary.json").read_text())
            printed = capsys.readouterr().out
            assert f"p_flag1_engine: {summaries[name]['p_flag1_engine']:.12g}" in printed
        shipped = summaries["shipped"]
        assert set(shipped) - {"command", "config", "master_seed"} == {
            "crossing_current_uA", "sweep_rate_J_per_s", "lz_exponent", "p_lz_closed_form",
            "p_flag1_engine", "p_flag1_stderr", "switched_before_crossing", "trajectories",
            "coupling_in_plausible_range",
        }
        assert shipped["trajectories"] == 2000
        p = shipped["p_flag1_engine"]
        assert 0.0 < p < 1.0
        assert shipped["p_flag1_stderr"] == pytest.approx(math.sqrt(p * (1 - p) / 2000), rel=1e-11)
        assert shipped["switched_before_crossing"] > 0.0
        assert shipped["crossing_current_uA"] == pytest.approx(35.627, abs=1e-3)
        zero = summaries["zero"]
        assert zero["p_flag1_engine"] == 1.0 == zero["p_lz_closed_form"]
        assert zero["p_flag1_stderr"] == 0.0
        in_window = {k: v["coupling_in_plausible_range"] for k, v in summaries.items()}
        assert in_window == {"shipped": False, "zero": False, "edge": True}

    @pytest.mark.parametrize(
        "values, message",
        [
            ("1,abc", "--values must be comma-separated numbers"),
            ("2,2.0000000000001", "share the point directory rabi_MHz_2"),
        ],
    )
    def test_unusable_sweep_values_exit_2_before_any_output(self, tmp_path, capsys, values, message):
        """A value that is no number, or two values written alike into one
        point directory name, are refused before any output exists."""
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", "configs/bare_junction.cfg", "--out", str(out),
                     "--axis", "rabi_MHz", f"--values={values}"]) == 2
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert error["error"] == "ConfigError"
        assert message in error["message"]
        assert not out.exists()

    def test_step_size_error_exits_4(self, tmp_path, monkeypatch):
        from jjswitch import engine

        def too_loose(*args, **kwargs):
            raise StepSizeError("norm increased at step 0; dt caps too loose")

        monkeypatch.setattr(engine, "run_trajectories", too_loose)
        cfg_path = write(tmp_path, "fast.cfg", FAST_TELEGRAPH)
        assert main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "z")]) == 4

    def test_exit_codes(self, tmp_path, capsys):
        bad = write(tmp_path, "bad.cfg", "[junction]\neta = 5\n")
        assert main(["simulate", "--config", bad, "--out", str(tmp_path / "x")]) == 2
        missing_bracket = write(tmp_path, "bad2.cfg", "[drive]\nf_drive_GHz = 200\n")
        assert main(["simulate", "--config", missing_bracket,
                     "--out", str(tmp_path / "y")]) == 3
        # a ramp that starts above the top of the two-level domain: the
        # engine and the oracle refuse it alike
        beyond = ["drive.dc_start_uA=35.88"]
        capsys.readouterr()
        assert main(["simulate", "--config", "configs/bare_junction.cfg",
                     "--out", str(tmp_path / "w"), "--set", *beyond]) == 3
        message = "dc_start is beyond the two-level domain"
        assert message in capsys.readouterr().err
        assert not (tmp_path / "w").exists()  # a failed run writes nothing
        # a drive whose resonance double precision cannot resolve
        for command in ("simulate", "ensemble", "lz"):
            out = tmp_path / f"slow_drive_{command}"
            assert main([command, "--config", "configs/default.cfg", "--out", str(out),
                         "--set", "drive.f_drive_GHz=0.001"]) == 3
            assert "double precision" in capsys.readouterr().err
            assert not out.exists()
        cfg = apply_overrides(load_config("configs/bare_junction.cfg"), beyond)
        p, tls, d, _ = build_physics(cfg)
        with pytest.raises(PhysicsDomainError, match=message):
            integrate_master(p, tls, d)
        # non-finite values are refused before any output exists
        fast = write(tmp_path, "fast.cfg", FAST_TELEGRAPH)
        for workers in ("0", "-4"):
            out = tmp_path / f"workers_{workers}"
            assert main(["simulate", "--config", fast, "--out", str(out),
                         "--workers", workers]) == 2
            assert "--workers must be >= 1" in capsys.readouterr().err
            assert not out.exists()
        for key, value in (("engine.dt_max_ns", "nan"), ("drive.ramp_rate_uA_per_s", "inf")):
            out = tmp_path / "nonfinite"
            assert main(["simulate", "--config", fast, "--out", str(out),
                         "--set", f"{key}={value}"]) == 2
            assert f"config key {key}: must be finite" in capsys.readouterr().err
            assert not out.exists()

    def test_two_level_flag_one_exits_2(self, tmp_path, capsys):
        """A bare junction has no flag-1 state to start a sequence from."""
        out = str(tmp_path / "bare")
        assert main(["simulate", "--config", "configs/bare_junction.cfg", "--out", out,
                     "--set", "engine.init_flag=1"]) == 2
        assert "engine.init_flag" in capsys.readouterr().err
        assert not os.path.exists(out)


def loaded_modules(code, *args):
    """The sorted scipy module names a fresh interpreter holds after code,
    which gets args as sys.argv[1:]."""
    code += "\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.strip()


def test_simulate_path_loads_no_scipy():
    """The CLI and the physics of a run load without scipy."""
    code = (
        "import sys, jjswitch.cli\n"
        "from jjswitch import config\n"
        "config.build_physics(config.load_config(sys.argv[1]))"
    )
    assert loaded_modules(code, os.path.join(ROOT, "configs", "default.cfg")) == "[]"


def test_no_command_loads_scipy(tmp_path):
    """`ensemble` and `simulate` run on numpy alone: the oracle's
    exponentials are its own, and scipy.integrate is imported only when
    something asks for `oracle.solve_ivp`."""
    code = (
        "import sys\nfrom jjswitch.cli import main\n"
        "cfg, out = sys.argv[1:]\n"
        "for command in ('ensemble', 'simulate'):\n"
        "    args = [command, '--config', cfg, '--out', out + command]\n"
        "    assert main(args + ['--set', 'engine.ramps=4', '--set', 'engine.trajectories=20']) == 0"
    )
    cfg = write(tmp_path, "fast.cfg", FAST_TELEGRAPH)
    assert loaded_modules(code, cfg, str(tmp_path / "run_")) == "[]"

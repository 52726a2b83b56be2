"""Run configuration: lab-unit parameter files and their SI translation.

Configuration files use laboratory units (uA, pF, kOhm, K, GHz, MHz,
uA/s) in a flat-sectioned key=value format with '#' comments:

    [junction]
    I0_uA = 35.9        # critical current
    [drive]
    rabi_MHz = 10.0

All internal computation is SI with angular frequencies; conversion happens
in exactly one place (build_physics).  Every key has a default; defaults
reproduce the reference telegraph configuration.  Exactly one of
drive.rabi_MHz / drive.I_uw_nA may be given, the other is derived at the
drive's resonance current.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace
from typing import Optional

from .engine import EngineConfig
from .errors import ConfigError
from .hamiltonian import TlsParams
from .physics import (
    BiasDrive,
    JunctionParams,
    microwave_amplitude_for_rabi,
    resonance_current,
)

logger = logging.getLogger("jjswitch")

TWO_PI = 2.0 * math.pi


@dataclass
class RunConfig:
    """Parsed lab-unit configuration with defaults applied."""

    # [junction]
    I0_uA: float = 35.9
    C_pF: float = 4.0
    R_kOhm: float = 1e3 / 2.4  # 416.667 kOhm makes gamma10 = 0.6/us at C = 4 pF
    T_K: float = 0.018
    eta: float = 5e-3
    # [tls]
    tls_enabled: bool = True
    f_TLS_GHz: float = 8.7
    coupling_MHz: float = 200.0
    # [drive]
    f_drive_GHz: float = 9.02
    rabi_MHz: Optional[float] = None
    I_uw_nA: Optional[float] = None
    ramp_rate_uA_per_s: float = 4.5e3
    dc_start_uA: float = 35.40
    # [engine]
    dimension: Optional[int] = None
    frame: str = "rwa"
    master_seed: int = 20260808
    ramps: int = 2000
    trajectories: int = 10000
    dt_max_ns: float = 5.0
    dt_rate_cap: float = 0.05
    theta_max: float = 0.15
    init_flag: int = 0
    # [output]
    directory: str = "out"
    bin_width_uA: float = 0.01

    defaulted: list = field(default_factory=list, repr=False)


_SCHEMA = {
    "junction": {
        "I0_uA": float,
        "C_pF": float,
        "R_kOhm": float,
        "T_K": float,
        "eta": float,
    },
    "tls": {"enabled": bool, "f_TLS_GHz": float, "coupling_MHz": float},
    "drive": {
        "f_drive_GHz": float,
        "rabi_MHz": float,
        "I_uw_nA": float,
        "ramp_rate_uA_per_s": float,
        "dc_start_uA": float,
    },
    "engine": {
        "dimension": int,
        "frame": str,
        "master_seed": int,
        "ramps": int,
        "trajectories": int,
        "dt_max_ns": float,
        "dt_rate_cap": float,
        "theta_max": float,
        "init_flag": int,
    },
    "output": {"directory": str, "bin_width_uA": float},
}

_FIELD_OF = {
    ("tls", "enabled"): "tls_enabled",
}


def _field_name(section: str, key: str) -> str:
    return _FIELD_OF.get((section, key), key)


def _parse_value(raw: str, typ, where: str):
    raw = raw.strip()
    try:
        if typ is bool:
            lowered = raw.lower()
            if lowered in ("true", "yes", "1", "on"):
                return True
            if lowered in ("false", "no", "0", "off"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        if typ is int:
            return int(raw, 0)
        if typ is float:
            return float(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def parse_config_text(text: str, source: str = "<config>") -> RunConfig:
    """Parse the sectioned key=value grammar; errors carry line numbers."""
    cfg = RunConfig()
    seen: set[tuple[str, str]] = set()
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"{source}:{lineno}"
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SCHEMA:
                raise ConfigError(f"{where}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"{where}: expected 'key = value', got {line!r}")
        if section is None:
            raise ConfigError(f"{where}: key outside of any [section]")
        key, _, raw_value = line.partition("=")
        key = key.strip()
        if key not in _SCHEMA[section]:
            raise ConfigError(f"{where}: unknown key {section}.{key}")
        value = _parse_value(raw_value, _SCHEMA[section][key], where)
        setattr(cfg, _field_name(section, key), value)
        seen.add((section, key))

    for section, keys in _SCHEMA.items():
        for key in keys:
            if (section, key) not in seen:
                cfg.defaulted.append(f"{section}.{key}")
    if cfg.rabi_MHz is None and cfg.I_uw_nA is None:
        cfg.rabi_MHz = 10.0
    validate_config(cfg)
    return cfg


def load_config(path: Optional[str]) -> RunConfig:
    """Read and validate a config file; None or empty gives full defaults."""
    if path is None:
        cfg = parse_config_text("", "<defaults>")
    else:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = parse_config_text(fh.read(), path)
    for item in cfg.defaulted:
        logger.debug("config default applied: %s", item)
    return cfg


def apply_overrides(cfg: RunConfig, overrides: list[str]) -> RunConfig:
    """Apply --set section.key=value pairs on top of a parsed config."""
    for item in overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"--set expects section.key=value, got {item!r}")
        dotted, _, raw_value = item.partition("=")
        section, _, key = dotted.strip().partition(".")
        if section not in _SCHEMA or key not in _SCHEMA[section]:
            raise ConfigError(f"--set: unknown key {section}.{key}")
        value = _parse_value(raw_value, _SCHEMA[section][key], f"--set {dotted}")
        setattr(cfg, _field_name(section, key), value)
        entry = f"{section}.{key}"
        if entry in cfg.defaulted:
            cfg.defaulted.remove(entry)
    validate_config(cfg)
    return cfg


def validate_config(cfg: RunConfig) -> None:
    def bad(key, constraint):
        raise ConfigError(f"config key {key}: {constraint}")

    if cfg.I0_uA <= 0:
        bad("junction.I0_uA", "must be > 0")
    if cfg.C_pF <= 0:
        bad("junction.C_pF", "must be > 0")
    if cfg.R_kOhm <= 0:
        bad("junction.R_kOhm", "must be > 0")
    if cfg.T_K < 0:
        bad("junction.T_K", "must be >= 0")
    if not 0.0 <= cfg.eta <= 0.1:
        bad("junction.eta", "must lie in [0, 0.1]")
    if cfg.f_TLS_GHz <= 0:
        bad("tls.f_TLS_GHz", "must be > 0")
    if cfg.coupling_MHz < 0:
        bad("tls.coupling_MHz", "must be >= 0")
    if cfg.f_drive_GHz <= 0:
        bad("drive.f_drive_GHz", "must be > 0")
    if cfg.rabi_MHz is not None and cfg.I_uw_nA is not None:
        bad("drive.rabi_MHz / drive.I_uw_nA", "exactly one may be given")
    if cfg.rabi_MHz is not None and cfg.rabi_MHz < 0:
        bad("drive.rabi_MHz", "must be >= 0")
    if cfg.I_uw_nA is not None and cfg.I_uw_nA < 0:
        bad("drive.I_uw_nA", "must be >= 0")
    if cfg.ramp_rate_uA_per_s <= 0:
        bad("drive.ramp_rate_uA_per_s", "must be > 0")
    if not 0 < cfg.dc_start_uA < cfg.I0_uA:
        bad("drive.dc_start_uA", "must lie in (0, I0_uA)")
    if cfg.dimension is not None and cfg.dimension not in (2, 4):
        bad("engine.dimension", "must be 2 or 4")
    if cfg.dimension == 4 and not cfg.tls_enabled:
        bad("engine.dimension", "dimension 4 requires tls.enabled = true")
    if cfg.dimension == 2 and cfg.tls_enabled:
        bad("engine.dimension", "dimension 2 requires tls.enabled = false")
    if cfg.frame not in ("lab", "rwa"):
        bad("engine.frame", "must be 'lab' or 'rwa'")
    if cfg.ramps < 1:
        bad("engine.ramps", "must be >= 1")
    if cfg.trajectories < 1:
        bad("engine.trajectories", "must be >= 1")
    if cfg.dt_max_ns <= 0:
        bad("engine.dt_max_ns", "must be > 0")
    if not 0 < cfg.dt_rate_cap <= 1:
        bad("engine.dt_rate_cap", "must lie in (0, 1]")
    if cfg.theta_max <= 0:
        bad("engine.theta_max", "must be > 0")
    if cfg.init_flag not in (0, 1):
        bad("engine.init_flag", "must be 0 or 1")
    if effective_dimension(cfg) == 2 and cfg.init_flag != 0:
        bad("engine.init_flag", "two-level runs must start with flag 0")
    if cfg.bin_width_uA <= 0:
        bad("output.bin_width_uA", "must be > 0")


def effective_dimension(cfg: RunConfig) -> int:
    if cfg.dimension is not None:
        return cfg.dimension
    return 4 if cfg.tls_enabled else 2


def resolved_items(cfg: RunConfig) -> list[tuple[str, str, object]]:
    """(section, key, value) triples of the fully resolved configuration."""
    out = []
    for section, keys in _SCHEMA.items():
        for key in keys:
            value = getattr(cfg, _field_name(section, key))
            if section == "engine" and key == "dimension":
                value = effective_dimension(cfg)
            if section == "drive" and key == "rabi_MHz" and value is None and cfg.I_uw_nA is None:
                continue
            if value is None:
                continue
            out.append((section, key, value))
    return out


def fmt(x) -> str:
    """A value as config and output files write it: bools as true/false,
    floats to 12 significant digits, anything else by str."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def config_text(cfg: RunConfig) -> str:
    """Canonical config-file text reproducing this configuration."""
    lines = []
    current = None
    for section, key, value in resolved_items(cfg):
        if section != current:
            lines.append(f"[{section}]")
            current = section
        lines.append(f"{key} = {fmt(value)}")
    return "\n".join(lines) + "\n"


def build_physics(
    cfg: RunConfig,
) -> tuple[JunctionParams, Optional[TlsParams], BiasDrive, EngineConfig]:
    """Translate the lab-unit configuration into SI physics objects."""
    p = JunctionParams(
        critical_current=cfg.I0_uA * 1e-6,
        capacitance=cfg.C_pF * 1e-12,
        shunt_resistance=cfg.R_kOhm * 1e3,
        temperature=cfg.T_K,
        tls_critical_suppression=cfg.eta,
    )
    tls = None
    if cfg.tls_enabled:
        tls = TlsParams(
            omega_tls=TWO_PI * cfg.f_TLS_GHz * 1e9,
            coupling=TWO_PI * cfg.coupling_MHz * 1e6,
        )
    omega = TWO_PI * cfg.f_drive_GHz * 1e9
    if cfg.I_uw_nA is not None:
        i_uw = cfg.I_uw_nA * 1e-9
    elif cfg.rabi_MHz in (None, 0.0):
        i_uw = 0.0
    else:
        i_res = resonance_current(p, omega, "g")
        i_uw = microwave_amplitude_for_rabi(p, TWO_PI * cfg.rabi_MHz * 1e6, i_res)
    d = BiasDrive(
        dc_start=cfg.dc_start_uA * 1e-6,
        ramp_rate=cfg.ramp_rate_uA_per_s * 1e-6,
        microwave_amplitude=i_uw,
        microwave_frequency=omega,
    )
    engine_cfg = EngineConfig(
        frame=cfg.frame,
        master_seed=cfg.master_seed,
        dt_max=cfg.dt_max_ns * 1e-9,
        dt_rate_cap=cfg.dt_rate_cap,
        theta_max=cfg.theta_max,
    )
    return p, tls, d, engine_cfg


def with_seed(cfg: RunConfig, seed: int) -> RunConfig:
    new = replace(cfg, master_seed=seed)
    new.defaulted = list(cfg.defaulted)
    return new


def config_dict(cfg: RunConfig) -> dict:
    """Resolved configuration as a nested dict (for JSON summaries)."""
    out: dict[str, dict] = {}
    for section, key, value in resolved_items(cfg):
        out.setdefault(section, {})[key] = value
    return out

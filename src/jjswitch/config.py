"""Run configuration: lab-unit parameter files and their SI translation.

Configuration files use laboratory units (uA, pF, kOhm, K, GHz, MHz,
uA/s) in a flat-sectioned key=value format with '#' comments:

    [junction]
    I0_uA = 35.9        # critical current
    [drive]
    rabi_MHz = 10.0

Each key is declared once, on its RunConfig field: its section, type,
default and range rule.  Parsing, --set overrides, validation and the
canonical text all walk those fields in file order.  Every float must be
finite.  All internal computation is SI with angular frequencies;
conversion happens in exactly one place (build_physics).  Every key has a
default; defaults reproduce the reference telegraph configuration.  Exactly
one of drive.rabi_MHz / drive.I_uw_nA may be given, the other is derived at
the drive's resonance current.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, fields, replace
from typing import Optional, get_args, get_type_hints

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


def _key(section: str, default, rule=None, key=None):
    """A config key declared on its RunConfig field: its [section], its name
    in that section when it differs from the field's, and its range rule, a
    (predicate, message) pair."""
    return field(default=default, metadata={"section": section, "key": key, "rule": rule})


def _one_of(*allowed):
    return (lambda v: v in allowed, "must be " + " or ".join(map(repr, allowed)))


_POSITIVE = (lambda v: v > 0, "must be > 0")
_NON_NEGATIVE = (lambda v: v >= 0, "must be >= 0")
_AT_LEAST_ONE = (lambda v: v >= 1, "must be >= 1")


@dataclass
class RunConfig:
    """Parsed lab-unit configuration with defaults applied."""

    I0_uA: float = _key("junction", 35.9, _POSITIVE)
    C_pF: float = _key("junction", 4.0, _POSITIVE)
    # 416.667 kOhm makes gamma10 = 0.6/us at C = 4 pF
    R_kOhm: float = _key("junction", 1e3 / 2.4, _POSITIVE)
    T_K: float = _key("junction", 0.018, _NON_NEGATIVE)
    eta: float = _key("junction", 5e-3, (lambda v: 0.0 <= v <= 0.1, "must lie in [0, 0.1]"))
    tls_enabled: bool = _key("tls", True, key="enabled")
    f_TLS_GHz: float = _key("tls", 8.7, _POSITIVE)
    coupling_MHz: float = _key("tls", 200.0, _NON_NEGATIVE)
    f_drive_GHz: float = _key("drive", 9.02, _POSITIVE)
    rabi_MHz: Optional[float] = _key("drive", None, _NON_NEGATIVE)
    I_uw_nA: Optional[float] = _key("drive", None, _NON_NEGATIVE)
    ramp_rate_uA_per_s: float = _key("drive", 4.5e3, _POSITIVE)
    dc_start_uA: float = _key("drive", 35.40)  # in (0, I0_uA): validate_config
    dimension: Optional[int] = _key("engine", None)  # validate_config
    frame: str = _key("engine", "rwa", _one_of("lab", "rwa"))
    master_seed: int = _key("engine", 20260808)
    ramps: int = _key("engine", 2000, _AT_LEAST_ONE)
    trajectories: int = _key("engine", 10000, _AT_LEAST_ONE)
    dt_max_ns: float = _key("engine", 5.0, _POSITIVE)
    dt_rate_cap: float = _key("engine", 0.05, (lambda v: 0 < v <= 1, "must lie in (0, 1]"))
    theta_max: float = _key("engine", 0.15, _POSITIVE)
    init_flag: int = _key("engine", 0, _one_of(0, 1))
    directory: str = _key("output", "out")
    bin_width_uA: float = _key("output", 0.01, _POSITIVE)

    defaulted: list = field(default_factory=list, repr=False)


# field name -> the type its text parses to (float for Optional[float])
_TYPES = {
    name: next((t for t in get_args(hint) if t is not type(None)), hint)
    for name, hint in get_type_hints(RunConfig).items()
}
# "section.key" -> its RunConfig field, in file order
_KEYS = {
    f"{f.metadata['section']}.{f.metadata['key'] or f.name}": f
    for f in fields(RunConfig)
    if f.metadata
}
_SECTIONS = {dotted.partition(".")[0] for dotted in _KEYS}


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
    """Parse the sectioned key=value grammar; errors carry line numbers.
    A key may be given only once."""
    cfg = RunConfig()
    seen: dict[str, int] = {}  # key -> the line that gave it
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"{source}:{lineno}"
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SECTIONS:
                raise ConfigError(f"{where}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"{where}: expected 'key = value', got {line!r}")
        if section is None:
            raise ConfigError(f"{where}: key outside of any [section]")
        key, _, raw_value = line.partition("=")
        dotted = f"{section}.{key.strip()}"
        if dotted not in _KEYS:
            raise ConfigError(f"{where}: unknown key {dotted}")
        if dotted in seen:
            raise ConfigError(f"{where}: key {dotted} already given on line {seen[dotted]}")
        name = _KEYS[dotted].name
        setattr(cfg, name, _parse_value(raw_value, _TYPES[name], where))
        seen[dotted] = lineno

    cfg.defaulted = [dotted for dotted in _KEYS if dotted not in seen]
    if cfg.rabi_MHz is None and cfg.I_uw_nA is None:
        cfg.rabi_MHz = 10.0
    validate_config(cfg)
    return cfg


def load_config(path: Optional[str]) -> RunConfig:
    """Read and validate a config file; None or empty gives full defaults.
    A file that cannot be read as UTF-8 text is a ConfigError."""
    if path is None:
        cfg = parse_config_text("", "<defaults>")
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from None
        cfg = parse_config_text(text, path)
    for item in cfg.defaulted:
        logger.debug("config default applied: %s", item)
    return cfg


def apply_overrides(cfg: RunConfig, overrides: list[str]) -> RunConfig:
    """Apply --set section.key=value pairs on top of a parsed config."""
    for item in overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"--set expects section.key=value, got {item!r}")
        dotted, _, raw_value = item.partition("=")
        key = dotted.strip()
        if key not in _KEYS:
            raise ConfigError(f"--set: unknown key {key}")
        name = _KEYS[key].name
        setattr(cfg, name, _parse_value(raw_value, _TYPES[name], f"--set {dotted}"))
        if key in cfg.defaulted:
            cfg.defaulted.remove(key)
    validate_config(cfg)
    return cfg


def validate_config(cfg: RunConfig) -> None:
    """Every float finite and every key within its rule, in file order;
    then the rules that tie keys together."""

    def bad(key, constraint):
        raise ConfigError(f"config key {key}: {constraint}")

    for key, f in _KEYS.items():
        value = getattr(cfg, f.name)
        if value is None:
            continue
        if _TYPES[f.name] is float and not math.isfinite(value):
            bad(key, "must be finite")
        rule = f.metadata["rule"]
        if rule is not None and not rule[0](value):
            bad(key, rule[1])
    if cfg.rabi_MHz is not None and cfg.I_uw_nA is not None:
        bad("drive.rabi_MHz / drive.I_uw_nA", "exactly one may be given")
    if not 0 < cfg.dc_start_uA < cfg.I0_uA:
        bad("drive.dc_start_uA", "must lie in (0, I0_uA)")
    dimension = effective_dimension(cfg)
    if cfg.dimension not in (None, dimension):
        bad("engine.dimension", f"must be {dimension} with tls.enabled = {fmt(cfg.tls_enabled)}")
    if dimension == 2 and cfg.init_flag != 0:
        bad("engine.init_flag", "two-level runs must start with flag 0")


def effective_dimension(cfg: RunConfig) -> int:
    """The level count: 4 with a TLS, 2 without.  engine.dimension, when
    given, must equal it."""
    return 4 if cfg.tls_enabled else 2


def resolved_items(cfg: RunConfig) -> list[tuple[str, str, object]]:
    """(section, key, value) triples of the fully resolved configuration."""
    out = []
    for dotted, f in _KEYS.items():
        value = getattr(cfg, f.name)
        if f.name == "dimension":
            value = effective_dimension(cfg)
        if value is not None:
            section, _, key = dotted.partition(".")
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

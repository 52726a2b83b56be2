"""Deterministic output files: CSV records and JSON summaries.

Every file embeds the fully resolved configuration (as '# config:' comment
lines that are themselves valid config text once the prefix is stripped)
plus the master seed, so any output can be reproduced byte-for-byte from
its own header.  Floats are written with 12 significant digits and '\\n'
newlines; no locale-dependent formatting anywhere.
"""

from __future__ import annotations

import json
import os
from typing import Iterable, Sequence

from .config import RunConfig, config_dict, config_text, fmt, parse_config_text

EMBED_PREFIX = "# config: "


def header_lines(cfg: RunConfig, command: str) -> list[str]:
    lines = [f"# jjswitch {command}", f"# master_seed = {cfg.master_seed}"]
    lines += [EMBED_PREFIX + line for line in config_text(cfg).splitlines()]
    return lines


def extract_embedded_config(path: str) -> RunConfig:
    """Rebuild the RunConfig from a CSV's embedded header."""
    lines = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for raw in fh:
            if raw.startswith(EMBED_PREFIX):
                lines.append(raw[len(EMBED_PREFIX):].rstrip("\n"))
    return parse_config_text("\n".join(lines), source=path)


def write_csv(
    path: str,
    cfg: RunConfig,
    command: str,
    columns: Sequence[str],
    rows: Iterable[Sequence],
) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in header_lines(cfg, command):
            fh.write(line + "\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(fmt(v) for v in row) + "\n")


def _round_floats(obj):
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def write_summary(path: str, cfg: RunConfig, command: str, payload: dict) -> None:
    doc = {
        "command": command,
        "master_seed": cfg.master_seed,
        "config": config_dict(cfg),
        **payload,
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(_round_floats(doc), fh, indent=2, sort_keys=True)
        fh.write("\n")


def ensure_dir(path: str) -> None:
    os.makedirs(path, exist_ok=True)

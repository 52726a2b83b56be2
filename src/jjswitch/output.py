"""Deterministic output files: CSV records and JSON summaries.

Every file embeds the fully resolved configuration (as '# config:' comment
lines that are themselves valid config text once the prefix is stripped) plus
the master seed, so any output can be reproduced byte-for-byte from its own
header.  Floats are written with 12 significant digits and '\\n' newlines; no
locale-dependent formatting anywhere.  A run writes its declared files into a
`.jjswitch-*` stage (`staged`) in the nearest existing directory on the output
path, so each commit is a rename in one filesystem.  Success replaces the
files written and removes the declared ones not written; a failure changes
nothing, and only a killed process leaves a stage behind.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import tempfile
from typing import Iterable, Iterator, Sequence

from .config import RunConfig, config_dict, config_text, fmt, parse_config_text
from .errors import ConfigError

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


def _existing(path: str) -> str:
    while not os.path.exists(path):
        path = os.path.dirname(path)
    return path


@contextlib.contextmanager
def staged(out_dir: str, names: Sequence[str]) -> Iterator[str]:
    """Yield a stage for `names` (relative to out_dir), then commit them; first
    refuse a declared path that is no file or lies under a non-directory."""
    root = os.path.abspath(out_dir)
    for name in names:
        path = os.path.join(root, name)
        head = _existing(path)
        if not (os.path.isfile(head) if head == path else os.path.isdir(head)):
            raise ConfigError(f"cannot write {path}: {head} is in the way")
    try:
        stage = tempfile.mkdtemp(prefix=".jjswitch-", dir=_existing(root))
    except OSError as exc:
        raise ConfigError(f"output directory {out_dir}: {exc}") from None
    try:
        yield stage
        for name in names:
            src, dst = os.path.join(stage, name), os.path.join(root, name)
            if os.path.exists(src):
                ensure_dir(os.path.dirname(dst))
                os.replace(src, dst)
            elif os.path.exists(dst):
                os.remove(dst)
    finally:
        shutil.rmtree(stage, ignore_errors=True)

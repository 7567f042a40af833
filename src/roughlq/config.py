"""Flat sectioned key-value run configuration.

The format is deliberately tiny: ``[section]`` headers, ``key = value``
pairs, ``#`` comments.  Unknown sections or keys are hard errors so that
typos cannot silently change an experiment.
"""

from __future__ import annotations

__all__ = ["ConfigError", "ALLOWED_KEYS", "parse_config", "format_config", "merge"]


class ConfigError(ValueError):
    """Raised for malformed or unknown configuration content."""


#: every key the artifact understands, by section
ALLOWED_KEYS = {
    "run": {
        "scenario",
        "controllers",
        "seeds",
        "observer",
    },
    "model": {
        "q_diag",
        "r",
    },
    "noise": {
        "kind",
        "hurst",
        "sigma",
        "alpha",
        "beta",
        "gamma",
        "delta",
        "w_kind",
        "w_hurst",
        "w_sigma",
        "w_alpha",
        "w_beta",
        "w_gamma",
        "w_delta",
    },
    "simulate": {
        "dt",
        "horizon",
        "saturation",
        "x0",
        "controller",
        "predictor",
    },
}


def parse_config(text: str) -> dict:
    """Parse config text into ``{section: {key: value-string}}``."""
    out: dict[str, dict[str, str]] = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in ALLOWED_KEYS:
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            out.setdefault(section, {})
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        if section is None:
            raise ConfigError(f"line {lineno}: key outside any [section]")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in ALLOWED_KEYS[section]:
            raise ConfigError(f"line {lineno}: unknown key {key!r} in [{section}]")
        if key in out[section]:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} in [{section}]")
        out[section][key] = value
    return out


def format_config(cfg: dict) -> str:
    """Round-trip writer: stable section and key order."""
    lines = []
    for section in sorted(cfg):
        lines.append(f"[{section}]")
        for key in sorted(cfg[section]):
            lines.append(f"{key} = {cfg[section][key]}")
        lines.append("")
    return "\n".join(lines)


def merge(base: dict, override: dict) -> dict:
    """Overlay ``override`` onto ``base`` (two-level deep)."""
    out = {s: dict(kv) for s, kv in base.items()}
    for section, kv in override.items():
        out.setdefault(section, {})
        out[section].update(kv)
    return out

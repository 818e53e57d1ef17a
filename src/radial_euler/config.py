"""Plain-text run configuration: flat key = value entries under [sections].

Every key has a documented default below; unknown sections or keys are
rejected so a typo cannot silently fall back to a default.  Parsing and
serialization round-trip exactly, and the canonical serialization is
what the provenance line of the CLI artifacts hashes; the number and
CSV rules of those artifacts are here too.
"""

from __future__ import annotations

import configparser
import hashlib
import io
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Optional

from . import __version__
from .core import check_rules

# section -> key -> (type, default)
SCHEMA: dict[str, dict[str, tuple]] = {
    "model": {
        "kind": (str, "euler-poisson"),   # euler-poisson | euler-alignment |
                                          # inviscid-burgers | damped-burgers
        "n": (float, 1.0),                # dimension (integer for PDE runs)
        "kappa": (float, 1.0),            # force strength
        "c": (float, 0.0),                # background density
        "kappa_damp": (float, 1.0),       # damped-Burgers damping constant
    },
    "state": {
        "p0": (float, 0.0),               # u_r at the characteristic foot
        "q0": (float, 0.0),               # u/r
        "s0": (float, 0.0),               # -phi_r/r (Euler-Poisson)
        "rho0": (float, 1.0),             # density
    },
    "integrator": {
        "rel_tol": (float, 1e-8),
        "abs_tol": (float, 1e-10),
        "h_init": (float, 1e-3),
        "h_min": (float, 1e-12),
        "h_max": (float, 10.0),
        "t_max": (float, 200.0),          # classification horizon
        "magnitude_cap": (float, 1e8),    # blowup detection cap
        "confirm": (bool, True),          # re-run at 10x tighter tolerances
    },
    "alignment": {
        "psi_min": (float, 0.8),          # lower influence bound (= nu)
        "psi_max": (float, 1.0),          # upper influence bound
        "nu": (float, 0.8),               # alignment decay rate
        "C0": (float, 0.0),               # envelope amplitude
        "kind": (str, "q"),               # comparison variable: q | G
        "side": (str, "+"),               # comparison side: + | -
        "y0": (float, 0.0),               # initial q or G value
        "phi": (str, ""),                 # influence name for PDE runs
        "phi_value": (float, 1.0),        # constant influence level
        "phi_exponent": (float, 0.5),     # power-law exponent
        "phi_scale": (float, 1.0),        # influence length scale
        "D": (float, 1.0),                # flock diameter; read by no command
    },
    "sweep": {
        "axis1": (str, "p0"),
        "axis1_min": (float, -4.0),
        "axis1_max": (float, 4.0),
        "axis1_steps": (int, 50),
        "axis2": (str, "rho0"),
        "axis2_min": (float, 0.1),
        "axis2_max": (float, 4.0),
        "axis2_steps": (int, 50),
    },
    "curves": {
        "which": (str, "all"),            # all | comma list of curve kinds
        "x_max": (float, 0.5),
        "samples": (int, 200),
        "include_ep": (bool, False),      # also emit the explicit EP bound
        "v0_max": (float, 2.0),
        "ep_q0": (float, 1.0),            # (q0, s0) entering the EP constants
        "ep_s0": (float, 0.01),
    },
    "initial": {
        "rho_profile": (str, "gaussian-bump"),
        "rho_amp": (float, 1.0),
        "rho_width": (float, 1.0),
        "rho_radius": (float, 1.0),       # indicator support radius
        "rho_k": (float, 4.0),            # polynomial-decay exponent
        "u_profile": (str, "linear"),
        "u_amp": (float, 0.5),
        "u_width": (float, 1.0),
        "r_max": (float, 4.0),            # profile extent
        "profile_nodes": (int, 801),
        "n_paths": (int, 200),
    },
    "simulate": {
        "t_end": (float, 20.0),
        "snapshots": (int, 11),
        "theta_order": (int, 32),
        "dt": (float, 0.0),               # 0 = automatic stability bound
    },
    "phase": {
        "seeds": (str, "1:1, -0.5:0.01"),  # q0:s0 pairs
        "t_end": (float, 100.0),
        "rescaled": (bool, False),
        "samples": (int, 400),
    },
    "output": {
        "out_dir": (str, "."),
        "format": (str, "csv"),           # csv | json
    },
}


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    values: dict[str, dict[str, Any]] = field(default_factory=dict)

    def __post_init__(self):
        merged = {}
        for section, keys in SCHEMA.items():
            merged[section] = {k: self.values.get(section, {}).get(k, d)
                               for k, (_, d) in keys.items()}
        self.values = merged

    def __getitem__(self, section: str) -> dict[str, Any]:
        return self.values[section]


def check_keys(cfg: RunConfig, section: str, **rules):
    """Refuse, before any work, the first ``[section]`` key that breaks its rule."""
    check_rules(rules, cfg[section], f"[{section}] ", ConfigError)


@contextmanager
def refusing(section: str, /, *keys: str, **renamed: str):
    """Refuse a ValueError whose message starts with one of ``keys``, or with a
    parameter ``renamed`` maps to its key, as that ``[section]`` key's ConfigError."""
    renamed.update(zip(keys, keys))
    try:
        yield
    except ValueError as exc:
        name, _, rest = str(exc).partition(" ")
        if name not in renamed:
            raise
        raise ConfigError(f"[{section}] {renamed[name]} {rest}") from exc


def _convert(section: str, key: str, raw: str) -> Any:
    typ, _ = SCHEMA[section][key]
    raw = raw.strip()
    try:
        if typ is bool:
            if raw.lower() in ("true", "yes", "on", "1"):
                return True
            if raw.lower() in ("false", "no", "off", "0"):
                return False
            raise ValueError(raw)
        return typ(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: cannot parse {raw!r} "
                          f"as {typ.__name__}") from exc


def parse_config_text(text: str) -> RunConfig:
    parser = configparser.ConfigParser(interpolation=None, delimiters=("=",))
    parser.optionxform = str
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    values: dict[str, dict[str, Any]] = {}
    for section in parser.sections():
        if section not in SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key, raw in parser.items(section):
            if key not in SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            values.setdefault(section, {})[key] = _convert(section, key, raw)
    return RunConfig(values)


def parse_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config_text(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def _format_value(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def serialize_config(cfg: RunConfig) -> str:
    """Canonical text form: schema ordering, one key = value per line."""
    out = io.StringIO()
    for section, keys in SCHEMA.items():
        out.write(f"[{section}]\n")
        for key in keys:
            out.write(f"{key} = {_format_value(cfg.values[section][key])}\n")
        out.write("\n")
    return out.getvalue()


def config_hash(cfg: RunConfig) -> str:
    return hashlib.sha256(serialize_config(cfg).encode()).hexdigest()[:16]


def provenance(cfg: RunConfig) -> str:
    """The line that heads every CSV artifact: the config hash and the tool version."""
    return f"config_sha256={config_hash(cfg)} tool=radial-euler {__version__}"


def format_number(x) -> str:
    """Every number an artifact prints: 13 significant digits, bit-stable."""
    return "%.12e" % float(x)


def json_number(x) -> Optional[float]:
    """``format_number``'s digits, or None (null) where x is not finite: JSON has no NaN."""
    return float(format_number(x)) if math.isfinite(x) else None


def csv_text(comments, rows) -> str:
    """``# `` comment lines, then one line per row; a str cell prints as it is."""
    lines = [f"# {c}" for c in comments]
    lines += [",".join(v if isinstance(v, str) else format_number(v) for v in row)
              for row in rows]
    return "\n".join(lines) + "\n"

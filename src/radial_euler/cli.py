"""Command-line interface: classify | sweep | curves | simulate | phase-portrait.

All numeric output is bit-stable: floats print as %.12e and rows follow
the configured axis order, so identical configs produce byte-identical
files.  Exit codes:

    0  globally bounded, or the command succeeded
    1  usage or config error (including an unknown profile or influence name)
    2  finite-time blowup (or a path crossing)
    3  inconclusive: a verdict flipped under tighter tolerances, a step
       collapsed, or a numerical method did not converge
"""

from __future__ import annotations

import argparse
import inspect
import json
import logging
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .alignment import CURVE_KINDS, INFLUENCE_LIBRARY, enhanced_curve
from .config import ConfigError, RunConfig, config_hash, parse_config
from .core import Model
from .euler_poisson import (compute_threshold_constants, explicit_sigma_plus,
                            qs_phase_portrait)
from .odeint import IntegrationFailure, Verdict
from .pde import diagnostics_series, run_size_problem, simulate_ea, simulate_ep
from .profiles import DENSITY_LIBRARY, VELOCITY_LIBRARY
from .sweep import (bounds_from, classify_cells, integrator_from, model_params_from,
                    run_sweep)

log = logging.getLogger("radial_euler")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BLOWUP = 2
EXIT_INCONCLUSIVE = 3


def _f(x) -> str:
    return "%.12e" % float(x)


def _json_num(x):
    return float(_f(x))


def _prov(cfg: RunConfig) -> str:
    return f"config_sha256={config_hash(cfg)} tool=radial-euler {__version__}"


def _write(path: str, text: str):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    log.info("wrote %s", path)


def _from_library(library: dict, key: str, name: str, **values):
    """Call ``library[name]`` with those of ``values`` its parameters name."""
    if name not in library:
        raise ConfigError(f"{key} must be one of {sorted(library)}, got {name!r}")
    factory = library[name]
    accepted = inspect.signature(factory).parameters
    return factory(**{k: v for k, v in values.items() if k in accepted})


# (test, wanted) rules for _check_keys
_AT_LEAST_ONE = (lambda v: v >= 1, "at least 1")
_FINITE_POSITIVE = (lambda v: math.isfinite(v) and v > 0, "finite and positive")


def _check_keys(cfg: RunConfig, section: str, **rules):
    """Refuse, before any work, the first ``[section]`` key that breaks its rule."""
    for key, (ok, wanted) in rules.items():
        value = cfg[section][key]
        if not ok(value):
            raise ConfigError(f"[{section}] {key} must be {wanted}, got {value!r}")


def _influence_from(cfg: RunConfig):
    a = cfg["alignment"]
    return _from_library(INFLUENCE_LIBRARY, "[alignment] phi", a["phi"],
                         value=a["phi_value"], exponent=a["phi_exponent"],
                         scale=a["phi_scale"])


def _profiles_from(cfg: RunConfig):
    ini = cfg["initial"]
    nodes = ini["profile_nodes"]
    rho = _from_library(DENSITY_LIBRARY, "[initial] rho_profile",
                        ini["rho_profile"], amp=ini["rho_amp"],
                        width=ini["rho_width"], radius=ini["rho_radius"],
                        k=ini["rho_k"], r_max=ini["r_max"], n_nodes=nodes)
    u = _from_library(VELOCITY_LIBRARY, "[initial] u_profile", ini["u_profile"],
                      amp=ini["u_amp"], width=ini["u_width"], r_max=rho.r_max,
                      n_nodes=nodes)
    return rho, u


def cmd_classify(cfg: RunConfig, out_dir: str, fmt: str) -> int:
    out = classify_cells(cfg)[0]
    payload = {"verdict": out.verdict.value}
    if out.t_estimate is not None:
        payload["t_estimate"] = _json_num(out.t_estimate)
    if out.reason:
        payload["reason"] = out.reason
    diag = {}
    for key in ("t_final", "max_norm"):
        if key in out.diagnostics:
            diag[key] = _json_num(out.diagnostics[key])
    if "early_exit" in out.diagnostics:
        diag["early_exit"] = out.diagnostics["early_exit"]
    payload["diagnostics"] = diag
    print(json.dumps(payload, sort_keys=True, indent=2))
    return {Verdict.GLOBAL_BOUNDED: EXIT_OK,
            Verdict.FINITE_TIME_BLOWUP: EXIT_BLOWUP,
            Verdict.INCONCLUSIVE: EXIT_INCONCLUSIVE}[out.verdict]


def cmd_sweep(cfg: RunConfig, out_dir: str, fmt: str) -> int:
    result = run_sweep(cfg)
    if fmt == "json":
        path = os.path.join(out_dir, "sweep.json")
        _write(path, result.to_json())
    else:
        path = os.path.join(out_dir, "sweep.csv")
        _write(path, result.to_csv())
    print(path)
    return EXIT_OK


def cmd_curves(cfg: RunConfig, out_dir: str, fmt: str) -> int:
    cur = cfg["curves"]
    _check_keys(cfg, "curves", samples=_AT_LEAST_ONE, x_max=_FINITE_POSITIVE,
                **({"v0_max": _FINITE_POSITIVE} if cur["include_ep"] else {}))
    n = cfg["model"]["n"]
    bounds = bounds_from(cfg)
    which = (list(CURVE_KINDS) if cur["which"] == "all"
             else [w.strip() for w in cur["which"].split(",")])
    lines = [f"# {_prov(cfg)}", "curve,x,value"]
    xs = np.linspace(0.0, cur["x_max"], cur["samples"])
    for kind in which:
        if kind not in CURVE_KINDS:
            raise ConfigError(f"unknown curve kind {kind!r}")
        curve = enhanced_curve(kind, bounds, n, cur["x_max"])
        for x, v in zip(xs, curve(xs)):
            lines.append(f"{kind},{_f(x)},{_f(v)}")
    if cur["include_ep"]:
        try:
            params = model_params_from(cfg)
            consts = compute_threshold_constants(params,
                                                 (cur["ep_q0"], cur["ep_s0"]))
            v0s = np.linspace(cur["v0_max"] / cur["samples"], cur["v0_max"],
                              cur["samples"])
            for v0 in v0s:
                w0 = explicit_sigma_plus(float(v0), consts,
                                         params.kappa, params.n)
                lines.append(f"ep_w0_threshold,{_f(v0)},{_f(w0)}")
        except ValueError as exc:
            lines.append(f"# ep_w0_threshold: unsupported ({exc})")
    path = os.path.join(out_dir, "curves.csv")
    _write(path, "\n".join(lines) + "\n")
    print(path)
    return EXIT_OK


def _snapshot_csv(snap, prov: str) -> str:
    cols = ["r", "rho", "u", "p", "q"]
    arrays = [snap.r, snap.rho, snap.u, snap.p, snap.q]
    if snap.extras.get("psi") is not None:
        cols += ["psi", "G"]
        arrays += [snap.extras["psi"], snap.extras["G"]]
    lines = [f"# {prov}", f"# t = {_f(snap.time)}", ",".join(cols)]
    for row in zip(*arrays):
        lines.append(",".join(_f(v) for v in row))
    return "\n".join(lines) + "\n"


# config (section, key) of each run-size argument of simulate_ep/simulate_ea
_RUN_SIZE_KEYS = {"n_paths": ("initial", "n_paths"), "t_end": ("simulate", "t_end"),
                  "n_snapshots": ("simulate", "snapshots"),
                  "theta_order": ("simulate", "theta_order"), "dt": ("simulate", "dt")}


def _check_run_size(cfg: RunConfig, model: Model):
    """Refuse, before any file is written, run sizes the simulation refuses."""
    ini, sim = cfg["initial"], cfg["simulate"]
    problem = run_size_problem(model, ini["n_paths"], sim["t_end"], sim["snapshots"],
                               sim["theta_order"], sim["dt"])
    if problem is not None:
        name, wanted = problem
        section, key = _RUN_SIZE_KEYS[name]
        raise ConfigError(f"[{section}] {key} must be {wanted}, "
                          f"got {cfg[section][key]!r}")


def cmd_simulate(cfg: RunConfig, out_dir: str, fmt: str) -> int:
    params = model_params_from(cfg)
    _check_run_size(cfg, params.model)
    rho0, u0 = _profiles_from(cfg)
    sim = cfg["simulate"]
    ini = cfg["initial"]
    if params.model is Model.EULER_ALIGNMENT:
        phi = _influence_from(cfg)
        result = simulate_ea(rho0, u0, phi, params, n_paths=ini["n_paths"],
                             t_end=sim["t_end"], n_snapshots=sim["snapshots"],
                             theta_order=sim["theta_order"],
                             dt=sim["dt"])
    else:
        result = simulate_ep(rho0, u0, params, n_paths=ini["n_paths"],
                             config=integrator_from(cfg), t_end=sim["t_end"],
                             n_snapshots=sim["snapshots"])
    clock = time.perf_counter()
    prov = _prov(cfg)
    for i, snap in enumerate(result.snapshots):
        _write(os.path.join(out_dir, f"snapshot_{i:03d}.csv"),
               _snapshot_csv(snap, prov))
    series = diagnostics_series(result.snapshots)
    keys = ["t", "max_grad", "V", "support_radius", "min_radius",
            "mass_total", "bkm_integral"]
    lines = [f"# {prov}", ",".join(keys)]
    for k in range(len(series["t"])):
        lines.append(",".join(_f(series[key][k]) for key in keys))
    _write(os.path.join(out_dir, "diagnostics.csv"), "\n".join(lines) + "\n")

    meta = {"snapshots": len(result.snapshots), "n_paths": result.n_paths,
            "blowup": None}
    if result.blowup is not None:
        meta["blowup"] = {"time": _json_num(result.blowup.time),
                          "kind": result.blowup.kind,
                          "path_index": result.blowup.path_index,
                          "radius": _json_num(result.blowup.radius)}
    _write(os.path.join(out_dir, "metadata.json"),
           json.dumps(meta, sort_keys=True, indent=2) + "\n")
    log.info("wrote %d files in %.3f s", len(result.snapshots) + 2,
             time.perf_counter() - clock)
    print(os.path.join(out_dir, "metadata.json"))
    if result.blowup is not None:
        return EXIT_INCONCLUSIVE if result.blowup.kind == "step-collapse" \
            else EXIT_BLOWUP
    return EXIT_OK


def cmd_phase_portrait(cfg: RunConfig, out_dir: str, fmt: str) -> int:
    ph = cfg["phase"]
    _check_keys(cfg, "phase", t_end=_FINITE_POSITIVE, samples=_AT_LEAST_ONE)
    params = model_params_from(cfg)
    integ = integrator_from(cfg)
    from dataclasses import replace
    integ = replace(integ, t_max=ph["t_end"])
    seeds = []
    for chunk in ph["seeds"].split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            q0, s0 = (float(v) for v in chunk.split(":"))
        except ValueError:
            raise ConfigError(f"bad seed {chunk!r}; expected q0:s0")
        seeds.append((q0, s0))
    if not seeds:
        raise ConfigError("phase portrait needs at least one seed")
    trajectories = qs_phase_portrait(params, seeds, integ)
    rescaled = ph["rescaled"]
    cols = "seed,t,qhat,shat" if rescaled else "seed,t,q,s"
    lines = [f"# {_prov(cfg)}", cols]
    for idx, traj in enumerate(trajectories):
        if traj.record is None:
            log.warning("seed %s invalid (s0 <= -c/n); skipped", traj.seed)
            continue
        tt = np.linspace(0.0, traj.record.t_final, ph["samples"])
        ys = traj.record.sample_many(tt)
        for t, (q, s) in zip(tt, ys):
            if rescaled:
                q, s = (t + 1.0) * q, (t + 1.0) ** 2 * s
            lines.append(f"{idx},{_f(t)},{_f(q)},{_f(s)}")
    path = os.path.join(out_dir, "portrait.csv")
    _write(path, "\n".join(lines) + "\n")
    print(path)
    return EXIT_OK


COMMANDS = {
    "classify": cmd_classify,
    "sweep": cmd_sweep,
    "curves": cmd_curves,
    "simulate": cmd_simulate,
    "phase-portrait": cmd_phase_portrait,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="radial-euler",
        description="Critical-threshold classification and simulation for "
                    "radially symmetric pressure-less Eulerian flow.")
    parser.add_argument("--version", action="version",
                        version=f"radial-euler {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the run config")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--threads", type=int, default=1,
                       help="accepted and ignored: it does not change the run or its output")
        p.add_argument("--format", choices=("csv", "json"), default=None)
    return parser


def main(argv=None) -> int:
    level = os.environ.get("CT_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        cfg = parse_config(args.config)
        out_dir = args.out if args.out is not None else cfg["output"]["out_dir"]
        os.makedirs(out_dir, exist_ok=True)
        fmt = args.format if args.format is not None else cfg["output"]["format"]
        return COMMANDS[args.command](cfg, out_dir, fmt)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except IntegrationFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE


if __name__ == "__main__":
    sys.exit(main())
